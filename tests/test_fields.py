import random

import numpy as np
import pytest

from higgsflow.errors import DegreeOutOfRange, EvenPrime, ForbiddenResidue, NotPrime
from higgsflow.fields import (frobenius_w2, is_prime, make_context, teichmuller,
                              witt_compose, witt_decompose)
from higgsflow.lambdas import _sqrt_mod_p
from higgsflow.linalg import FqMatrix
from higgsflow.polys import Poly


def test_context_construction():
    ctx = make_context(3, 1)
    assert (ctx.p, ctx.d, ctx.q, ctx.p2) == (3, 1, 3, 9)
    ctx9 = make_context(3, 2)
    assert ctx9.q == 9
    assert ctx9.modulus == (1, 0, 1)  # x^2 + 1, the least irreducible


def test_context_rejects_bad_parameters():
    with pytest.raises(NotPrime):
        make_context(4, 1)
    with pytest.raises(NotPrime):
        make_context(1, 1)
    with pytest.raises(EvenPrime):
        make_context(2, 1)
    with pytest.raises(DegreeOutOfRange):
        make_context(3, 3)  # only F_p and F_{p^2} are built
    with pytest.raises(DegreeOutOfRange):
        make_context(3, 0)


def test_modulus_is_deterministic_and_irreducible():
    assert make_context(5, 2).modulus == (2, 0, 1)  # x^2 + 2 over F_5
    assert make_context(5, 2).modulus == make_context(5, 2).modulus
    assert make_context(7, 1).modulus == (0, 1)


def test_quadratic_modulus_is_first_rootless_candidate():
    # candidates x^2 + c1 x + c0 in the order c0 + c1 p; roots found by evaluation
    for p in range(3, 1000, 2):
        if not is_prime(p):
            continue
        x = np.arange(p)
        first = next((c0, c1, 1) for c1 in range(p) for c0 in range(p)
                     if np.all((x * x + c1 * x + c0) % p))
        assert make_context(p, 2).modulus == first, p


def test_separate_contexts_compare_and_hash_equal():
    # no cache hands back one object: equality and hashing go by (p, d)
    for p, d in ((3, 1), (5, 2)):
        a, b = make_context(p, d), make_context(p, d)
        assert a is not b and a == b and hash(a) == hash(b)
        x, y = a.f_from_coeffs([1, 2]), b.f_from_coeffs([1, 2])
        assert x == y and hash(x) == hash(y)
        wx, wy = a.w_from_coeffs([4, 7]), b.w_from_coeffs([4, 7])
        assert wx == wy and hash(wx) == hash(wy)
        f, g = Poly.from_ints(a, [1, 0, 2]), Poly.from_ints(b, [1, 0, 2])
        assert f == g and hash(f) == hash(g)
        m = FqMatrix(a, np.ones((2, 3, d), np.int64))
        assert m == FqMatrix(b, np.ones((2, 3, d), np.int64))
    assert make_context(5, 1) != make_context(5, 2)
    assert make_context(5, 1).one != make_context(7, 1).one


def test_teichmuller_examples():
    ctx = make_context(3, 1)
    assert teichmuller(ctx.f_from_int(0)) == ctx.w_from_int(0)
    assert teichmuller(ctx.f_from_int(2)) == ctx.w_from_int(8)
    for p in (3, 5, 7):
        c = make_context(p, 1)
        assert teichmuller(c.f_from_int(-1)) == c.w_from_int(c.p2 - 1)


def test_teichmuller_is_multiplicative_section_exhaustive():
    for p in (3, 5, 7):
        for d in (1, 2):
            ctx = make_context(p, d)
            taus = {a.index(): teichmuller(a) for a in ctx.field_elements()}
            for a in ctx.field_elements():
                assert taus[a.index()].residue() == a
                assert taus[a.index()] ** ctx.q == taus[a.index()]
                for b in ctx.field_elements():
                    assert taus[a.index()] * taus[b.index()] == taus[(a * b).index()]


def test_field_axioms_randomized():
    rng = random.Random(20240817)
    for p, d in ((3, 2), (5, 1), (7, 2), (11, 1)):
        ctx = make_context(p, d)
        for _ in range(1000):
            a = ctx.f_from_index(rng.randrange(ctx.q))
            b = ctx.f_from_index(rng.randrange(ctx.q))
            c = ctx.f_from_index(rng.randrange(ctx.q))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if not a.is_zero():
                assert a * a.inverse() == ctx.one


def test_witt_ring_is_characteristic_p_squared():
    ctx = make_context(3, 2)
    x = ctx.w_from_coeffs([4, 7])
    p_el = ctx.w_from_int(3)
    assert (x * p_el * p_el).is_zero()
    assert not (x * p_el).is_zero()


def test_frobenius_examples_and_order():
    ctx = make_context(3, 1)
    for n in range(9):
        assert frobenius_w2(ctx.w_from_int(n)) == ctx.w_from_int(n)
    for p in (3, 5):
        ctx = make_context(p, 2)
        for w in ctx.witt_elements():
            assert frobenius_w2(frobenius_w2(w)) == w
    ctx = make_context(3, 2)
    for a in ctx.field_elements():
        assert frobenius_w2(teichmuller(a)) == teichmuller(a ** 3)
    # x -> -x and the inverse through it, against powering; the stacked
    # inverse equals the scalar one, and sends 0 to 0
    for p in (3, 5, 7, 11, 13):
        ctx = make_context(p, 2)
        elements = list(ctx.field_elements())
        for a in elements[1:]:
            assert a * a.inverse() == ctx.one
            assert a.frobenius() == a ** p
            assert a.frobenius().frobenius() == a
        stacked = ctx.finv_stack(np.array([a.vec for a in elements]), ctx.finv_table())
        assert [tuple(x) for x in stacked.tolist()] == [(0, 0)] + [
            ctx.finv(a.vec) for a in elements[1:]]


def test_frobenius_w2_on_witt_coordinates_exhaustive():
    # the defining property: tau(a) + p*b goes to tau(a^p) + p*b^p
    for p in (3, 5, 7):
        ctx = make_context(p, 2)
        times_p = ctx.w_from_int(p)
        taus = {a.index(): teichmuller(a) for a in ctx.field_elements()}
        for a in ctx.field_elements():
            image = taus[(a ** p).index()]
            for b in ctx.field_elements():
                x = taus[a.index()] + times_p * b.lift()
                assert frobenius_w2(x) == image + times_p * (b ** p).lift()


def test_frobenius_is_ring_homomorphism():
    # exhaustive over all pairs for p = 3, d = 2
    ctx = make_context(3, 2)
    elems = list(ctx.witt_elements())
    images = {x.vec: frobenius_w2(x) for x in elems}
    for x in elems:
        for y in elems:
            assert images[(x + y).vec] == images[x.vec] + images[y.vec]
            assert images[(x * y).vec] == images[x.vec] * images[y.vec]
    # randomized for p = 5, d = 2
    ctx = make_context(5, 2)
    rng = random.Random(5)
    elems = list(ctx.witt_elements())
    for _ in range(400):
        x, y = rng.choice(elems), rng.choice(elems)
        assert frobenius_w2(x + y) == frobenius_w2(x) + frobenius_w2(y)
        assert frobenius_w2(x * y) == frobenius_w2(x) * frobenius_w2(y)


def test_witt_decompose_examples():
    ctx = make_context(3, 1)
    wp = witt_decompose(ctx.w_from_int(2))
    assert (wp.lam0, wp.lam1) == (ctx.f_from_int(2), ctx.f_from_int(1))
    wp = witt_decompose(ctx.w_from_int(-1))
    assert (wp.lam0, wp.lam1) == (ctx.f_from_int(2), ctx.f_from_int(0))
    c5 = make_context(5, 1)
    wp = witt_decompose(c5.w_from_int(7))
    assert (wp.lam0, wp.lam1) == (c5.f_from_int(2), c5.f_from_int(0))


def test_witt_compose_examples():
    ctx = make_context(3, 1)
    assert witt_compose(ctx.f_from_int(2), ctx.f_from_int(0)) == ctx.w_from_int(8)
    assert witt_compose(ctx.f_from_int(2), ctx.f_from_int(1)) == ctx.w_from_int(2)
    with pytest.raises(ForbiddenResidue):
        witt_compose(ctx.f_from_int(0), ctx.f_from_int(1))
    with pytest.raises(ForbiddenResidue):
        witt_decompose(ctx.w_from_int(1 + 3))  # residue 1


def test_witt_roundtrip_exhaustive():
    for p in (3, 5, 7):
        for d in (1, 2):
            ctx = make_context(p, d)
            for w in ctx.witt_elements():
                r = w.residue()
                if r.is_zero() or r == ctx.one:
                    continue
                wp = witt_decompose(w)
                assert witt_compose(wp.lam0, wp.lam1) == w
            for lam0 in ctx.field_elements():
                if lam0.is_zero() or lam0 == ctx.one:
                    continue
                for lam1 in ctx.field_elements():
                    w = witt_compose(lam0, lam1)
                    wp = witt_decompose(w)
                    assert (wp.lam0, wp.lam1) == (lam0, lam1)


def test_element_string_forms():
    ctx = make_context(3, 2)
    e = ctx.f_from_coeffs([1, 2])
    assert e.to_string() == "2u+1"
    assert ctx.zero.to_string() == "0"
    assert ctx.one.to_string() == "1"
    assert ctx.f_from_coeffs([0, 1]).to_string() == "u"


def test_field_sqrt():
    # every nonzero square residue; 2^8 and 2^9 divide p - 1 at 257 and 7681,
    # where Tonelli-Shanks has the deepest 2-power subgroup to walk down
    for p in [p for p in range(3, 200, 2) if is_prime(p)] + [257, 7681]:
        for a in {x * x % p for x in range(1, p)}:
            assert _sqrt_mod_p(a, p) ** 2 % p == a, (p, a)
