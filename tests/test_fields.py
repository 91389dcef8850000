import random

import pytest

from higgsflow.errors import DegreeOutOfRange, EvenPrime, ForbiddenResidue, NotPrime
from higgsflow.fields import (frobenius_w2, make_context, teichmuller, witt_compose,
                              witt_decompose)


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
        make_context(3, 5)
    with pytest.raises(DegreeOutOfRange):
        make_context(3, 0)


def test_modulus_is_deterministic_and_irreducible():
    # same object back from the cache, and a fresh context agrees
    assert make_context(5, 2) is make_context(5, 2)
    assert make_context(5, 2).modulus == (2, 0, 1)  # x^2 + 2 over F_5
    assert make_context(7, 3).modulus[-1] == 1


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


def test_witt_roundtrip_exhaustive_both_conventions():
    for p in (3, 5, 7):
        for d in (1, 2):
            ctx = make_context(p, d)
            for conv in ("standard", "twisted"):
                for w in ctx.witt_elements():
                    r = w.residue()
                    if r.is_zero() or r == ctx.one:
                        continue
                    wp = witt_decompose(w, conv)
                    assert witt_compose(wp.lam0, wp.lam1, conv) == w
                for lam0 in ctx.field_elements():
                    if lam0.is_zero() or lam0 == ctx.one:
                        continue
                    for lam1 in ctx.field_elements():
                        w = witt_compose(lam0, lam1, conv)
                        wp = witt_decompose(w, conv)
                        assert (wp.lam0, wp.lam1) == (lam0, lam1)


def test_conventions_coincide_for_prime_field():
    ctx = make_context(7, 1)
    for n in range(49):
        w = ctx.w_from_int(n)
        r = w.residue()
        if r.is_zero() or r == ctx.one:
            continue
        a = witt_decompose(w, "standard")
        b = witt_decompose(w, "twisted")
        assert (a.lam0, a.lam1) == (b.lam0, b.lam1)


def test_element_string_forms():
    ctx = make_context(3, 2)
    e = ctx.f_from_coeffs([1, 2])
    assert e.to_string() == "2u+1"
    assert ctx.zero.to_string() == "0"
    assert ctx.one.to_string() == "1"
    assert ctx.f_from_coeffs([0, 1]).to_string() == "u"


def test_field_sqrt():
    for p, d in ((3, 1), (5, 1), (13, 1), (3, 2), (5, 2)):
        ctx = make_context(p, d)
        for a in ctx.field_elements():
            sq = (a * a).vec
            root = ctx.f_sqrt(sq)
            assert root is not None
            assert ctx.fmul(root, root) == sq
        non_sq = ctx.f_nonsquare()
        assert ctx.f_sqrt(non_sq) is None

