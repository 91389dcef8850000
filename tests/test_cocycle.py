import random
from math import comb

import pytest

from higgsflow.cocycle import (binomial_over_p, binomials_mod_p2, build_A_closed,
                               build_A_primitive, build_transition)
from higgsflow.errors import ForbiddenResidue
from higgsflow.fields import make_context, witt_decompose
from higgsflow.polys import Poly

from certificate_reference import (PoleFraction, order_at_one, transition_fractions,
                                   z_minus_one_pow)


def P(ctx, *ints):
    return Poly.from_ints(ctx, ints)


def test_primitive_micro_cases():
    ctx = make_context(3, 1)
    assert build_A_primitive(ctx, ctx.w_from_int(-1)).A == P(ctx, 0, 2, 0, 0, 0, 1)
    assert build_A_primitive(ctx, ctx.w_from_int(2)).A == P(ctx, 1, 2, 0, 2, 0, 1)
    with pytest.raises(ForbiddenResidue):
        build_A_primitive(ctx, ctx.w_from_int(4))  # residue 1
    with pytest.raises(ForbiddenResidue):
        build_A_primitive(ctx, ctx.w_from_int(3))  # residue 0


def test_closed_micro_cases():
    ctx = make_context(3, 1)
    two = ctx.f_from_int(2)
    assert build_A_closed(ctx, two, ctx.zero).A == P(ctx, 0, 2, 0, 0, 0, 1)
    assert build_A_closed(ctx, two, ctx.one).A == P(ctx, 1, 2, 0, 2, 0, 1)


def test_lam1_enters_only_through_last_term():
    for p in (3, 5, 7):
        ctx = make_context(p, 1)
        for a in range(2, p):
            lam0 = ctx.f_from_int(a)
            base = build_A_closed(ctx, lam0, ctx.zero).A
            for b in range(p):
                lam1 = ctx.f_from_int(b)
                diff = build_A_closed(ctx, lam0, lam1).A - base
                zp_minus_1 = Poly.monomial(ctx, p) - Poly.one(ctx)
                assert diff == zp_minus_1.scale(-lam1)


def test_closed_equals_primitive_exhaustive_prime_fields():
    for p in (3, 5, 7):
        ctx = make_context(p, 1)
        for n in range(p * p):
            w = ctx.w_from_int(n)
            r = w.residue()
            if r.is_zero() or r == ctx.one:
                continue
            wp = witt_decompose(w)
            assert build_A_closed(ctx, wp.lam0, wp.lam1).A == build_A_primitive(ctx, w).A


def test_closed_equals_primitive_quadratic_field_twisted_only():
    ctx = make_context(3, 2)
    for w in ctx.witt_elements():
        r = w.residue()
        if r.is_zero() or r == ctx.one:
            continue
        tw = witt_decompose(w)
        assert build_A_closed(ctx, tw.lam0, tw.lam1).A == build_A_primitive(ctx, w).A


def test_degree_bound_and_top_cancellation_random():
    rng = random.Random(123)
    primes = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
    for _ in range(200):
        p = rng.choice(primes)
        ctx = make_context(p, 1)
        while True:
            w = ctx.w_from_int(rng.randrange(p * p))
            r = w.residue()
            if not (r.is_zero() or r == ctx.one):
                break
        a = build_A_primitive(ctx, w).A
        assert a.degree <= 2 * p - 1


def test_binomial_scalar_identity():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for i in range(1, p):
            assert binomial_over_p(p, i) == comb(p, i) // p % p


@pytest.mark.parametrize("p", [3, 5, 97, 9973])
def test_binomials_mod_p2_match_exact_binomials(p):
    assert binomials_mod_p2(p).tolist() == [comb(p, k) % p ** 2 for k in range(p + 1)]


def test_unit_is_nonzero_and_correct():
    ctx = make_context(3, 1)
    co = build_A_primitive(ctx, ctx.w_from_int(-1))
    assert co.unit == ctx.f_from_int(2)  # 1 - 2^3 = -7 = 2 mod 3
    assert not co.unit.is_zero()


def test_laurent_form_of_the_cocycle():
    # a = A/(u z^p): for the periodic micro-case, (z^5+2z)/(2z^3) = 2z^2 + z^-2
    ctx = make_context(3, 1)
    co = build_A_primitive(ctx, ctx.w_from_int(-1))
    a = PoleFraction(co.A.scale(co.unit.inverse()), ctx.p, 0)
    assert a == PoleFraction(P(ctx, 1, 0, 0, 0, 2), 2, 0)   # (2z^4 + 1)/z^2
    assert a != PoleFraction(P(ctx, 1, 0, 0, 0, 2), 3, 0)


def test_transition_shape_and_determinant():
    ctx = make_context(3, 1)
    co = build_A_primitive(ctx, ctx.w_from_int(-1))
    m = build_transition(co)
    # the one stored entry is A/u
    assert m.lower_left == co.A.scale(co.unit.inverse())
    (top, zero), (low, diag) = transition_fractions(m)
    assert zero.is_zero()
    assert top == PoleFraction(z_minus_one_pow(ctx, 3))
    assert diag == PoleFraction(Poly.one(ctx), 0, 3)
    assert top * diag - zero * low == PoleFraction(Poly.one(ctx))
    # lower-left is a(z-1)^-p with a = (z^5+2z)/(2 z^3)
    expect = PoleFraction(P(ctx, 0, 2, 0, 0, 0, 1).scale(ctx.f_from_int(2)), 3, 3)
    assert low == expect


def test_transition_poles_confined():
    # no pole outside {0, 1, infinity}: M~ = z^p (z-1)^p M has polynomial
    # entries, and its diagonal is z^p (z-1)^(2p) and z^p for every cocycle
    ctx = make_context(5, 1)
    co = build_A_primitive(ctx, ctx.w_from_int(3))
    m = build_transition(co)
    (top, zero), (low, diag) = transition_fractions(m)
    for e in (top, zero, low, diag):
        assert (e.a, e.b) == (5, 5) and isinstance(e.num, Poly)
    assert top.num == z_minus_one_pow(ctx, 10).shift(5) and diag.num == Poly.monomial(ctx, 5)
    # (z-1)^p: a zero of order p at 1
    assert top == PoleFraction(Poly.one(ctx), 0, -ctx.p)
    assert order_at_one(top.num) == 2 * ctx.p
