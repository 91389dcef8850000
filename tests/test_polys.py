import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higgsflow.errors import (DivisionByZeroPoly, InternalDivisibilityFailure,
                             InternalError, InternalInvariantFailure)
from higgsflow.fields import make_context
from higgsflow.polys import (Poly, PoleFraction, divrem_z_minus_one_2p, poly_divexact,
                             poly_divrem, poly_ext_gcd, z_minus_one_pow)


def P(ctx, *ints):
    return Poly.from_ints(ctx, ints)


def test_divrem_example_frobenius_power():
    ctx = make_context(3, 1)
    q, r = poly_divrem(Poly.monomial(ctx, 6), z_minus_one_pow(ctx, 6))
    assert q == Poly.one(ctx)
    assert r == P(ctx, 2, 0, 0, 2)  # 2z^3 + 2


def test_divrem_small_dividend():
    ctx = make_context(3, 1)
    f = P(ctx, 0, 2, 0, 0, 0, 1)  # z^5 + 2z
    q, r = poly_divrem(f, z_minus_one_pow(ctx, 6))
    assert q.is_zero() and r == f


@pytest.mark.parametrize("p, d", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (401, 1)])
def test_block_division_matches_school_division(p, d):
    ctx = make_context(p, d)
    rng = random.Random(p * 10 + d)
    d2 = z_minus_one_pow(ctx, 2 * p)
    lengths = [0, 2 * p - 1, 2 * p, 2 * p + 1, 3 * p, 4 * p + 1]
    lengths += [rng.randrange(5 * p) for _ in range(6)]
    for n in lengths:
        rows = [[rng.randrange(p) for _ in range(d)] for _ in range(n)]
        if n:
            rows[-1][0] = rng.randrange(1, p)
        f = Poly(ctx, rows)
        assert len(f.v) == n
        assert divrem_z_minus_one_2p(f) == poly_divrem(f, d2), (p, d, n)


def test_divrem_by_zero():
    ctx = make_context(3, 1)
    with pytest.raises(DivisionByZeroPoly):
        poly_divrem(Poly.one(ctx), Poly.zero(ctx))


def test_division_by_zero_is_internal_error():
    # no valid input divides by the zero polynomial: a bug, not bad input
    assert issubclass(DivisionByZeroPoly, InternalError)


def test_lead_of_zero_is_internal_failure():
    ctx = make_context(5, 1)
    with pytest.raises(InternalInvariantFailure, match="leading coefficient"):
        Poly.zero(ctx).lead()


def test_ext_gcd_of_two_zeros_is_internal_failure():
    ctx = make_context(5, 1)
    with pytest.raises(InternalInvariantFailure, match="two zero polynomials"):
        poly_ext_gcd(Poly.zero(ctx), Poly.zero(ctx))


def test_inexact_shift_is_internal_failure():
    ctx = make_context(5, 1)
    assert P(ctx, 0, 0, 3, 1).shift(-2) == P(ctx, 3, 1)
    with pytest.raises(InternalDivisibilityFailure, match=r"z\^2"):
        P(ctx, 0, 1, 3).shift(-2)


def test_divexact_inexact_is_internal_failure():
    ctx = make_context(5, 1)
    assert poly_divexact(P(ctx, 4, 0, 1), P(ctx, 1, 1)) == P(ctx, 4, 1)
    with pytest.raises(InternalDivisibilityFailure, match="inexact"):
        poly_divexact(P(ctx, 0, 1), P(ctx, 1, 1))        # z / (z + 1)


@pytest.mark.parametrize("p,d", [(3, 1), (5, 2), (7, 1), (23, 1)])
def test_z_minus_one_pow_matches_binomials(p, d):
    # k with one, two and three base-p digits, on either side of each carry
    ctx = make_context(p, d)
    for k in sorted({*range(2 * p + 2), p * p - 1, p * p, p * p + p + 1,
                     2 * p * p - 1, 3 ** 7 + 1}):
        ref = Poly.from_ints(ctx, (comb(k, j) * (-1) ** (k - j) for j in range(k + 1)))
        assert z_minus_one_pow(ctx, k) == ref, k


def test_ext_gcd_example():
    ctx = make_context(3, 1)
    f, g = P(ctx, 2, 0, 1), P(ctx, 1, 1, 1)
    d, u, v = poly_ext_gcd(f, g)
    assert d == P(ctx, 2, 1)  # z - 1
    assert u * f + v * g == d


def test_ext_gcd_with_zero():
    ctx = make_context(5, 1)
    f = P(ctx, 1, 2, 3)
    d, u, v = poly_ext_gcd(f, Poly.zero(ctx))
    assert d == f.scale(f.lead().inverse())
    assert u == Poly.from_ints(ctx, [pow(3, 3, 5)]) and v.is_zero()


def test_ext_gcd_coprime_pair():
    ctx = make_context(5, 1)
    f, g = P(ctx, 1, 1), P(ctx, 2, 0, 1)
    d, u, v = poly_ext_gcd(f, g)
    assert d == Poly.one(ctx)
    assert u * f + v * g == d


coeff_field = st.sampled_from([3, 5, 7])
DEGREES = (1, 2)


def random_poly(ctx, rng, max_len, min_len=0):
    return Poly.from_elements(ctx, [ctx.f_from_index(rng.randrange(ctx.q))
                                    for _ in range(rng.randrange(min_len, max_len + 1))])


@st.composite
def poly_pair(draw):
    p = draw(coeff_field)
    ctx = make_context(p, draw(st.sampled_from(DEGREES)))
    index = st.integers(0, ctx.q - 1)
    f = Poly.from_elements(ctx, map(ctx.f_from_index, draw(st.lists(index, max_size=12))))
    g = Poly.from_elements(ctx, map(ctx.f_from_index,
                                    draw(st.lists(index, min_size=1, max_size=8))))
    return f, g


@given(poly_pair())
@settings(max_examples=300, deadline=None)
def test_divrem_reconstruction(pair):
    f, g = pair
    if g.is_zero():
        return
    q, r = poly_divrem(f, g)
    assert q * g + r == f
    assert r.degree < g.degree


@given(poly_pair())
@settings(max_examples=300, deadline=None)
def test_ext_gcd_bezout(pair):
    f, g = pair
    if f.is_zero() and g.is_zero():
        return
    d, u, v = poly_ext_gcd(f, g)
    assert u * f + v * g == d
    if not d.is_zero():
        assert d.lead() == d.ctx.one


def test_divrem_and_bezout_bulk_random():
    rng = random.Random(314159)
    for _ in range(1000 * len(DEGREES)):
        ctx = make_context(rng.choice((3, 5, 7)), rng.choice(DEGREES))
        f = random_poly(ctx, rng, 11)
        g = random_poly(ctx, rng, 8, min_len=1)
        if not g.is_zero():
            q, r = poly_divrem(f, g)
            assert q * g + r == f and r.degree < g.degree
        if f.is_zero() and g.is_zero():
            continue
        d, u, v = poly_ext_gcd(f, g)
        assert u * f + v * g == d


def _horner(poly, x):
    """Value at x by FieldElement arithmetic on the coefficient list."""
    acc = x.ctx.zero
    for c in reversed(poly.coeffs()):
        acc = acc * x + c
    return acc


@pytest.mark.parametrize("p,d", [(3, 1), (7, 1), (3, 2), (5, 2)])
def test_array_ops_match_pointwise_field_arithmetic(p, d):
    # every array operation against scalar arithmetic at every point of F_q
    ctx = make_context(p, d)
    rng = random.Random(p * 10 + d)
    one = ctx.one
    for _ in range(6):
        f = random_poly(ctx, rng, 9)
        g = random_poly(ctx, rng, 6, min_len=1)
        if g.is_zero():
            g = Poly.one(ctx)
        c = ctx.f_from_index(rng.randrange(ctx.q))
        q, r = poly_divrem(f, g)
        k = rng.randrange(3)
        fk = f * z_minus_one_pow(ctx, k)
        q1, j = fk.divide_out_one(k + 1)
        assert f.is_zero() or j >= k
        taylor = f.taylor_at_one()
        for x in ctx.field_elements():
            fx, gx = _horner(f, x), _horner(g, x)
            assert _horner(f * g, x) == fx * gx
            assert _horner(f + g, x) == fx + gx
            assert _horner(f - g, x) == fx - gx
            assert _horner(-f, x) == -fx
            assert _horner(f.scale(c), x) == c * fx
            assert _horner(q, x) * gx + _horner(r, x) == fx
            assert _horner(q1, x) * (x - one) ** j == _horner(fk, x)
            assert _horner(taylor, x - one) == fx


def test_degree_sentinel():
    ctx = make_context(3, 1)
    assert Poly.zero(ctx).degree == float("-inf")
    assert Poly.one(ctx).degree == 0


def test_taylor_and_order_at_one():
    ctx = make_context(5, 1)
    f = z_minus_one_pow(ctx, 3) * P(ctx, 2, 1)
    assert f.order_at_one() == 3
    shifted = f.taylor_at_one()
    assert shifted.coeff(0) == ctx.zero and shifted.coeff(2) == ctx.zero
    # f(s+1) = s^3 (s + 3): coefficient of s^3 is 3
    assert shifted.coeff(3) == ctx.f_from_int(3)


def test_pole_fraction_arithmetic_and_normalization():
    ctx = make_context(3, 1)
    f = PoleFraction(P(ctx, 0, 1), 1, 0)      # z / z = 1
    assert f == PoleFraction(Poly.one(ctx))
    g = PoleFraction(z_minus_one_pow(ctx, 2), 0, 1)  # (z-1)^2/(z-1) = z-1
    assert g == PoleFraction(z_minus_one_pow(ctx, 1))
    h = PoleFraction(Poly.one(ctx), 0, -2)    # negative order multiplies in
    assert h == PoleFraction(z_minus_one_pow(ctx, 2))
    a = PoleFraction(P(ctx, 1), 1, 0)   # 1/z
    b = PoleFraction(P(ctx, 1), 0, 1)   # 1/(z-1)
    s = a + b                           # (2z - 1)/(z(z-1))
    assert s == PoleFraction(P(ctx, 2, 2), 1, 1)
    assert (a * b) == PoleFraction(P(ctx, 1), 1, 1)
    assert (s - s).is_zero()

