import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higgsflow import polys
from higgsflow.errors import (DivisionByZeroPoly, InternalDivisibilityFailure,
                             InternalError, InternalInvariantFailure)
from higgsflow.fields import make_context
from higgsflow.polys import Poly, divrem_modulus, poly_divexact, poly_divrem, poly_ext_gcd

from certificate_reference import (PoleFraction, modulus_poly, order_at_one, patch_modulus,
                                   second_modulus, times_z_minus_one_pow, z_minus_one_pow)


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


# the last two inputs divide by the second modulus, G = (z^p - 1)(z^p - c)
# with c in F_(p^2) outside F_p
@pytest.mark.parametrize("p, d, c", [
    pytest.param(p, d, None, id=f"{p}-{d}")
    for p, d in ((3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (401, 1))
] + [pytest.param(5, 2, (2, 3), id="5-2-second"), pytest.param(7, 2, (6, 1), id="7-2-second")])
def test_block_division_matches_school_division(monkeypatch, p, d, c):
    ctx = make_context(p, d)
    rng = random.Random(p * 10 + d)
    if c is None:
        G = modulus_poly(ctx, polys.euclid_modulus(ctx))
        assert G == z_minus_one_pow(ctx, 2 * p)
    else:
        g = second_modulus(ctx, c)
        patch_modulus(monkeypatch, lambda ctx: g)
        G = modulus_poly(ctx, g)
    lengths = [0, 2 * p - 1, 2 * p, 2 * p + 1, 3 * p, 4 * p + 1]
    lengths += [rng.randrange(5 * p) for _ in range(6)]
    fs = []
    for n in lengths:
        rows = [[rng.randrange(p) for _ in range(d)] for _ in range(n)]
        if n:
            rows[-1][0] = rng.randrange(1, p)
        fs.append(Poly(ctx, rows))
        assert len(fs[-1].v) == n
    want = [poly_divrem(f, G) for f in fs]
    # each polynomial as a stack of one, then all of them as one zero-padded stack
    for f, qr in zip(fs, want):
        q, r = divrem_modulus(f.v[None], ctx)
        assert (Poly(ctx, q[0]), Poly(ctx, r[0])) == qr, (p, d, len(f.v))
    stack = np.zeros((len(fs), max(lengths), d), np.int64)
    for row, f in zip(stack, fs):
        row[:len(f.v)] = f.v
    q, r = divrem_modulus(stack, ctx)
    assert [(Poly(ctx, x), Poly(ctx, y)) for x, y in zip(q, r)] == want, (p, d)


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
        assert f.is_zero() or order_at_one(f * z_minus_one_pow(ctx, k)) >= k
        taylor = f.taylor_at_one()
        for x in ctx.field_elements():
            fx, gx = _horner(f, x), _horner(g, x)
            assert _horner(f * g, x) == fx * gx
            assert _horner(f + g, x) == fx + gx
            assert _horner(f - g, x) == fx - gx
            assert _horner(-f, x) == -fx
            assert _horner(f.scale(c), x) == c * fx
            assert _horner(q, x) * gx + _horner(r, x) == fx
            assert _horner(taylor, x - one) == fx


def test_degree_sentinel():
    ctx = make_context(3, 1)
    assert Poly.zero(ctx).degree == float("-inf")
    assert Poly.one(ctx).degree == 0


def test_taylor_and_order_at_one():
    ctx = make_context(5, 1)
    f = z_minus_one_pow(ctx, 3) * P(ctx, 2, 1)
    assert order_at_one(f) == 3
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
    h = PoleFraction(Poly.one(ctx), 0, -2)    # a negative order is a zero at 1
    assert h == PoleFraction(z_minus_one_pow(ctx, 2))
    a = PoleFraction(P(ctx, 1), 1, 0)   # 1/z
    b = PoleFraction(P(ctx, 1), 0, 1)   # 1/(z-1)
    s = a + b                           # (2z - 1)/(z(z-1))
    assert s == PoleFraction(P(ctx, 2, 2), 1, 1)
    assert (a * b) == PoleFraction(P(ctx, 1), 1, 1)
    assert (s - s).is_zero()


@pytest.mark.parametrize("p, d", [(5, 1), (7, 1), (3, 2), (5, 2)])
def test_times_z_minus_one_pow_matches_product(p, d):
    # digit by digit against the product with (z-1)^k from the binomials
    ctx = make_context(p, d)
    rng = random.Random(p * 10 + d)
    for k in (0, 1, p - 1, p, 2 * p + 1, p * p + p + 1):
        for f in [Poly.zero(ctx)] + [random_poly(ctx, rng, 9, min_len=1) for _ in range(4)]:
            assert times_z_minus_one_pow(f, k) == f * z_minus_one_pow(ctx, k), (k, f)


def _value(x, pt):
    """A pole fraction's value at a point outside {0, 1}, by field arithmetic."""
    at_one = (pt - pt.ctx.one) ** abs(x.b)
    if x.b > 0:
        at_one = at_one.inverse()
    return _horner(x.num, pt) * (pt ** x.a).inverse() * at_one


@pytest.mark.parametrize("p, d", [(7, 1), (3, 2)])
def test_pole_fraction_signed_order_at_one(p, d):
    # sums, products and equality where b takes either sign, against values
    # at every point of F_q outside {0, 1}, and against b >= 0 forms built
    # with an explicit (z-1)^(-b)
    ctx = make_context(p, d)
    rng = random.Random(p + d)
    points = [x for x in ctx.field_elements() if not (x.is_zero() or x == ctx.one)]

    def nonneg(x):
        if x.b >= 0:
            return x
        return PoleFraction(x.num * z_minus_one_pow(ctx, -x.b), x.a, 0)

    fractions = [PoleFraction(random_poly(ctx, rng, 6), rng.randrange(3), rng.randrange(-4, 5))
                 for _ in range(12)]
    for x in fractions:
        assert x == nonneg(x) and nonneg(x) == x
        assert x.times_z_minus_one_pow(3).times_z_minus_one_pow(-3) == x
        for y in fractions:
            s, m = x + y, x * y
            assert s == nonneg(x) + nonneg(y)
            assert m == nonneg(x) * nonneg(y)
            assert (x == y) == (x - y).is_zero() == (nonneg(x) - nonneg(y)).is_zero()
            for pt in points:
                assert _value(s, pt) == _value(x, pt) + _value(y, pt)
                assert _value(m, pt) == _value(x, pt) * _value(y, pt)
    # the same function with zeros at 1 of different orders
    f = P(ctx, 2, 1)
    assert PoleFraction(f * z_minus_one_pow(ctx, 3), 0, 1) == PoleFraction(f, 0, -2)
    assert PoleFraction(f, 0, -2) != PoleFraction(f, 0, -1)
    assert PoleFraction(f, 0, -2) != PoleFraction.zero(ctx)
    assert PoleFraction.zero(ctx) + PoleFraction(f, 0, -2) == PoleFraction(f, 0, -2)
