import random

import numpy as np
import pytest

from higgsflow import sections
from higgsflow.cocycle import build_A_primitive
from higgsflow.criterion import splitting_from_T
from higgsflow.errors import ProfileMismatch, UnstableDimension
from higgsflow.factorization import splitting_from_birkhoff
from higgsflow.fields import make_context
from higgsflow.linalg import FqMatrix, mat_rank
from higgsflow.polys import Poly
from higgsflow.sections import h0_of_twist, splitting_from_cech


def _cocycle(ctx, lam_int):
    return build_A_primitive(ctx, ctx.w_from_int(lam_int))


def test_h0_micro_cases():
    ctx = make_context(3, 1)
    m1 = _cocycle(ctx, -1)   # n = 1
    assert h0_of_twist(m1, 0) == 2
    assert h0_of_twist(m1, -1) == 1
    m2 = _cocycle(ctx, 2)    # n = 0
    assert h0_of_twist(m2, -1) == 0
    assert h0_of_twist(m2, 0) == 2


def test_bound_must_respect_minimum():
    ctx = make_context(3, 1)
    m = _cocycle(ctx, -1)
    with pytest.raises(ValueError):
        h0_of_twist(m, 0, bound=2 * 3 + 1)
    # explicit valid bound works and agrees with the default
    assert h0_of_twist(m, 0, bound=2 * 3 + 2) == 2


def test_dimension_stable_in_bound():
    ctx = make_context(5, 1)
    m = _cocycle(ctx, 7)
    base = h0_of_twist(m, 0)
    for extra in (2, 4, 8):
        assert h0_of_twist(m, 0, bound=2 * 5 + 4 + extra) == base


def test_profile_formula_micro_cases():
    ctx = make_context(3, 1)
    st = splitting_from_cech(build_A_primitive(ctx, ctx.w_from_int(-1)))
    assert st.n == 1 and st.periodic and st.method == "cech"
    st = splitting_from_cech(build_A_primitive(ctx, ctx.w_from_int(2)))
    assert st.n == 0 and not st.periodic


def test_h0_growth_profile():
    # non-decreasing, and increments of exactly 2 once m >= n-1
    ctx = make_context(3, 1)
    for lam_int in (-1, 2):
        m = _cocycle(ctx, lam_int)
        n = splitting_from_cech(m).n
        values = [h0_of_twist(m, t) for t in range(-1, n + 3)]
        for a, b in zip(values, values[1:]):
            assert b >= a
        for idx, t in enumerate(range(-1, n + 2)):
            if t >= n - 1:
                assert values[idx + 1] - values[idx] == 2


def test_agreement_with_birkhoff_sampled():
    rng = random.Random(4)
    for p in (3, 5, 7):
        ctx = make_context(p, 1)
        picks = 0
        while picks < 6:
            w = ctx.w_from_int(rng.randrange(p * p))
            r = w.residue()
            if r.is_zero() or r == ctx.one:
                continue
            picks += 1
            co = build_A_primitive(ctx, w)
            assert splitting_from_cech(co).n == splitting_from_birkhoff(co).n


def test_quadratic_field_agreement_sampled():
    ctx = make_context(3, 2)
    rng = random.Random(12)
    picks = 0
    while picks < 5:
        digits = [rng.randrange(9) for _ in range(2)]
        w = ctx.w_from_coeffs(digits)
        r = w.residue()
        if r.is_zero() or r == ctx.one:
            continue
        picks += 1
        co = build_A_primitive(ctx, w)
        assert splitting_from_cech(co).n == splitting_from_birkhoff(co).n


def _h0_naive(cocycle, twist, bound):
    """Nullity of the ansatz at one bound, built in its natural order.

    Conditions are the coefficients of s^0 .. s^(C-1); unknowns the b1
    principal-part orders 0 .. twist+p (column A * s^(bound-k)) and the b2
    orders 0 .. bound (column u*z^p * s^(bound-k)).
    """
    ctx = cocycle.ctx
    p = ctx.p
    a = cocycle.A.taylor_at_one()
    uzp = (Poly.one(ctx) + Poly.monomial(ctx, p)).scale(cocycle.unit)
    n_cond = bound + p - twist
    cols = [(a, bound - k) for k in range(twist + p + 1)]
    cols += [(uzp, bound - k) for k in range(bound + 1)]
    arr = np.zeros((n_cond, len(cols), ctx.d), np.int64)
    for j, (poly, shift) in enumerate(cols):
        for e, coeff in enumerate(poly.v):
            if 0 <= e + shift < n_cond:
                arr[e + shift, j] = coeff
    return len(cols) - mat_rank(FqMatrix(ctx, arr))


def test_h0_at_both_bounds_matches_two_separate_eliminations():
    # every lift at d = 1, p <= 7 and d = 2, p = 3: one ansatz per bound
    # gives twists -1 .. n+2, each checked against its own elimination; the
    # lifts with one n at one (p, d) are one stack
    lifts = 0
    for p, d in ((3, 1), (5, 1), (7, 1), (3, 2)):
        ctx = make_context(p, d)
        by_n = {}
        for w in ctx.witt_elements():
            r = w.residue()
            if r.is_zero() or r == ctx.one:
                continue
            co = build_A_primitive(ctx, w)
            by_n.setdefault(splitting_from_T(co).n, []).append(co)
        for n, cocycles in by_n.items():
            series = sections.series_at_one(cocycles)
            twists = range(-1, n + 3)
            b = 2 * p + twists[-1] + 4
            for bound in (b, b + 2):
                got = sections._h0_at_bound(ctx, series, bound, twists)
                assert got.shape == (len(cocycles), len(twists))
                for cocycle, row in zip(cocycles, got.tolist()):
                    assert row == [_h0_naive(cocycle, t, bound) for t in twists]
            lifts += len(cocycles)
    assert lifts == 116


def test_cech_eliminates_once_per_bound(monkeypatch):
    # n <= 1: twists -1 .. 2 at two bounds; n = 2 (lambda0 = 4 at p = 5)
    # rebuilds up to twist 3 at two more; several cocycles share each stack
    calls = []
    ranks = sections.blowup_leading_ranks

    def counting(ctx, big, shapes):
        calls.append((len(big), len(shapes)))
        return ranks(ctx, big, shapes)

    monkeypatch.setattr(sections, "blowup_leading_ranks", counting)
    ctx = make_context(5, 1)
    cocycles = [build_A_primitive(ctx, ctx.w_from_int(lam_int)) for lam_int in (2, 3, 9)]
    for cocycle, n, want in zip(cocycles, (1, 0, 2), ([4, 4], [4, 4], [4, 4, 5, 5])):
        calls.clear()
        assert splitting_from_cech(cocycle).n == n
        assert calls == [(1, k) for k in want]
    calls.clear()
    assert [st.n for st in sections.splittings_from_cech(cocycles)] == [1, 0, 2]
    assert calls == [(3, 4), (3, 4), (1, 5), (1, 5)]


def test_splittings_from_cech_equal_the_single_rows():
    # every lift at d = 1, p <= 7 and d = 2, p <= 5, all lifts at one (p, d)
    # as one call; p = 5 has n = 2 (lambda0 = 4), which is rebuilt as its
    # own stack
    for p, d in ((3, 1), (5, 1), (7, 1), (3, 2), (5, 2)):
        ctx = make_context(p, d)
        cocycles = [build_A_primitive(ctx, w) for w in ctx.witt_elements()
                    if not (w.residue().is_zero() or w.residue() == ctx.one)]
        stacked = sections.splittings_from_cech(cocycles)
        assert stacked == [splitting_from_cech(c) for c in cocycles]
        if p == 5:
            assert 2 in {st.n for st in stacked}
    assert sections.splittings_from_cech([]) == []


def test_unstable_dimension_is_raised_and_exits_internal(monkeypatch, capsys):
    from higgsflow.cli import main

    h0s = sections._h0_at_bound

    def unstable(ctx, series, bound, twists):
        # every h0 grows with the bound, as if the ansatz were too small
        return [h + bound for h in h0s(ctx, series, bound, twists)]

    monkeypatch.setattr(sections, "_h0_at_bound", unstable)
    ctx = make_context(3, 1)
    with pytest.raises(UnstableDimension, match="when the bound grew"):
        h0_of_twist(_cocycle(ctx, -1), 0)
    with pytest.raises(UnstableDimension, match=r"h0\(-1\)"):
        splitting_from_cech(build_A_primitive(ctx, ctx.w_from_int(-1)))
    assert main(["enumerate", "3", "--methods", "cech"]) == 3
    assert capsys.readouterr().err.startswith("internal error:")


def test_profile_mismatch_is_raised_and_exits_internal(monkeypatch, capsys):
    from higgsflow.cli import main

    h0s = sections._h0_at_bound

    def off_at_twist_one(ctx, series, bound, twists):
        # h0 at twists 0 and -1 still decides n; h0(1) breaks the profile
        return h0s(ctx, series, bound, twists) + (np.array(twists) == 1)

    monkeypatch.setattr(sections, "_h0_at_bound", off_at_twist_one)
    ctx = make_context(3, 1)
    with pytest.raises(ProfileMismatch, match=r"h0\(1\)"):
        splitting_from_cech(build_A_primitive(ctx, ctx.w_from_int(-1)))
    assert main(["enumerate", "3", "--methods", "cech"]) == 3
    assert capsys.readouterr().err.startswith("internal error:")
