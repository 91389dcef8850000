"""Brute-force splitting detection via global-section dimensions.

A global section of the glued bundle, twisted to allow a pole of order m
at z = 1, is a pair (v_alpha, v_beta) of rational 2-vectors with
v_alpha = M v_beta, v_beta regular away from {1, lam0} and v_alpha regular
away from {0, infinity} apart from the allowed pole.  The gluing matrix is
invertible at z = lam0, so a section can have no pole there either; the
ansatz therefore carries principal parts at z = 1 only.  Writing
everything in powers of s = z - 1 turns the regularity constraints into a
linear system, whose nullity is the section dimension h0.

Every twist at one bound comes from one elimination: raising the twist
drops conditions from the end of the system and adds unknowns at its end,
so each twist's system is a leading block of one ansatz.

This oracle touches neither the criterion matrix nor the factorization:
it is deliberately naive and serves as the ground truth the two fast
methods are validated against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cocycle import TransitionMatrix, build_A_primitive, build_transition
from .criterion import SplittingType, _windows
from .errors import ProfileMismatch, UnstableDimension
from .fields import ReductionContext, WittRingElement
from .linalg import FqMatrix, mat_leading_ranks
# unused here; kept because perfbench/hooks.py patches it by name in this module
from .linalg import mat_rank  # noqa: F401
from .polys import Poly


@dataclass(frozen=True)
class SectionSpaceProblem:
    """Finite-dimensional ansatz for sections of one twist of the bundle."""

    matrix: TransitionMatrix
    twist: int
    bound: int

    def __post_init__(self):
        p = self.matrix.cocycle.ctx.p
        if self.bound < 2 * p + abs(self.twist) + 2:
            raise ValueError("ansatz bound below the safe minimum 2p + |m| + 2")


def _h0_at_bound(ctx: ReductionContext, series: tuple[Poly, Poly], bound: int,
                 twists: range) -> list[int]:
    """h0 of each twist in twists at one ansatz bound, from one elimination;
    series is :func:`series_at_one` of the transition matrix.

    Row i is the condition on s^i, and twist t keeps the first bound+p-t
    rows.  The columns are u*z^p*s^(bound-k) for k = 0..bound, which every
    twist shares, then A*s^(bound-k) for k = 0..t+p, which twist t keeps.
    So every twist's system is a leading block (see mat_leading_ranks).
    """
    a_shift, uzp = series
    p = ctx.p
    n_conditions = bound + p - twists[0]

    def toeplitz(poly: Poly, n_cols: int) -> np.ndarray:
        # column k is poly * s^(bound-k) on s^0..s^(n_conditions-1): window k
        # of poly with bound zeros in front
        padded = np.zeros((n_cols + n_conditions, ctx.d), np.int64)
        seg = poly.v[: len(padded) - bound]
        padded[bound: bound + len(seg)] = seg
        return _windows(padded, n_conditions)[:n_cols].transpose(1, 0, 2)

    arr = np.concatenate([toeplitz(uzp, bound + 1),
                          toeplitz(a_shift, max(twists[-1] + p + 1, 0))], axis=1)
    n_unknowns = [bound + 1 + max(t + p + 1, 0) for t in twists]
    ranks = mat_leading_ranks(FqMatrix(ctx, arr),
                              [(bound + p - t, n) for t, n in zip(twists, n_unknowns)])
    return [n - r for n, r in zip(n_unknowns, ranks)]


def _h0_profile(ctx: ReductionContext, series: tuple[Poly, Poly], bound: int,
                twists: range) -> dict[int, int]:
    """h0 of each twist at the bound, which must not change at bound + 2:
    otherwise the ansatz was too small and UnstableDimension is raised."""
    dims = _h0_at_bound(ctx, series, bound, twists)
    for t, dim, dim_again in zip(twists, dims, _h0_at_bound(ctx, series, bound + 2, twists)):
        if dim != dim_again:
            raise UnstableDimension(
                f"h0({t}) changed from {dim} to {dim_again} when the bound grew; raise it")
    return dict(zip(twists, dims))


def series_at_one(m: TransitionMatrix) -> tuple[Poly, Poly]:
    """A and u*z^p in powers of s = z - 1, the two columns of every ansatz."""
    ctx = m.cocycle.ctx
    # u * z^p = u * (s+1)^p = u * (1 + s^p) in characteristic p
    uzp = (Poly.one(ctx) + Poly.monomial(ctx, ctx.p)).scale(m.cocycle.unit)
    return m.cocycle.A.taylor_at_one(), uzp


def h0_of_twist(m: TransitionMatrix, twist: int, bound: int | None = None, *,
                series: tuple[Poly, Poly] | None = None) -> int:
    """Dimension of the twisted global-section space.

    The ansatz bound defaults to 2p + |twist| + 4; the computed dimension
    must not change when the bound grows by 2, otherwise the ansatz was
    too small and UnstableDimension is raised.  series is
    :func:`series_at_one` of m, computed here when not given.
    """
    p = m.cocycle.ctx.p
    b = bound if bound is not None else 2 * p + abs(twist) + 4
    SectionSpaceProblem(matrix=m, twist=twist, bound=b)  # rejects a bound below the minimum
    series = series if series is not None else series_at_one(m)
    return _h0_profile(m.cocycle.ctx, series, b, range(twist, twist + 1))[twist]


def _expected_h0(n: int, m: int) -> int:
    return max(0, m + 1 - n) + max(0, m + 1 + n)


def splitting_from_cech(ctx: ReductionContext, lam: WittRingElement) -> SplittingType:
    """Splitting integer from the h0 profile of the glued bundle.

    h0 at twist 0 determines n except for the 2-dimensional ambiguity
    between n = 0 and n = 1, which twist -1 resolves.  One ansatz per bound
    gives twists -1 .. 2, enough for n and, when n <= 1, for its profile
    over twists -1 .. n+1; a larger n rebuilds the ansatz up to twist n+1.
    Every twist computed is checked against the split-bundle formula
    max(0, m+1-n) + max(0, m+1+n); any deviation means a bug somewhere and
    raises ProfileMismatch.
    """
    cocycle = build_A_primitive(ctx, lam)
    trans = build_transition(cocycle)
    series = series_at_one(trans)

    def profile(top: int) -> dict[int, int]:
        # twists -1 .. top at h0_of_twist's default bound for the top twist
        return _h0_profile(ctx, series, 2 * ctx.p + top + 4, range(-1, top + 1))

    h = profile(2)
    s = h[0]
    if s >= 3:
        n = s - 1
    elif s == 2:
        n = 1 if h[-1] == 1 else 0
    else:
        raise ProfileMismatch(f"h0 at twist 0 is {s}, below any split value")
    if n >= 2:
        h = profile(n + 1)
    for m, dim in h.items():
        if dim != _expected_h0(n, m):
            raise ProfileMismatch(
                f"h0({m}) = {dim} but a split bundle with n = {n} "
                f"needs {_expected_h0(n, m)}")
    return SplittingType.of(n, "cech")
