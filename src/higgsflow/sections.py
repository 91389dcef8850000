"""Brute-force splitting detection via global-section dimensions.

A global section of the glued bundle, twisted to allow a pole of order m
at z = 1, is a pair (v_alpha, v_beta) of rational 2-vectors with
v_alpha = M v_beta, v_beta regular away from {1, lam0} and v_alpha regular
away from {0, infinity} apart from the allowed pole.  The gluing matrix is
invertible at z = lam0, so a section can have no pole there either; the
ansatz therefore carries principal parts at z = 1 only.  Writing
everything in powers of s = z - 1 turns the regularity constraints into a
linear system, whose nullity is the section dimension h0.

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


def _h0_dimensions(problem: SectionSpaceProblem, a_shift: Poly, uzp: Poly) -> tuple[int, int]:
    """Nullities of the ansatz system at the bounds b and b+2, where b is
    the problem's bound; a_shift is A and uzp is u*z^p, in s.

    Only the bound-(b+2) system is built, with the conditions on s^0 and
    s^1 moved last.  Its columns are those of the bound-b system times s^2,
    then u*z^p*s and u*z^p; the first ones all have s-order >= 2, since
    b >= 2p + |m| + 2, so the bound-b system is its leading block and one
    elimination gives both ranks (see mat_leading_ranks).
    """
    ctx = problem.matrix.cocycle.ctx
    p = ctx.p
    m = problem.twist
    bound = problem.bound + 2

    n_conditions = bound + p - m
    n_b1 = max(m + p + 1, 0)     # b1 principal parts (z-1)^(-k), k = 0..m+p
    n_b2 = bound + 1             # b2 principal parts, k = 0..bound

    def toeplitz(poly: Poly, n_cols: int) -> np.ndarray:
        # column k is poly * s^(bound-k) on s^0..s^(n_conditions-1): window k
        # of poly with bound zeros in front
        padded = np.zeros((n_cols + n_conditions, ctx.d), np.int64)
        seg = poly.v[: len(padded) - bound]
        padded[bound: bound + len(seg)] = seg
        return _windows(padded, n_conditions)[:n_cols].transpose(1, 0, 2)

    arr = np.concatenate([toeplitz(a_shift, n_b1), toeplitz(uzp, n_b2)], axis=1)
    n_unknowns = n_b1 + n_b2
    ranks = mat_leading_ranks(FqMatrix(ctx, np.roll(arr, -2, axis=0)),
                              [(n_conditions - 2, n_unknowns - 2), (n_conditions, n_unknowns)])
    return n_unknowns - 2 - ranks[0], n_unknowns - ranks[1]


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
    :func:`series_at_one` of m, computed here when not given, so that one
    row expands A once for all its twists.
    """
    p = m.cocycle.ctx.p
    b = bound if bound is not None else 2 * p + abs(twist) + 4
    a_shift, uzp = series if series is not None else series_at_one(m)
    dim, dim_again = _h0_dimensions(SectionSpaceProblem(matrix=m, twist=twist, bound=b),
                                    a_shift, uzp)
    if dim != dim_again:
        raise UnstableDimension(
            f"h0 changed from {dim} to {dim_again} when the bound grew; raise it")
    return dim


def _expected_h0(n: int, m: int) -> int:
    return max(0, m + 1 - n) + max(0, m + 1 + n)


def splitting_from_cech(ctx: ReductionContext, lam: WittRingElement) -> SplittingType:
    """Splitting integer from the h0 profile of the glued bundle.

    h0 at twist 0 determines n except for the 2-dimensional ambiguity
    between n = 0 and n = 1, which twist -1 resolves.  The full profile
    over twists -1 .. n+1 is then checked against the split-bundle formula
    max(0, m+1-n) + max(0, m+1+n); any deviation means a bug somewhere and
    raises ProfileMismatch.
    """
    cocycle = build_A_primitive(ctx, lam)
    trans = build_transition(cocycle)
    series = series_at_one(trans)
    h = {0: h0_of_twist(trans, 0, series=series), -1: h0_of_twist(trans, -1, series=series)}
    s = h[0]
    if s >= 3:
        n = s - 1
    elif s == 2:
        n = 1 if h[-1] == 1 else 0
    else:
        raise ProfileMismatch(f"h0 at twist 0 is {s}, below any split value")
    for m in range(-1, n + 2):
        if m not in h:
            h[m] = h0_of_twist(trans, m, series=series)
        if h[m] != _expected_h0(n, m):
            raise ProfileMismatch(
                f"h0({m}) = {h[m]} but a split bundle with n = {n} "
                f"needs {_expected_h0(n, m)}")
    return SplittingType.of(n, "cech")
