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
from .criterion import SplittingType
from .errors import ProfileMismatch, UnstableDimension
from .fields import ReductionContext, WittRingElement
from .linalg import FqMatrix, mat_rank
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


def _h0_dimension(problem: SectionSpaceProblem, a_shift: Poly, uzp: Poly) -> int:
    """Nullity of the ansatz system; a_shift is A and uzp is u*z^p, in s."""
    ctx = problem.matrix.cocycle.ctx
    p = ctx.p
    m = problem.twist
    bound = problem.bound

    n_conditions = bound + p - m
    b1_orders = range(0, m + p + 1) if m + p >= 0 else range(0)
    b2_orders = range(0, bound + 1)
    n_unknowns = len(b1_orders) + len(b2_orders)

    arr = np.zeros((n_conditions, n_unknowns, ctx.d), dtype=np.int64)

    def fill(col: int, poly: Poly, shift: int):
        # contribution poly(s) * s^shift, truncated to s^0..s^(C-1)
        lo = max(shift, 0)
        seg = poly.v[lo - shift: max(n_conditions - shift, 0)]
        arr[lo: lo + len(seg), col] = seg

    col = 0
    for k in b1_orders:          # b1 principal part (z-1)^(-k) -> A * s^(B-k)
        fill(col, a_shift, bound - k)
        col += 1
    for k in b2_orders:          # b2 principal part -> u z^p * s^(B-k)
        fill(col, uzp, bound - k)
        col += 1

    rank = mat_rank(FqMatrix(ctx, arr))
    return n_unknowns - rank


def h0_of_twist(m: TransitionMatrix, twist: int, bound: int | None = None) -> int:
    """Dimension of the twisted global-section space.

    The ansatz bound defaults to 2p + |twist| + 4; the computed dimension
    must not change when the bound grows by 2, otherwise the ansatz was
    too small and UnstableDimension is raised.
    """
    ctx = m.cocycle.ctx
    p = ctx.p
    b = bound if bound is not None else 2 * p + abs(twist) + 4
    a_shift = m.cocycle.A.taylor_at_one()
    # u * z^p = u * (s+1)^p = u * (1 + s^p) in characteristic p
    uzp = (Poly.one(ctx) + Poly.monomial(ctx, p)).scale(m.cocycle.unit)
    dim = _h0_dimension(SectionSpaceProblem(matrix=m, twist=twist, bound=b), a_shift, uzp)
    dim_again = _h0_dimension(SectionSpaceProblem(matrix=m, twist=twist, bound=b + 2),
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
    h = {0: h0_of_twist(trans, 0), -1: h0_of_twist(trans, -1)}
    s = h[0]
    if s >= 3:
        n = s - 1
    elif s == 2:
        n = 1 if h[-1] == 1 else 0
    else:
        raise ProfileMismatch(f"h0 at twist 0 is {s}, below any split value")
    for m in range(-1, n + 2):
        if m not in h:
            h[m] = h0_of_twist(trans, m)
        if h[m] != _expected_h0(n, m):
            raise ProfileMismatch(
                f"h0({m}) = {h[m]} but a split bundle with n = {n} "
                f"needs {_expected_h0(n, m)}")
    return SplittingType.of(n, "cech")
