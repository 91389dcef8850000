"""Brute-force splitting detection via global-section dimensions.

A global section of the glued bundle, twisted to allow a pole of order m
at z = 1, is a pair (v_alpha, v_beta) of rational 2-vectors with
v_alpha = M v_beta, v_beta regular away from {1, lam0} and v_alpha regular
away from {0, infinity} apart from the allowed pole.  The gluing matrix is
invertible at z = lam0, so a section can have no pole there either; the
ansatz therefore carries principal parts at z = 1 only.  Writing
everything in powers of s = z - 1 turns the regularity constraints into a
linear system, whose nullity is the section dimension h0.  Only the
cocycle numerator A and the unit u of M enter that system, so the oracle
reads them from the cocycle and builds no gluing matrix.  It reads a
field's cocycles as arrays: the Taylor series of all their A at z = 1
come from one stacked shift (:func:`series_at_one`), and each bound's
ansatzes are written from those stacks with array assignments, so the
oracle builds no polynomial.

Every twist at one bound comes from one elimination: raising the twist
drops conditions from the end of the system and adds unknowns at its end,
so each twist's system is a leading block of one ansatz.  Every row of a
sweep at one prime has an ansatz of the same shape at a given bound, so
the ansatzes of all of them are one stack, eliminated together
(``splittings_from_cech``).

This oracle touches neither the criterion matrix nor the factorization:
it is deliberately naive and serves as the ground truth the two fast
methods are validated against.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cocycle import CocyclePolynomial
from .criterion import SplittingType
from .errors import ProfileMismatch, UnstableDimension
from .fields import ReductionContext
from .linalg import _residue_dtype, blowup_leading_ranks, stack_slices
# unused here; kept because perfbench/hooks.py patches them by name in this module
from .cocycle import build_A_primitive, build_transition  # noqa: F401
from .linalg import mat_rank  # noqa: F401
from .polys import _coefficients, taylor_at_one


def _h0_at_bound(ctx: ReductionContext, series: tuple[np.ndarray, np.ndarray], bound: int,
                 twists: range) -> np.ndarray:
    """h0 of each twist in twists (columns) at one ansatz bound, for each
    cocycle (rows) of the stacked :func:`series_at_one` in series, from one
    elimination of a stack of their ansatzes.

    Row i is the condition on s^i, and twist t keeps the first bound+p-t
    rows.  The columns are u*z^p*s^(bound-k) for k = 0..bound, which every
    twist shares, then A*s^(bound-k) for k = 0..t+p, which twist t keeps.
    So every twist's system is a leading block (see
    ``linalg.blowup_leading_ranks``).  Column k of a block holds its series
    from s^(k-bound) on, so entry (i, k) is entry i+k of the series with
    bound zeros in front: a window view of that table.  Each slice of
    ``linalg.stack_slices`` writes its tables, blows them up (each entry
    its ``ctx.mul_matrix``) and copies the window views into the stack the
    kernel eliminates, one array assignment per column kind for the whole
    slice.
    """
    p, d = ctx.p, ctx.d
    n_conditions = bound + p - twists[0]
    widths = (bound + 1, max(twists[-1] + p + 1, 0))     # u*z^p columns, A columns
    cols = sum(widths)
    n_unknowns = np.array([bound + 1 + max(t + p + 1, 0) for t in twists])
    shapes = [(bound + p - t, n) for t, n in zip(twists, n_unknowns)]
    a, uzp = series

    def ranks(part: slice) -> np.ndarray:
        n = len(a[part])
        tables = np.zeros((n, 2, cols + n_conditions, d), np.int64)
        for table, stack in zip(tables.transpose(1, 0, 2, 3), (uzp, a)):
            seg = stack[part, :cols + n_conditions - bound]
            table[:, bound:bound + seg.shape[1]] = seg
        # (n, 2, windows, d, d, n_conditions): window k holds entries k..k+n_conditions-1
        windows = sliding_window_view(ctx.mul_matrix(tables), n_conditions, axis=2)
        out = np.empty((n, n_conditions, d, cols, d), _residue_dtype(p))
        lo = 0
        for kind, width in enumerate(widths):
            # (n, n_conditions, width, d, d): entry (i, k) is table[i + k]
            out.transpose(0, 1, 3, 2, 4)[:, :, lo:lo + width] = (
                windows[:, kind, :width].transpose(0, 4, 1, 2, 3))
            lo += width
        return blowup_leading_ranks(ctx, out.reshape(n, n_conditions * d, cols * d), shapes)

    return n_unknowns - np.concatenate(
        [ranks(part) for part in stack_slices(len(a), n_conditions * cols * d * d)])


def _h0_profile(ctx: ReductionContext, series: tuple[np.ndarray, np.ndarray], bound: int,
                twists: range) -> np.ndarray:
    """h0 of each twist at the bound, for each cocycle of the stacked series,
    which must not change at bound + 2: otherwise the ansatz was too small
    and UnstableDimension is raised."""
    dims = _h0_at_bound(ctx, series, bound, twists)
    again = _h0_at_bound(ctx, series, bound + 2, twists)
    for row, row_again in zip(dims, again):
        for t, dim, dim_again in zip(twists, row, row_again):
            if dim != dim_again:
                raise UnstableDimension(
                    f"h0({t}) changed from {dim} to {dim_again} when the bound grew; "
                    "raise it")
    return dims


def series_at_one(cocycles: list[CocyclePolynomial]) -> tuple[np.ndarray, np.ndarray]:
    """A and u*z^p in powers of s = z - 1, the two columns of every ansatz,
    for every cocycle of a list at one (p, d): an (n, 2p, d) stack of A's
    Taylor coefficients, from one ``polys.taylor_at_one`` of the stack of
    A, and the (n, p+1, d) stack of u*(1 + s^p)."""
    ctx = cocycles[0].ctx
    p = ctx.p
    # u * z^p = u * (s+1)^p = u * (1 + s^p) in characteristic p
    uzp = np.zeros((len(cocycles), p + 1, ctx.d), np.int64)
    uzp[:, 0] = uzp[:, p] = [c.unit.vec for c in cocycles]
    return taylor_at_one(_coefficients([c.A for c in cocycles], 2 * p), p), uzp


def h0_of_twist(cocycle: CocyclePolynomial, twist: int, bound: int | None = None) -> int:
    """Dimension of the twisted global-section space.

    The ansatz bound defaults to 2p + |twist| + 4, and a bound below
    2p + |twist| + 2 raises ValueError; the computed dimension must not
    change when the bound grows by 2, otherwise the ansatz was too small
    and UnstableDimension is raised.
    """
    p = cocycle.ctx.p
    if bound is None:
        bound = 2 * p + abs(twist) + 4
    elif bound < 2 * p + abs(twist) + 2:
        raise ValueError("ansatz bound below the safe minimum 2p + |m| + 2")
    return int(_h0_profile(cocycle.ctx, series_at_one([cocycle]), bound,
                           range(twist, twist + 1))[0, 0])


def _expected_h0(n: int, m: int) -> int:
    return max(0, m + 1 - n) + max(0, m + 1 + n)


def splittings_from_cech(cocycles: list[CocyclePolynomial]) -> list[SplittingType]:
    """Splitting integer of each cocycle, all at one (p, d), from the h0
    profile of its glued bundle.

    h0 at twist 0 determines n except for the 2-dimensional ambiguity
    between n = 0 and n = 1, which twist -1 resolves.  One stack of
    ansatzes per bound gives twists -1 .. 2 of every cocycle, enough for n
    and, when n <= 1, for its profile over twists -1 .. n+1; the cocycles
    with a larger n are rebuilt up to twist n+1, one stack per n.  Every
    twist computed is checked against the split-bundle formula
    max(0, m+1-n) + max(0, m+1+n); any deviation means a bug somewhere and
    raises ProfileMismatch.
    """
    if not cocycles:
        return []
    ctx = cocycles[0].ctx
    series = series_at_one(cocycles)

    def profile(rows: list[int], top: int) -> np.ndarray:
        # twists -1 .. top at h0_of_twist's default bound for the top twist
        return _h0_profile(ctx, tuple(x[rows] for x in series), 2 * ctx.p + top + 4,
                           range(-1, top + 1))

    h = list(profile(list(range(len(cocycles))), 2))
    ns = []
    for dims in h:
        s = dims[1]
        if s >= 3:
            ns.append(int(s) - 1)
        elif s == 2:
            ns.append(1 if dims[0] == 1 else 0)
        else:
            raise ProfileMismatch(f"h0 at twist 0 is {s}, below any split value")
    for n in sorted(set(ns) - {0, 1}):
        rows = [i for i, k in enumerate(ns) if k == n]
        for i, dims in zip(rows, profile(rows, n + 1)):
            h[i] = dims
    for n, dims in zip(ns, h):
        for m, dim in enumerate(dims, start=-1):
            if dim != _expected_h0(n, m):
                raise ProfileMismatch(
                    f"h0({m}) = {dim} but a split bundle with n = {n} "
                    f"needs {_expected_h0(n, m)}")
    return [SplittingType.of(n, "cech") for n in ns]


def splitting_from_cech(cocycle: CocyclePolynomial) -> SplittingType:
    """``splittings_from_cech`` of one cocycle."""
    return splittings_from_cech([cocycle])[0]
