"""The explicit matrix criterion for periodicity and the splitting integer.

T is a p x (2p+1) matrix over F_q built from (lam0, lam1); its leading
submatrices T_m ((p-m) x (p+m)) are scanned for the first full-rank index,
which is the splitting integer n.  Periodicity is the pair condition
det T_0 = 0 and rank T_1 = p-1, equivalently n = 1.  Each T_m is a leading
block of T, so one elimination gives the ranks of many of them at once
(``linalg.mat_leading_ranks``).

The remainder system R ties T to the cocycle numerator: row i of R holds
z^i * A reduced mod (z-1)^(2p).  Entrywise, R reproduces T on the left
block, and reflected on the upper band; validate_T_R checks both index
identities on the exact ranges where the band is defined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cocycle import binomial_over_p, build_A_closed
from .errors import DegreeTooLarge, ForbiddenResidue, IndexOutOfRange
from .fields import FieldElement, ReductionContext
from .linalg import FqMatrix, mat_leading_ranks
# unused here; kept because perfbench/hooks.py patches it by name in this module
from .linalg import mat_rank  # noqa: F401
from .polys import Poly


@dataclass(frozen=True)
class CriterionMatrix:
    """T with 1-indexed semantics as documented; storage is 0-indexed."""

    ctx: ReductionContext
    lam0: FieldElement
    lam1: FieldElement
    T: FqMatrix

    @property
    def p(self) -> int:
        return self.ctx.p


@dataclass(frozen=True)
class RemainderSystem:
    """Rows R_i of z^i A mod (z-1)^(2p), i = 0..p."""

    ctx: ReductionContext
    A: Poly
    R: FqMatrix


@dataclass(frozen=True)
class SplittingType:
    """Splitting integer n of the transformed bundle; periodic iff n = 1."""

    n: int
    method: str
    periodic: bool

    @classmethod
    def of(cls, n: int, method: str) -> "SplittingType":
        return cls(n=n, method=method, periodic=(n == 1))


def _check_lam0(lam0: FieldElement) -> None:
    if lam0.is_zero() or lam0 == lam0.ctx.one:
        raise ForbiddenResidue("lam0 must avoid {0, 1}")


def _windows(table: np.ndarray, n: int) -> np.ndarray:
    """Read-only view whose row s is table[s:s+n], shape (len(table)-n+1, n, d)."""
    return np.moveaxis(np.lib.stride_tricks.sliding_window_view(table, n, axis=0), -1, 1)


def build_T(ctx: ReductionContext, lam0: FieldElement, lam1: FieldElement) -> CriterionMatrix:
    """Assemble T from the four-case entry formula.

    With 1-indexed (i, j) and scalars c_k = C(p,k)/p mod p:
      diagonal           lam1
      i > j              (-1)^(i-j+1) c_(i-j)   (1 - lam0^(i-j))
      i < j <= p         (-1)^(j-i+1) c_(p-j+i) (lam0^(p-j+i) - lam0^p)
      p < j <= 2p-i      (-1)^(i+j-p-1) c_(i+j-p-1) (1 - lam0^(i+j-p-1))
      j > 2p-i           0
    """
    _check_lam0(lam0)
    p = ctx.p
    # c_k for k = 0..p, with c_0 = c_p = 0 so the unused ends vanish
    c = np.array([0] + [binomial_over_p(p, k) for k in range(1, p)] + [0], np.int64)
    pw = [ctx.one]
    for _ in range(p):
        pw.append(pw[-1] * lam0)
    pwv = np.array([e.vec for e in pw], np.int64)  # lam0^k, shape (p+1, d)
    one = np.array(ctx.one.vec, np.int64)
    sgn = np.where(np.arange(p + 1) % 2 == 1, 1, -1)  # (-1)^(k+1)
    # k -> (-1)^(k+1) c_k (1 - lam0^k); m -> (-1)^(m+1) c_(p-m) (lam0^(p-m) - lam0^p);
    # m -> (-1)^m c_m (1 - lam0^m)
    lower = (sgn * c)[:, None] * (one - pwv) % p
    upper = (sgn * c[::-1])[:, None] * (pwv[::-1] - pwv[p]) % p
    high = -lower % p
    # the left block is Toeplitz and the band Hankel, so each is one window
    # view of a short table, copied once into T.  With 0-indexed (i, j):
    # T[i, j] = left[j - i + p - 1] for j < p, and T[i, p + k] = band[i + k]
    left = np.concatenate([lower[p - 1:0:-1], np.array([lam1.vec], np.int64), upper[1:p]])
    band = np.concatenate([high[1:p], np.zeros((p, ctx.d), np.int64)])
    T = np.zeros((p, 2 * p + 1, ctx.d), np.int64)
    T[:, :p] = _windows(left, p)[::-1]
    T[:, p:2 * p] = _windows(band, p)
    return CriterionMatrix(ctx=ctx, lam0=lam0, lam1=lam1, T=FqMatrix(ctx, T))


def t_submatrix(tm: CriterionMatrix, m: int) -> FqMatrix:
    """T_m: the first p-m rows and p+m columns, 0 <= m <= p-1."""
    p = tm.p
    if not 0 <= m <= p - 1:
        raise IndexOutOfRange(f"submatrix index {m} outside 0..{p - 1}")
    return tm.T.submatrix(p - m, p + m)


def _t_ranks(tm: CriterionMatrix, ms) -> list[int]:
    """Ranks of T_m for each m in ms, from one elimination of the columns
    of the widest: every T_m is a leading block of T (see mat_leading_ranks)."""
    p = tm.p
    return mat_leading_ranks(tm.T.submatrix(p, p + max(ms)), [(p - m, p + m) for m in ms])


def periodicity_pair(ctx: ReductionContext, lam0: FieldElement,
                     lam1: FieldElement) -> bool:
    """det T_0 = 0 and rank T_1 = p-1 (singularity tested via rank)."""
    p = ctx.p
    r0, r1 = _t_ranks(build_T(ctx, lam0, lam1), (0, 1))
    return r0 < p and r1 == p - 1


def splitting_from_T(ctx: ReductionContext, lam0: FieldElement,
                     lam1: FieldElement) -> SplittingType:
    """First full-rank index of {T_0, ..., T_(p-1)}; n = p when none is.

    One elimination of T's first p+1 columns gives the ranks of T_0 and
    T_1, which decide n <= 1; only when rank T_1 < p-1 does one more
    elimination, of the columns of T_(p-1), give the ranks of the rest.
    """
    tm = build_T(ctx, lam0, lam1)
    p = ctx.p
    r0, r1 = _t_ranks(tm, (0, 1))
    if r0 == p:
        return SplittingType.of(0, "t")
    if r1 == p - 1:
        return SplittingType.of(1, "t")
    ms = range(2, p)
    n = next((m for m, r in zip(ms, _t_ranks(tm, ms)) if r == p - m), p)
    return SplittingType.of(n, "t")


def remainder_system(ctx: ReductionContext, A: Poly) -> RemainderSystem:
    """Rows z^i A mod (z-1)^(2p) for i = 0..p.

    Uses z^(2p) = (z-1)^(2p) + 2 z^p - 1 over F_p, so each row is one shift
    and a two-term correction of the previous one.
    """
    p = ctx.p
    if A.degree > 2 * p - 1:
        raise DegreeTooLarge("cocycle numerator must have degree <= 2p-1")
    arr = np.zeros((p + 1, 2 * p, ctx.d), dtype=np.int64)
    arr[0, : len(A.v)] = A.v
    for i in range(p):
        top = arr[i, -1]
        arr[i + 1, 1:] = arr[i, :-1]
        arr[i + 1, p] = (arr[i + 1, p] + 2 * top) % p
        arr[i + 1, 0] = -top % p
    return RemainderSystem(ctx=ctx, A=A, R=FqMatrix(ctx, arr))


def t_r_first_mismatch(ctx: ReductionContext, lam0: FieldElement, lam1: FieldElement,
                       A: Poly | None = None):
    """First cell violating the R-to-T index identities, or None.

    Identity 1: R[i][j] = T[i+1][j+1] for 0 <= i, j <= p-1.
    Identity 2: R[i][j] = T[i+1][3p-j] on the reflected band, i.e. for
    p+i+1 <= j <= 2p-1 (the 1-indexed column 3p-j then satisfies
    p < 3p-j <= 2p-(i+1), precisely where the upper band of T is defined).
    """
    p = ctx.p
    if A is None:
        A = build_A_closed(ctx, lam0, lam1).A
    r = remainder_system(ctx, A).R
    t = build_T(ctx, lam0, lam1).T
    low_r = r.arr[:p, :p]
    low_t = t.arr[:p, :p]
    if not np.array_equal(low_r, low_t):
        bad = np.nonzero(np.any(low_r != low_t, axis=2))
        i, j = int(bad[0][0]), int(bad[1][0])
        return ("identity1", i, j)
    for i in range(p):
        lo = p + i + 1
        if lo > 2 * p - 1:
            continue
        rhs = t.arr[i, p:2 * p - i - 1][::-1]
        lhs = r.arr[i, lo:2 * p]
        if not np.array_equal(lhs, rhs):
            bad = np.nonzero(np.any(lhs != rhs, axis=1))[0]
            return ("identity2", i, lo + int(bad[0]))
    return None


def validate_T_R(ctx: ReductionContext, lam0: FieldElement, lam1: FieldElement) -> bool:
    """Both index identities hold entrywise for the closed-form A."""
    _check_lam0(lam0)
    return t_r_first_mismatch(ctx, lam0, lam1) is None


def det_T0_in_lam1(ctx: ReductionContext, lam0: FieldElement) -> Poly:
    """det T_0 as a polynomial in lam1, by interpolation through p+1 points.

    Points are taken in the quadratic extension so that p+1 distinct values
    exist even over the prime field; the result is asserted to have
    coefficients in the base field and is returned over the extension
    context.  Only d = 1 contexts are supported.
    """
    from .fields import make_context
    from .linalg import mat_det

    if ctx.d != 1:
        raise ValueError("interpolation helper supports prime-field contexts only")
    p = ctx.p
    ext = make_context(p, 2)
    lam0e = ext.f_from_coeffs(lam0.coeffs())
    pts = [ext.f_from_index(k) for k in range(p + 1)]
    vals = []
    for x in pts:
        tm = build_T(ext, lam0e, x)
        vals.append(mat_det(t_submatrix(tm, 0)))
    # Lagrange interpolation over the extension field
    poly = Poly.zero(ext)
    for k, (xk, yk) in enumerate(zip(pts, vals)):
        num = Poly.one(ext)
        den = ext.one
        for j, xj in enumerate(pts):
            if j == k:
                continue
            num = num * Poly.from_elements(ext, [-xj, ext.one])
            den = den * (xk - xj)
        poly = poly + num.scale(yk * den.inverse())
    return poly
