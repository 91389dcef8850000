"""The explicit matrix criterion for periodicity and the splitting integer.

T is a p x (2p+1) matrix over F_q whose entries are the coefficients a_k
of the cocycle numerator A = sum_k a_k z^k, read from the row's
``cocycle.CocyclePolynomial``, the one that birkhoff and cech read too:
with 0-indexed (i, j),
  T[i, j] = a_(j-i) for i <= j < p, T[i, j] = -g0*a_(2p+j-i) for j < i,
  T[i, p+k] = a_(2p-1-i-k) for k <= p-2-i, and 0 otherwise,
where g0 is the constant term of g in the modulus G = g(z^p) of
``polys.euclid_modulus`` (here g0 = 1).
Its leading submatrices T_m ((p-m) x (p+m)) are scanned for the first
full-rank index, which is the splitting integer n.  Periodicity is the pair
condition det T_0 = 0 and rank T_1 = p-1, equivalently n = 1.  Each T_m is
a leading block of T, so one elimination gives the ranks of many of them
at once (``linalg.blowup_leading_ranks``), and every T of a sweep at one
prime has the same shape, so one elimination covers all of them
(``splittings_from_T``).  Ranks over F_q are ranks of the F_p realisation
(the blow-up) divided by d.  ``build_T`` keeps only the blow-ups of T's
4p-2 distinct entries, as two tables; each elimination writes from their
window views just the leading columns it reads, in the kernel's residue
type, into the stack the kernel eliminates in place, so no rank of T blows
T up, reduces it again or copies it.  T over F_q itself is assembled only
on request.

The remainder system R is the independent reference for that arrangement:
row i of R holds z^i * A reduced mod G = g(z^p), the modulus of
``polys.euclid_modulus`` (here (z-1)^(2p)), built by recurrence.
Entrywise, R reproduces T on the left block, and reflected on the upper
band; validate_T_R checks both index identities on the exact ranges where
the band is defined.  These reference helpers take (lam0, lam1) and build
T from their closed form, ``cocycle.build_A_closed``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cocycle import CocyclePolynomial, build_A_closed
from .errors import DegreeTooLarge, IndexOutOfRange
from .fields import FieldElement, ReductionContext
from .linalg import FqMatrix, _residue_dtype, blowup_leading_ranks, stack_slices
# unused here; kept because perfbench/hooks.py patches it by name in this module
from .linalg import mat_rank  # noqa: F401
from .polys import Poly, euclid_modulus


@dataclass(frozen=True)
class CriterionMatrix:
    """T with 1-indexed semantics as documented; storage is 0-indexed.

    Only the blow-ups of T's two coefficient tables are stored (see
    ``build_T``): `tables` stacks ``ctx.mul_matrix`` of the left table, then
    of the band table, 2p-1 entries each.  `T` and `realisation` assemble
    T over F_q and leading columns of its F_p realisation from their window
    views, each time they are asked for.
    """

    ctx: ReductionContext
    tables: np.ndarray = field(repr=False, compare=False)

    @property
    def p(self) -> int:
        return self.ctx.p

    @property
    def T(self) -> FqMatrix:
        """T over F_q, read off the tables' row 0: row 0 of
        ``mul_matrix(c)`` is x^0 * c = c."""
        p = self.p
        out = np.zeros((p, 2 * p + 1, self.ctx.d), np.int64)
        _fill_T(out, np.ascontiguousarray(self.tables[:, 0]), p)
        return FqMatrix(self.ctx, out)

    def realisation(self, cols: int) -> np.ndarray:
        """The leading (p*d) x (cols*d) block of T's F_p realisation, in the
        elimination kernel's residue type: row (i, k) holds x^k times row i,
        so the full one (cols = 2p+1) equals ``T.blowup()``."""
        return _realisations([self], cols)[0]


@dataclass(frozen=True)
class RemainderSystem:
    """Rows R_i of z^i A mod G = g(z^p), i = 0..p."""

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


def _windows(table: np.ndarray, n: int) -> np.ndarray:
    """View whose row s is table[s:s+n], shape (len(table)-n+1, n, ...);
    table must be C-contiguous, since the view is made on its buffer."""
    return np.ndarray((len(table) - n + 1, n) + table.shape[1:], table.dtype, table,
                      strides=table.strides[:1] + table.strides)


def _fill_T(out: np.ndarray, tables: np.ndarray, p: int) -> None:
    """Write T's leading out.shape[1] columns into the zeroed `out`, whose
    entry (i, j) has the trailing axes of the two stacked tables:
    out[i, j] = left[j - i + p - 1] for j < p, out[i, p + k] = band[i + k]."""
    cols = out.shape[1]
    out[:, :p] = _windows(tables[:2 * p - 1], p)[::-1, :cols]
    if cols > p:
        out[:, p:2 * p] = _windows(tables[2 * p - 1:], p)[:, :cols - p]


def build_T(cocycle: CocyclePolynomial) -> CriterionMatrix:
    """Assemble T from the coefficients a_0..a_(2p-1) of the cocycle's A.

    The left block is Toeplitz and the band Hankel, so each is one window
    view of a short table of a_k:
      left = (-g0*a_(p+1), ..., -g0*a_(2p-1), a_0, ..., a_(p-1)),
      T[i, j] = left[j - i + p - 1] for j < p,
    with g0 the constant row of ``polys.euclid_modulus``: row i of the left
    block is z^i * A mod G in degrees below p, and z^(2p) = -g1*z^p - g0
    mod G, where only the g0 term reaches those degrees;
      band = (a_(2p-1), ..., a_(p+1)) followed by p zeros,
      T[i, p + k] = band[i + k].
    Only the two tables are blown up (``ctx.mul_matrix``, one integer
    product for both), and only they are kept: O(p*d^2) entries.  The
    realisation, whose row (i, k) holds x^k times row i, is written from
    their window views by whoever reads it (``CriterionMatrix``).  A's
    z^(2p-1) coefficient is lam0 - 1, never zero, so A.v has all 2p rows.
    """
    ctx = cocycle.ctx
    p, d = ctx.p, ctx.d
    a = cocycle.A.v
    wrapped = a[p + 1:] @ ctx.mul_matrix(-euclid_modulus(ctx)[0])
    tables = ctx.mul_matrix(np.concatenate(                # left, then band: (2p-1, d, d) each
        [wrapped, a[:p], a[:p:-1], np.zeros((p, d), np.int64)]))
    return CriterionMatrix(ctx=ctx, tables=tables)


def t_submatrix(tm: CriterionMatrix, m: int) -> FqMatrix:
    """T_m: the first p-m rows and p+m columns, 0 <= m <= p-1."""
    p = tm.p
    if not 0 <= m <= p - 1:
        raise IndexOutOfRange(f"submatrix index {m} outside 0..{p - 1}")
    return tm.T.submatrix(p - m, p + m)


def _realisations(tms: list[CriterionMatrix], cols: int) -> np.ndarray:
    """The leading (p*d) x (cols*d) blocks of the realisations of every T in
    tms, as one fresh stack in the kernel's residue type."""
    p, d = tms[0].p, tms[0].ctx.d
    out = np.zeros((len(tms), p, d, cols, d), _residue_dtype(p))  # row (i, k), column (j, l)
    for tm, block in zip(tms, out):
        _fill_T(block.transpose(0, 2, 1, 3), tm.tables, p)
    return out.reshape(len(tms), p * d, cols * d)


def _t_ranks(tms: list[CriterionMatrix], ms) -> np.ndarray:
    """Ranks of T_m, one column per m in ms, of every T in tms (one row
    each), all at one (p, d): one elimination of the columns of the widest
    T_m covers every T_m (see ``linalg.blowup_leading_ranks``), and one
    stack covers every T, up to ``linalg.stack_slices``.  Those columns of
    T's realisation are written for this elimination alone, into the stack
    that the kernel reduces in place, so nothing outlives the call."""
    ctx, p = tms[0].ctx, tms[0].p
    cols = p + max(ms)
    shapes = [(p - m, p + m) for m in ms]
    return np.concatenate([blowup_leading_ranks(ctx, _realisations(tms[part], cols), shapes)
                           for part in stack_slices(len(tms), p * cols * ctx.d ** 2)])


def periodicity_pair(cocycle: CocyclePolynomial) -> bool:
    """det T_0 = 0 and rank T_1 = p-1 (singularity tested via rank)."""
    p = cocycle.ctx.p
    r0, r1 = _t_ranks([build_T(cocycle)], (0, 1))[0].tolist()
    return r0 < p and r1 == p - 1


def splittings_from_T(cocycles: list[CocyclePolynomial]) -> list[SplittingType]:
    """First full-rank index of {T_0, ..., T_(p-1)} for each cocycle, all at
    one (p, d); n = p when none is.

    One elimination of the first p+1 columns of every T gives the ranks of
    T_0 and T_1, which decide n <= 1; only the cocycles with rank T_1 < p-1
    take one more elimination, of the columns of T_(p-1), for the ranks of
    the rest.
    """
    if not cocycles:
        return []
    p = cocycles[0].ctx.p
    tms = [build_T(c) for c in cocycles]
    ns = [0 if r0 == p else 1 if r1 == p - 1 else None
          for r0, r1 in _t_ranks(tms, (0, 1)).tolist()]
    rest = [i for i, n in enumerate(ns) if n is None]
    if rest:
        ms = range(2, p)
        for i, ranks in zip(rest, _t_ranks([tms[i] for i in rest], ms).tolist()):
            ns[i] = next((m for m, r in zip(ms, ranks) if r == p - m), p)
    return [SplittingType.of(n, "t") for n in ns]


def splitting_from_T(cocycle: CocyclePolynomial) -> SplittingType:
    """``splittings_from_T`` of one cocycle."""
    return splittings_from_T([cocycle])[0]


def remainder_system(ctx: ReductionContext, A: Poly) -> RemainderSystem:
    """Rows z^i A mod G for i = 0..p, G = g(z^p) of ``polys.euclid_modulus``.

    G = z^(2p) + g1 z^p + g0, so z^(2p) = -g1 z^p - g0 mod G, and each row
    is one shift of the previous one and a two-term correction by its top
    coefficient, times -g1 and -g0 as field scalars.
    """
    p = ctx.p
    if A.degree > 2 * p - 1:
        raise DegreeTooLarge("cocycle numerator must have degree <= 2p-1")
    arr = np.zeros((p + 1, 2 * p, ctx.d), dtype=np.int64)
    arr[0, : len(A.v)] = A.v
    minus_g0, minus_g1 = ctx.mul_matrix(-euclid_modulus(ctx)[:2])
    for i in range(p):
        top = arr[i, -1]
        arr[i + 1, 1:] = arr[i, :-1]
        arr[i + 1, p] = (arr[i + 1, p] + top @ minus_g1) % p
        arr[i + 1, 0] = top @ minus_g0 % p
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
    cocycle = build_A_closed(ctx, lam0, lam1)
    r = remainder_system(ctx, cocycle.A if A is None else A).R
    t = build_T(cocycle).T
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
        tm = build_T(build_A_closed(ext, lam0e, x))
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
