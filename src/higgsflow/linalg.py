"""Exact matrix algebra over F_{p^d}.

Matrices are stored as numpy int arrays of shape (rows, cols, d): entry
(i, j) is the coefficient vector of a field element.  Rank and null-space
computations run over F_p: for d == 1 directly, for d > 1 through the
regular-representation blow-up, which multiplies both dimensions by d and
divides the resulting rank by d.  Null vectors of the blow-up correspond
exactly to null vectors over F_{p^d} by re-chunking coordinates.
"""

from __future__ import annotations

import numpy as np

from .errors import NotSquare
from .fields import FieldElement, ReductionContext


def _rref_mod_p(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form mod p; deterministic first-nonzero pivoting."""
    m = mat.copy() % p
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        m[r] = m[r] * pow(int(m[r, c]), p - 2, p) % p
        other = np.nonzero(m[:, c])[0]
        other = other[other != r]
        if other.size:
            m[other] = (m[other] - np.outer(m[other, c], m[r])) % p
        pivots.append(c)
        r += 1
    return m, pivots


def _rank_mod_p(mat: np.ndarray, p: int) -> int:
    if mat.size == 0:
        return 0
    _, pivots = _rref_mod_p(mat, p)
    return len(pivots)


def _nullspace_mod_p(mat: np.ndarray, p: int) -> list[np.ndarray]:
    """Basis of the right null space, free-variable convention.

    Vector k has a 1 at the k-th free column and minus the pivot-row
    coefficients elsewhere; ordered by free column index.
    """
    rows, cols = mat.shape
    if cols == 0:
        return []
    if rows == 0:
        return [np.eye(cols, dtype=np.int64)[i] for i in range(cols)]
    rref, pivots = _rref_mod_p(mat, p)
    pivot_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        v = np.zeros(cols, dtype=np.int64)
        v[free] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-int(rref[i, free])) % p
        basis.append(v)
    return basis


class FqMatrix:
    """Dense matrix over F_{p^d} with vectorised coefficient storage."""

    __slots__ = ("ctx", "arr")

    def __init__(self, ctx: ReductionContext, arr: np.ndarray):
        if arr.ndim != 3 or arr.shape[2] != ctx.d:
            raise ValueError("expected an array of shape (rows, cols, d)")
        self.ctx = ctx
        self.arr = arr.astype(np.int64, copy=False)

    @classmethod
    def from_rows(cls, ctx: ReductionContext, rows) -> "FqMatrix":
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        arr = np.zeros((nr, nc, ctx.d), dtype=np.int64)
        for i, row in enumerate(rows):
            for j, e in enumerate(row):
                vec = e.vec if isinstance(e, FieldElement) else e
                arr[i, j] = [vec] if ctx.d == 1 else list(vec)
        return cls(ctx, arr)

    @classmethod
    def from_int_rows(cls, ctx: ReductionContext, rows) -> "FqMatrix":
        arr = np.asarray(rows, dtype=np.int64) % ctx.p
        return cls(ctx, arr[:, :, None]) if ctx.d == 1 else cls.from_rows(
            ctx, [[ctx.f_from_int(v) for v in row] for row in rows])

    @property
    def nrows(self) -> int:
        return self.arr.shape[0]

    @property
    def ncols(self) -> int:
        return self.arr.shape[1]

    def entry(self, i: int, j: int) -> FieldElement:
        v = self.arr[i, j]
        vec = int(v[0]) if self.ctx.d == 1 else tuple(int(x) for x in v)
        return FieldElement(self.ctx, vec)

    def row(self, i: int) -> list[FieldElement]:
        return [self.entry(i, j) for j in range(self.ncols)]

    def submatrix(self, rows: int, cols: int) -> "FqMatrix":
        """Leading rows x cols block."""
        return FqMatrix(self.ctx, self.arr[:rows, :cols])

    def transpose(self) -> "FqMatrix":
        return FqMatrix(self.ctx, self.arr.transpose(1, 0, 2))

    def __eq__(self, other):
        return (isinstance(other, FqMatrix) and self.ctx is other.ctx
                and self.arr.shape == other.arr.shape
                and bool(np.all(self.arr == other.arr)))

    def __repr__(self):
        return f"FqMatrix({self.nrows}x{self.ncols} over F_{self.ctx.q})"

    # -- F_p realisations ------------------------------------------------------

    def _basis_mats(self) -> np.ndarray:
        """Regular representation of the basis powers, shape (d, d, d)."""
        ctx = self.ctx
        d = ctx.d
        mats = np.zeros((d, d, d), dtype=np.int64)
        # power_vec[m] = coefficient vector of t^m mod modulus, m < 2d-1
        power_vec = []
        for m in range(2 * d - 1):
            if m < d:
                v = [0] * d
                v[m] = 1
                power_vec.append(tuple(v))
            else:
                power_vec.append(ctx._red_p[m])
        for i in range(d):
            for k in range(d):
                mats[i, k] = power_vec[i + k]
        return mats

    def blowup(self) -> np.ndarray:
        """F_p matrix of shape (rows*d, cols*d) realising the F_q action."""
        ctx = self.ctx
        if ctx.d == 1:
            return self.arr[:, :, 0]
        mats = self._basis_mats()
        big = np.tensordot(self.arr, mats, axes=([2], [0]))  # (r, c, d, d)
        big = big.transpose(0, 2, 1, 3)
        r, c = self.nrows, self.ncols
        return big.reshape(r * ctx.d, c * ctx.d) % ctx.p


def mat_rank(m: FqMatrix) -> int:
    """Rank over F_{p^d} by exact Gaussian elimination."""
    if m.nrows == 0 or m.ncols == 0:
        return 0
    return _rank_mod_p(m.blowup(), m.ctx.p) // m.ctx.d


def mat_det(m: FqMatrix) -> FieldElement:
    """Exact determinant by elimination over the field."""
    if m.nrows != m.ncols:
        raise NotSquare(f"{m.nrows}x{m.ncols} matrix has no determinant")
    ctx = m.ctx
    n = m.nrows
    rows = [[m.entry(i, j).vec for j in range(n)] for i in range(n)]
    det = ctx.one.vec
    sign = 1
    for c in range(n):
        pr = next((r for r in range(c, n) if not ctx.f_is_zero(rows[r][c])), None)
        if pr is None:
            return ctx.zero
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            sign = -sign
        pivot = rows[c][c]
        det = ctx.fmul(det, pivot)
        inv = ctx.finv(pivot)
        for r in range(c + 1, n):
            f = ctx.fmul(rows[r][c], inv)
            if ctx.f_is_zero(f):
                continue
            for j in range(c, n):
                rows[r][j] = ctx.fsub(rows[r][j], ctx.fmul(f, rows[c][j]))
    if sign < 0:
        det = ctx.fneg(det)
    return FieldElement(ctx, det)


def _fq_rref_rows(ctx: ReductionContext, rows: list[list]) -> list[list]:
    """Reduced echelon form of a small list of F_q row vectors (vec entries)."""
    rows = [list(r) for r in rows]
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    r = 0
    pivots = []
    for c in range(nc):
        if r >= nr:
            break
        pr = next((i for i in range(r, nr) if not ctx.f_is_zero(rows[i][c])), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = ctx.finv(rows[r][c])
        rows[r] = [ctx.fmul(inv, x) for x in rows[r]]
        for i in range(nr):
            if i != r and not ctx.f_is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [ctx.fsub(x, ctx.fmul(f, yv)) for x, yv in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return [row for row in rows if any(not ctx.f_is_zero(x) for x in row)]


def left_nullspace_vecs(m: FqMatrix) -> list[list]:
    """Basis of {v : v*M = 0} as lists of vecs; deterministic.

    d == 1 follows the free-variable convention of the null-space routine;
    d > 1 returns the unique reduced echelon basis.
    """
    ctx = m.ctx
    if m.nrows == 0:
        return []
    big = m.blowup()
    basis_p = _nullspace_mod_p(big.T, ctx.p)
    if ctx.d == 1:
        return [[int(x) for x in v] for v in basis_p]
    cand = []
    for v in basis_p:
        cand.append([tuple(int(x) for x in v[i * ctx.d:(i + 1) * ctx.d])
                     for i in range(m.nrows)])
    return _fq_rref_rows(ctx, cand)


def mat_left_nullspace(m: FqMatrix) -> list[list[FieldElement]]:
    """Basis of the left null space as FieldElement rows."""
    ctx = m.ctx
    return [[FieldElement(ctx, v) for v in row] for row in left_nullspace_vecs(m)]
