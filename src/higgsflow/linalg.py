"""Exact matrix algebra over F_{p^d}.

Matrices are stored as numpy int arrays of shape (rows, cols, d): entry
(i, j) is the coefficient vector of a field element.  Rank and null-space
computations run over F_p through the regular-representation blow-up,
which multiplies both dimensions by d and divides the resulting rank by d
(at d = 1 it is the matrix itself).  Null vectors of the blow-up
correspond exactly to null vectors over F_{p^d} by re-chunking
coordinates.
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
        vecs = [[e.vec if isinstance(e, FieldElement) else e for e in row] for row in rows]
        nc = len(rows[0]) if rows else 0
        return cls(ctx, np.array(vecs, np.int64).reshape(len(rows), nc, ctx.d))

    @classmethod
    def from_int_rows(cls, ctx: ReductionContext, rows) -> "FqMatrix":
        ints = np.asarray(rows, dtype=np.int64) % ctx.p
        arr = np.zeros(ints.shape + (ctx.d,), np.int64)
        arr[..., 0] = ints
        return cls(ctx, arr)

    @property
    def nrows(self) -> int:
        return self.arr.shape[0]

    @property
    def ncols(self) -> int:
        return self.arr.shape[1]

    def entry(self, i: int, j: int) -> FieldElement:
        return FieldElement(self.ctx, tuple(self.arr[i, j].tolist()))

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

    def blowup(self) -> np.ndarray:
        """F_p matrix of shape (rows*d, cols*d) realising the F_q action.

        Row (i, k) holds the coordinates of x^k times row i.
        """
        ctx = self.ctx
        big = np.einsum("rci,ikl->rkcl", self.arr, ctx.basis_products)
        return big.reshape(self.nrows * ctx.d, self.ncols * ctx.d) % ctx.p


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
    rows = [[tuple(e) for e in row] for row in m.arr.tolist()]
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


def _fq_rref_rows(ctx: ReductionContext, rows: np.ndarray) -> np.ndarray:
    """Reduced echelon form of a small stack (k, n, d) of F_q row vectors."""
    p = ctx.p
    rows = rows.copy()
    r = 0
    for c in range(rows.shape[1]):
        if r >= len(rows):
            break
        nz = np.flatnonzero(rows[r:, c].any(axis=1))
        if not nz.size:
            continue
        rows[[r, r + nz[0]]] = rows[[r + nz[0], r]]
        rows[r] = rows[r] @ ctx.mul_matrix(ctx.finv(tuple(rows[r, c].tolist()))) % p
        for i in np.flatnonzero(rows[:, c].any(axis=1)):
            if i != r:
                rows[i] = (rows[i] - rows[r] @ ctx.mul_matrix(rows[i, c])) % p
        r += 1
    return rows[rows.any(axis=(1, 2))]


def left_nullspace_vecs(m: FqMatrix) -> np.ndarray:
    """Basis of {v : v*M = 0}, stacked as an array (k, rows, d); deterministic.

    d == 1 follows the free-variable convention of the null-space routine;
    d > 1 returns the unique reduced echelon basis, since there the F_p
    null vectors only span the space over F_q.
    """
    ctx = m.ctx
    basis = np.array(_nullspace_mod_p(m.blowup().T, ctx.p), np.int64)
    basis = basis.reshape(len(basis), m.nrows, ctx.d)
    if ctx.d == 1:
        return basis
    return _fq_rref_rows(ctx, basis)


def mat_left_nullspace(m: FqMatrix) -> list[list[FieldElement]]:
    """Basis of the left null space as FieldElement rows."""
    ctx = m.ctx
    basis = left_nullspace_vecs(m).tolist()
    return [[FieldElement(ctx, tuple(v)) for v in row] for row in basis]
