"""Exact matrix algebra over F_{p^d}.

Matrices are stored as numpy int arrays of shape (rows, cols, d): entry
(i, j) is the coefficient vector of a field element.  Rank and null-space
computations run over F_p through the regular-representation blow-up,
which multiplies both dimensions by d and divides the resulting rank by d
(at d = 1 it is the matrix itself).  Null vectors of the blow-up
correspond exactly to null vectors over F_{p^d} by re-chunking
coordinates.

Every rank and null space goes through one kernel, ``_rref_mod_p``:
right-looking blocked forward elimination (the FFLAS-FFPACK design of
Dumas, Giorgi and Pernet, ACM TOMS 35, 2008).  Panels of ``_PANEL``
columns are factored exactly in integers, and the rest of the matrix is
updated by float64 matmuls, ``_PANEL`` rows at a time, so the kernel's
temporaries are O(``_PANEL``*cols) beside its residues.  That is exact while
``_PANEL*(p-1)^2 < 2^53``, which holds for every p below 1.1e7; past the
bound the kernel raises ``InternalInvariantFailure`` rather than round.
As in FFLAS-FFPACK, residues are held in the smallest integer type that
the delayed reductions fit: int32 while ``_PANEL*(p-1)^2 + p < 2^31``
(every p <= 5791), int64 above.  A rank reads the pivots off the echelon
form; a null space back-substitutes from it.

The kernel brings each pivot row up by rotating the rows between it and
its target, not by a swap, so the rows without a pivot keep their order,
and it returns the original row of every pivot.  A row is then only ever
changed by rows above it, and the pivots inside a leading block are that
block's rank: one elimination gives the rank of every leading block (the
rank profile matrix of Dumas, Pernet and Sultan, ISSAC 2015 and
J. Symbolic Comput. 83, 2017).  ``blowup_leading_ranks`` reads them off
the blow-up of a matrix over F_q.  The t method's scan of T_0, T_1, ...
hands it the leading columns of T's blow-up, which ``criterion`` writes
for each elimination from two blown-up tables; the Cech oracle's pair of
ansatz bounds goes through ``mat_leading_ranks``, which blows its matrix
up first.  ``mat_rank`` eliminates one matrix and counts all of its
pivots.
"""

from __future__ import annotations

import numpy as np

from .errors import InternalInvariantFailure, NotSquare
from .fields import FieldElement, ReductionContext

_PANEL = 64
_EXACT = 2 ** 53  # float64 holds every integer below this exactly
_INT32 = 2 ** 31  # int32 holds every integer of smaller magnitude


def _check_exact(terms: int, p: int, what: str) -> None:
    """A float64 dot product of `terms` products of residues must stay exact."""
    if terms * (p - 1) ** 2 >= _EXACT:
        raise InternalInvariantFailure(
            f"{what}: {terms}*(p-1)^2 >= 2^53 at p={p}, "
            "so a float64 product of residues would round")


def _residue_dtype(p: int) -> type:
    """The kernel's integer type: int32 when a residue below p less
    ``_PANEL`` products of residues stays inside it, else int64."""
    return np.int32 if _PANEL * (p - 1) ** 2 + p < _INT32 else np.int64


def _rref_mod_p(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int], list[int]]:
    """Row echelon form mod p, by right-looking blocked forward elimination.

    Returns (m, pivots, pivot_rows): the rows of m below len(pivots) are
    zero, row i has a 1 at column pivots[i] and zeros to its left, and it
    comes from row pivot_rows[i] of mat.  Entries above a pivot are NOT
    cleared: this is echelon form, not reduced echelon form
    (``_nullspace_mod_p`` back-substitutes when it needs the reduced one).
    The name keeps "rref" only because the benchmark's tracer patches this
    function by name; renaming it waits for a change to the benchmark.

    The pivot of a column is the first row without a pivot that is nonzero
    there, and it is brought up by rotating the rows between it and its
    target down by one, not by a swap, so the rows still without a pivot
    keep the order they have in mat.  Each row operation therefore adds a
    multiple of a row only to rows that come after it in mat (the rows
    before the pivot row are zero in its column, so their multiplier is 0),
    and eliminating the leading block mat[:i, :j] alone makes the same
    choices on it.  Hence every leading block's rank is read off one
    elimination: rank(mat[:i, :j]) = #{k : pivots[k] < j and
    pivot_rows[k] < i}.  These pivots are the rank profile matrix of
    Dumas, Pernet and Sultan (ISSAC 2015; J. Symbolic Comput. 83, 2017).

    Residues are held in ``_residue_dtype(p)``: int32 while
    ``_PANEL*(p-1)^2 + p < 2^31``, which bounds every value the delayed
    reductions below leave (p <= 5791), and int64 above.  The input is
    reduced once, on its way into that type, and the echelon form comes
    back in it: a rank reads only the pivots, so it is never widened.

    Columns go in panels of ``_PANEL``.  A panel is factored on the rows
    still without a pivot, keeping the multipliers in place (the LAPACK
    layout).  Its row rotations reach the trailing columns as one
    permutation.  Its row operations are replayed on the pivot rows'
    trailing part by a lower-triangular solve, one dot product per row, and
    every other row's trailing part takes a float64 matmul against the
    solved rows, ``_PANEL`` rows at a time, so no temporary grows with the
    number of rows; each is exact while ``_PANEL*(p-1)^2 < 2^53`` (checked
    at entry).  The difference goes back to the integer type before it is
    reduced: an integer remainder is some 20 times faster than ``np.fmod``
    on float64 at these magnitudes.  Inside a panel, entries are reduced
    only when read: a column when it is searched for a pivot, a row when it
    becomes a pivot row.  Between reads at most ``_PANEL`` products below
    p^2 pile up onto a residue, and so does the float64 product taken from
    a trailing residue.
    """
    _check_exact(_PANEL, p, "panel update")
    m = np.empty(np.shape(mat), _residue_dtype(p))     # rows contiguous
    np.remainder(mat, p, out=m, casting="unsafe")
    rows, cols = m.shape
    origin = np.arange(rows)             # the row of mat that each row of m is
    pivots: list[int] = []
    r = 0
    for c0 in range(0, cols, _PANEL):
        if r >= rows:
            break
        c1 = min(c0 + _PANEL, cols)
        panel = m[r:, c0:c1].copy()      # the rows without a pivot yet
        order = np.arange(len(panel))    # the row of m[r:] each panel row is
        moved = 0                        # panel rows [0, moved) were rotated
        piv: list[int] = []              # pivot columns of this panel, local
        inv: list[int] = []              # inverses of their pivot values
        for c in range(c1 - c0):
            i = len(piv)
            if i >= len(panel):
                break
            col = panel[i:, c]
            col %= p
            nz = col.nonzero()[0]
            if not nz.size:
                continue
            t = i + int(nz[0])
            if t > i:
                # rotate rows i..t down by one, bringing row t up to i
                row, o = panel[t].copy(), order[t]
                panel[i + 1:t + 1] = panel[i:t]
                order[i + 1:t + 1] = order[i:t]
                panel[i], order[i] = row, o
                moved = max(moved, t + 1)
            # the multipliers stay in column c; row i becomes the unit
            # echelon row, with the pivot value kept at (i, c)
            inv.append(pow(int(panel[i, c]), p - 2, p))
            prow = panel[i, c + 1:]
            prow %= p
            prow *= inv[-1]
            prow %= p
            panel[i + 1:, c + 1:] -= panel[i + 1:, c, None] * prow
            piv.append(c)
        k = len(piv)
        if not k:
            continue
        if moved:
            origin[r:r + moved] = origin[r + order[:moved]]
        if c1 < cols:
            trail = m[r:, c1:]
            if moved:
                trail[:moved] = trail[order[:moved]]
            # pivot rows: solve lower * x = trailing part, one row at a time;
            # lower has the multipliers below its diagonal and the pivots on it
            lower, top = panel[:k, piv], trail[:k]
            for j in range(k):
                tj = top[j]
                tj -= lower[j, :j] @ top[:j]
                tj %= p
                tj *= inv[j]
                tj %= p
            # every other row, _PANEL rows at a time: block - prod in
            # float64 is an exact integer above -2^53
            ftop = top.astype(np.float64)
            for b0 in range(k, len(panel), _PANEL):
                block = trail[b0:b0 + _PANEL]
                prod = panel[b0:b0 + _PANEL, piv].astype(np.float64) @ ftop
                np.subtract(block, prod, out=block, casting="unsafe")
                block %= p
        # the panel in echelon form: unit pivots, zeros below and left of them
        for j, c in enumerate(piv):
            panel[j, :c] = 0
            panel[j, c] = 1
        panel[k:] = 0
        m[r:, c0:c1] = panel
        pivots.extend(c0 + c for c in piv)
        r += k
    return m, pivots, origin[:r].tolist()


def _rank_mod_p(mat: np.ndarray, p: int) -> int:
    if mat.size == 0:
        return 0
    return len(_rref_mod_p(mat, p)[1])


def _nullspace_mod_p(mat: np.ndarray, p: int) -> list[np.ndarray]:
    """Basis of the right null space, free-variable convention.

    Vector k has a 1 at the k-th free column and minus the reduced
    echelon coefficients elsewhere; ordered by free column index.  The
    reduced echelon form is unique, so it follows from the echelon form by
    back-substitution; blocks of ``_PANEL`` pivot rows take the rows below
    them in one float64 matmul, exact while ``rows*(p-1)^2 < 2^53``.
    The echelon form arrives in the kernel's residue type; inside a block
    a row takes fewer than ``_PANEL`` products, which that type holds.
    """
    rows, cols = mat.shape
    if cols == 0:
        return []
    if rows == 0:
        return [np.eye(cols, dtype=np.int64)[i] for i in range(cols)]
    _check_exact(rows, p, "back-substitution")
    ech, pivots, _ = _rref_mod_p(mat, p)
    k = len(pivots)
    is_free = np.ones(cols, bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    unit = ech[:k, pivots]               # unit upper triangular
    x = ech[:k, free]                    # becomes the reduced form's free columns
    for hi in range(k, 0, -_PANEL):
        lo = max(hi - _PANEL, 0)
        if hi < k:
            prod = unit[lo:hi, hi:].astype(np.float64) @ x[hi:].astype(np.float64)
            x[lo:hi] = (x[lo:hi] - prod.astype(np.int64)) % p
        for i in range(hi - 2, lo - 1, -1):
            x[i] = (x[i] - unit[i, i + 1:hi] @ x[i + 1:hi]) % p
    basis = np.zeros((len(free), cols), np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -x.T % p
    return list(basis)


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

    def submatrix(self, rows: int, cols: int) -> "FqMatrix":
        """Leading rows x cols block."""
        return FqMatrix(self.ctx, self.arr[:rows, :cols])

    def transpose(self) -> "FqMatrix":
        return FqMatrix(self.ctx, self.arr.transpose(1, 0, 2))

    def __eq__(self, other):
        return (isinstance(other, FqMatrix) and self.ctx == other.ctx
                and self.arr.shape == other.arr.shape
                and bool(np.all(self.arr == other.arr)))

    def __repr__(self):
        return f"FqMatrix({self.nrows}x{self.ncols} over F_{self.ctx.q})"

    # -- F_p realisations ------------------------------------------------------

    def blowup(self) -> np.ndarray:
        """F_p matrix of shape (rows*d, cols*d) realising the F_q action.

        Row (i, k) holds the coordinates of x^k times row i: block (i, j)
        is ``ctx.mul_matrix`` of entry (i, j).  One batched integer product
        against ``ctx.basis_products`` writes every x^k times row i straight
        into that order, so the result is a reshape of it, reduced in
        place.  At d = 1 it is the matrix reduced mod p.
        """
        rows, cols, d = self.arr.shape
        # (rows, 1, cols, d) @ (d, d, d): batch (i, k) is row i times the
        # matrix of multiplication by x^k
        big = np.matmul(self.arr[:, None], self.ctx.basis_products.transpose(1, 0, 2))
        big %= self.ctx.p
        return big.reshape(rows * d, cols * d)


def mat_rank(m: FqMatrix) -> int:
    """Rank over F_{p^d} by exact Gaussian elimination."""
    if m.nrows == 0 or m.ncols == 0:
        return 0
    return _rank_mod_p(m.blowup(), m.ctx.p) // m.ctx.d


def blowup_leading_ranks(ctx: ReductionContext, big: np.ndarray, shapes) -> list[int]:
    """Ranks over F_{p^d} of the leading blocks m[:rows, :cols], one per
    (rows, cols) in `shapes`, of the matrix m over F_q whose blow-up
    (``FqMatrix.blowup``) is `big`, from a single elimination of `big`.

    The leading F_q block is the leading (rows*d) x (cols*d) F_p block of
    the blow-up, so its rank is the number of pivots inside that block
    (see ``_rref_mod_p``) divided by d.
    """
    d = ctx.d
    _, pivots, pivot_rows = _rref_mod_p(big, ctx.p)
    cols, rows = np.array(pivots), np.array(pivot_rows)
    return [int(np.count_nonzero((rows < i * d) & (cols < j * d))) // d
            for i, j in shapes]


def mat_leading_ranks(m: FqMatrix, shapes) -> list[int]:
    """``blowup_leading_ranks`` of m's blow-up."""
    return blowup_leading_ranks(m.ctx, m.blowup(), shapes)


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
