"""Exact matrix algebra over F_{p^d}.

Matrices are stored as numpy int arrays of shape (rows, cols, d): entry
(i, j) is the coefficient vector of a field element.  Rank and null-space
computations run over F_p through the regular-representation blow-up,
which multiplies both dimensions by d and divides the resulting rank by d
(at d = 1 it is the matrix itself).  Null vectors of the blow-up
correspond exactly to null vectors over F_{p^d} by re-chunking
coordinates.

Every rank and null space goes through one kernel, ``_rank_profiles``,
which eliminates a whole stack of equally shaped matrices, (n, rows, cols),
in one column loop: right-looking blocked forward elimination (the
FFLAS-FFPACK design of Dumas, Giorgi and Pernet, ACM TOMS 35, 2008).
Panels of ``_PANEL`` columns are factored exactly in integers, held
column-major so that the pivot search and the in-panel updates run along
contiguous memory, and the rest of each matrix is updated by float64
matmuls, ``_PANEL`` rows at a time, so the kernel's temporaries are
O(n*``_PANEL``*cols) beside its residues.  That is exact while
``_PANEL*(p-1)^2 < 2^53``, which holds for every p below 1.1e7; past the
bound the kernel raises ``InternalInvariantFailure`` rather than round.
As in FFLAS-FFPACK, residues are held in the smallest integer type that
the delayed reductions fit: int32 while ``_PANEL*(p-1)^2 + p < 2^31``
(every p <= 5791), int64 above.  Callers write a fresh stack in that type
(``_residue_dtype``) and the kernel reduces it in place; one stack holds at
most ``_STACK`` residues (``stack_slices``).

Rows never move.  The pivot of a column, in each matrix, is the first row
without a pivot that is nonzero there; rows that already have a pivot are
masked out of the search and of the updates.  A row is then only ever
changed by rows above it, and the pivots inside a leading block are that
block's rank: one elimination gives the rank of every leading block (the
rank profile matrix of Dumas, Pernet and Sultan, ISSAC 2015 and
J. Symbolic Comput. 83, 2017).  ``blowup_leading_ranks`` reads them off a
stack of blow-ups of matrices over F_q.  The t method's scan of T_0, T_1,
... hands it the leading columns of T's blow-up for every row of a sweep
at one prime, which ``criterion`` writes from two blown-up tables per row;
the Cech oracle hands it one ansatz per row at each bound.
``_rref_mod_p`` is the kernel on a stack of one matrix, returning the
echelon form; ``mat_rank`` counts its pivots.
"""

from __future__ import annotations

import numpy as np

from .errors import InternalInvariantFailure, NotSquare
from .fields import FieldElement, ReductionContext

_PANEL = 64
_STACK = 2 ** 18  # residues in one stack of matrices eliminated together
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


def stack_slices(count: int, residues: int) -> list[slice]:
    """Consecutive slices of `count` matrices of `residues` entries each,
    every slice one stack of at most ``_STACK`` residues (or one matrix)."""
    step = max(1, _STACK // max(residues, 1))
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _rank_profiles(m: np.ndarray, p: int, echelon: bool = False):
    """Pivots of every matrix of the stack m (n, rows, cols), by right-looking
    blocked forward elimination mod p; m is the caller's fresh stack in
    ``_residue_dtype(p)``, and it is reduced and eliminated in place.

    Returns three arrays (matrix, column, row), one entry per pivot, ordered
    by matrix and then by column: the pivots of matrix s are the rank
    profile of m[s], and rank(m[s][:i, :j]) = #{pivots of s with row < i and
    column < j} (see the module docstring).  With `echelon`, each pivot row
    of m ends up holding its echelon row from its pivot's panel on: 1 at
    the pivot, the reduced entries right of it, zeros between.

    Each matrix keeps an index of its rows without a pivot ("slots"); a
    matrix with fewer of them than another is padded with rows that have a
    pivot, whose panel entries are zeroed.  A panel (n, w, slots) is
    gathered from those rows, column-major.  Its pivot search reduces a
    column, takes the first nonzero slot, normalises the pivot row's panel
    entries, zeroes them in the panel, and subtracts the row from the slots
    after it; the column then holds every slot's multiplier.  Entries are
    reduced only when read, so between reads at most ``_PANEL`` products
    below p^2 pile up onto a residue, which ``_residue_dtype`` holds.

    The panel's row operations reach the trailing columns in float64,
    exact while ``_PANEL*(p-1)^2 < 2^53`` (checked at entry).  With D the
    pivot values and L the pivot rows' multipliers (strictly lower
    triangular), the pivot rows' trailing part is (D + L)^-1 times its
    original, from ``_inverse_lower``; every slot left without a pivot
    takes a matmul of its multipliers against that, ``_PANEL`` slots at a
    time, and is reduced after the difference goes back to the integer
    type (an integer remainder is some 20 times faster than ``np.fmod`` on
    float64 at these magnitudes).
    """
    _check_exact(_PANEL, p, "panel update")
    n, rows, cols = m.shape
    np.remainder(m, p, out=m)
    at = np.arange(n)[:, None]
    idx = None                 # slot -> row of m, (n, slots); None: slot s is row s
    valid = None               # False at padding slots; None: no padding
    found = []                 # per panel: (matrix, column, row) of its pivots
    width = rows
    for c0 in range(0, cols, _PANEL):
        if not width:
            break
        c1 = min(c0 + _PANEL, cols)
        if idx is None:
            pan = m[:, :, c0:c1].transpose(0, 2, 1).copy()
        else:
            pan = m[at, idx, c0:c1].transpose(0, 2, 1).copy()
            if valid is not None:
                pan *= valid[:, None, :]
        ech = np.zeros_like(pan) if echelon else None
        if n == 1:
            # the column step with scalar indices: no per-matrix bookkeeping
            cs, ts, invs = _panel_one(pan[0], p, None if ech is None else ech[0])
            if not cs:
                continue
            kk, jj = np.zeros(len(cs), np.intp), np.arange(len(cs))
            pc, ps, pinv = np.array([cs]), np.array([ts]), np.array([invs], np.int64)
        else:
            recs = _panel_stack(pan, p, ech)
            if not recs:
                continue
            kk, jj, pc, ps, pinv = _by_matrix(recs, n)
        prows = ps if idx is None else idx[at, ps]     # (n, kmax): rows of m
        found.append((kk, c0 + pc[kk, jj], prows[kk, jj]))
        if echelon:
            m[kk, prows[kk, jj], c0:c1] = ech[kk, :, ps[kk, jj]]
            del ech
        if c1 == cols:
            break
        keep = np.ones((n, pan.shape[2]), bool) if valid is None else valid
        keep[kk, ps[kk, jj]] = False
        pos, valid = _compact(keep)
        lower = pan[at, pc, :]                         # (n, kmax, slots)
        del pan
        top = np.matmul(_inverse_lower(lower[at, :, ps], pinv, p),
                        m[at, prows, c1:].astype(np.float64)).astype(m.dtype)
        top %= p
        ftop = top.astype(np.float64)
        if not echelon:
            del top
        idx = pos if idx is None else idx[at, pos]
        width = idx.shape[1]
        for b0 in range(0, width, _PANEL):
            # block - prod in float64 is an exact integer above -2^53.  A
            # padding slot is a row with a pivot: one from an earlier panel
            # has zero multipliers, and one from this panel is never read
            # again, or overwritten by its echelon row below
            r = idx[:, b0:b0 + _PANEL]
            mult = lower[at, :, pos[:, b0:b0 + _PANEL]].astype(np.float64)
            block = m[at, r, c1:]
            prod = np.matmul(mult, ftop)
            np.subtract(block, prod, out=block, casting="unsafe")
            del prod
            block %= p
            m[at, r, c1:] = block
        if echelon:
            m[kk, prows[kk, jj], c1:] = top[kk, jj]
    if not found:
        none = np.zeros(0, np.intp)
        return none, none, none
    if len(found) == 1:
        return found[0]
    kk, cc, rr = (np.concatenate(x) for x in zip(*found))
    if n > 1:
        order = np.argsort(kk, kind="stable")
        kk, cc, rr = kk[order], cc[order], rr[order]
    return kk, cc, rr


def _panel_one(pan: np.ndarray, p: int, ech):
    """Eliminate the column-major panel (w, slots) of a single matrix; returns
    the pivots' panel columns, slots and inverted pivot values.  `ech`, when
    given, receives each pivot row's echelon entries in the panel."""
    cs, ts, invs = [], [], []
    left = pan.shape[1]
    for c in range(pan.shape[0]):
        col = pan[c]
        col %= p
        nz = col.nonzero()[0]
        if not nz.size:
            continue
        t = int(nz[0])
        inv = pow(int(col[t]), -1, p)
        prow = pan[c + 1:, t] % p
        pan[c:, t] = 0                   # masked from now on; col[t] too
        prow *= inv
        prow %= p
        # slots before t are zero in this column or masked
        pan[c + 1:, t + 1:] -= prow[:, None] * col[t + 1:]
        if ech is not None:
            ech[c, t] = 1
            ech[c + 1:, t] = prow
        cs.append(c)
        ts.append(t)
        invs.append(inv)
        left -= 1
        if not left:
            break
    return cs, ts, invs


def _panel_stack(pan: np.ndarray, p: int, ech) -> list[tuple]:
    """``_panel_one`` on every matrix of a panel stack (n, w, slots) at once;
    returns one (column, matrices, slots, inverses) per column with a pivot.
    A matrix without a pivot in a column is zero there, so every matrix
    takes the column's update."""
    every = np.arange(len(pan))
    recs = []
    for c in range(pan.shape[1]):
        col = pan[:, c]
        col %= p
        t = (col != 0).argmax(1)
        v = col[every, t]
        ks = v.nonzero()[0]
        if not ks.size:
            continue
        tk = t[ks]
        inv = np.zeros(len(pan), pan.dtype)
        inv[ks] = [pow(x, -1, p) for x in v[ks].tolist()]
        prow = pan[every, c + 1:, t] % p
        pan[ks, c:, tk] = 0
        prow *= inv[:, None]
        prow %= p
        lo = int(tk.min()) + 1
        pan[:, c + 1:, lo:] -= prow[:, :, None] * col[:, None, lo:]
        if ech is not None:
            ech[ks, c, tk] = 1
            ech[ks, c + 1:, tk] = prow[ks]
        recs.append((c, ks, tk, inv[ks]))
    return recs


def _by_matrix(recs: list[tuple], n: int):
    """A panel's pivots by matrix, each matrix's in column order, padded to
    the most any matrix has: (matrix, rank within it) of every pivot, and
    their (n, kmax) columns, slots and inverses.  A padding entry has
    inverse 0, so ``_inverse_lower`` gives it a zero column and row, and the
    multipliers and pivot row it reads are never used."""
    kk = np.concatenate([r[1] for r in recs])
    order = np.argsort(kk, kind="stable")
    kk = kk[order]
    cc = np.concatenate([np.full(len(r[1]), r[0]) for r in recs])[order]
    tt = np.concatenate([r[2] for r in recs])[order]
    ii = np.concatenate([r[3] for r in recs])[order]
    counts = np.bincount(kk, minlength=n)
    kmax = int(counts.max())
    jj = np.arange(len(kk)) - (np.cumsum(counts) - counts)[kk]
    pc = np.zeros((n, kmax), np.intp)
    ps = np.zeros((n, kmax), np.intp)
    pinv = np.zeros((n, kmax), np.int64)
    pc[kk, jj], ps[kk, jj], pinv[kk, jj] = cc, tt, ii
    return kk, jj, pc, ps, pinv


def _compact(keep: np.ndarray):
    """The kept slots of each matrix, in order, as (n, most kept) positions,
    and which of them are kept (None when every matrix keeps as many): a
    matrix that keeps fewer is padded with slots it does not keep."""
    if len(keep) == 1:
        return keep[0].nonzero()[0][None], None
    counts = keep.sum(1)
    most = int(counts.max())
    pos = np.argsort(~keep, axis=1, kind="stable")[:, :most]
    if counts.min() == most:
        return pos, None
    return pos, keep[np.arange(len(keep))[:, None], pos]


def _inverse_lower(lower: np.ndarray, inv: np.ndarray, p: int) -> np.ndarray:
    """(D + L)^-1 mod p in float64, for a stack of strictly lower triangular
    L (k x k) and D = diag(1/inv): with N = D^-1 L, nilpotent,
    (I + N)^-1 = (I - N)(I + N^2)(I + N^4)..., times D^-1 on the right.
    Every product is of residues over k <= ``_PANEL`` terms."""
    k = lower.shape[-1]
    nil = lower * inv[:, :, None] % p
    eye = np.eye(k, dtype=np.int64)
    x = (eye - nil) % p
    span = 2
    while span < k:
        f = nil.astype(np.float64)
        nil = np.matmul(f, f).astype(np.int64) % p
        x = np.matmul(x.astype(np.float64), (eye + nil).astype(np.float64)
                      ).astype(np.int64) % p
        span *= 2
    x *= inv[:, None, :]
    x %= p
    return x.astype(np.float64)


def _rref_mod_p(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int], list[int]]:
    """Row echelon form mod p: ``_rank_profiles`` on a stack of one matrix.

    Returns (m, pivots, pivot_rows): the rows of m below len(pivots) are
    zero, row i has a 1 at column pivots[i] and zeros to its left, and it
    comes from row pivot_rows[i] of mat.  Entries above a pivot are NOT
    cleared: this is echelon form, not reduced echelon form
    (``_nullspace_mod_p`` back-substitutes when it needs the reduced one).
    The name keeps "rref" only because the benchmark's tracer patches this
    function by name; renaming it waits for a change to the benchmark.

    The input is reduced once, on its way into ``_residue_dtype(p)``, and
    the echelon form comes back in that type.  The kernel leaves each
    echelon row in its pivot row; they are moved up in place, one cycle of
    the row permutation at a time, so no second copy of the matrix exists.
    """
    rows, cols = np.shape(mat)
    m = np.empty((1, rows, cols), _residue_dtype(p))
    np.remainder(mat, p, out=m[0], casting="unsafe")
    _, pivots, pivot_rows = _rank_profiles(m, p, echelon=True)
    m = m[0]
    # new row i is old row order[i]: the pivot rows first, then the rest
    order = np.concatenate([pivot_rows, np.setdiff1d(np.arange(rows), pivot_rows)])
    done = order == np.arange(rows)
    for i in np.flatnonzero(~done).tolist():
        if done[i]:
            continue
        held, j = m[i].copy(), i
        while order[j] != i:
            m[j] = m[order[j]]
            done[j] = True
            j = order[j]
        m[j] = held
        done[j] = True
    r = len(pivots)
    m[r:] = 0
    for b0 in range(0, r, _PANEL):       # zeros left of each pivot
        b1 = min(b0 + _PANEL, r)
        m[b0:b1] *= np.arange(cols) >= pivots[b0:b1, None]
    return m, pivots.tolist(), pivot_rows.tolist()


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


def blowup_leading_ranks(ctx: ReductionContext, big: np.ndarray, shapes) -> np.ndarray:
    """Ranks over F_{p^d} of the leading blocks m[:rows, :cols], one column
    per (rows, cols) in `shapes`, of every matrix m over F_q whose blow-up
    (``FqMatrix.blowup``) is a matrix of the stack `big` (n, rows*d, cols*d),
    from a single elimination of the stack; returns an (n, len(shapes))
    array.  `big` is a fresh stack in ``_residue_dtype(p)``, which the
    kernel eliminates in place.

    The leading F_q block is the leading (rows*d) x (cols*d) F_p block of
    the blow-up, so its rank is the number of pivots inside that block
    (see ``_rank_profiles``) divided by d.
    """
    d, n = ctx.d, len(big)
    mats, cols, rows = _rank_profiles(big, ctx.p)
    out = np.empty((n, len(shapes)), np.intp)
    for s, (i, j) in enumerate(shapes):
        out[:, s] = np.bincount(mats[(rows < i * d) & (cols < j * d)], minlength=n)
    return out // d


def mat_leading_ranks(m: FqMatrix, shapes) -> list[int]:
    """``blowup_leading_ranks`` of m's blow-up."""
    big = m.blowup().astype(_residue_dtype(m.ctx.p))[None]
    return blowup_leading_ranks(m.ctx, big, shapes)[0].tolist()


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
