"""Exact matrix algebra over F_{p^d}.

Matrices are stored as numpy int arrays of shape (rows, cols, d): entry
(i, j) is the coefficient vector of a field element.  Two eliminations
serve everything: a blocked kernel that only counts pivots, for ranks, and
a plain one over F_q, for determinants and null spaces.

Ranks run over F_p through the regular-representation blow-up, which
multiplies both dimensions by d and divides the resulting rank by d (at
d = 1 it is the matrix itself).  Every rank goes through one kernel,
``_rank_profiles``, which eliminates a whole stack of equally shaped
matrices, (n, rows, cols), in one column loop: right-looking blocked
forward elimination (the FFLAS-FFPACK design of Dumas, Giorgi and Pernet,
ACM TOMS 35, 2008).  Panels of ``_PANEL`` columns are factored exactly in
integers, held column-major so that the pivot search and the in-panel
updates run along contiguous memory, and the rest of each matrix is
updated by float64 matmuls, ``_PANEL`` rows at a time, so the kernel's
temporaries are O(n*``_PANEL``*cols) beside its residues.  That is exact
while ``_PANEL*(p-1)^2 < 2^53``, which holds for every p below 1.1e7; past
the bound the kernel raises ``InternalInvariantFailure`` rather than round.
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
``_rref_mod_p`` is the kernel on a stack of one matrix, and ``mat_rank``
counts its pivots.

Determinants, reduced echelon forms and null spaces come from
``_fq_echelon``: Gauss-Jordan elimination over F_q itself, one column at a
time with the context's field products.  No sweep calls it; ``mat_det``
serves ``criterion.det_T0_in_lam1``, and ``left_nullspace_vecs`` returns
the free-variable basis of a left null space at every d.
"""

from __future__ import annotations

import numpy as np

from .errors import InternalInvariantFailure, NotSquare
from .fields import FieldElement, ReductionContext

_PANEL = 64
_STACK = 2 ** 18  # residues in one stack of matrices eliminated together
_EXACT = 2 ** 53  # float64 holds every integer below this exactly
_INT32 = 2 ** 31  # int32 holds every integer of smaller magnitude


def _residue_dtype(p: int) -> type:
    """The kernel's integer type: int32 when a residue below p less
    ``_PANEL`` products of residues stays inside it, else int64."""
    return np.int32 if _PANEL * (p - 1) ** 2 + p < _INT32 else np.int64


def stack_slices(count: int, residues: int) -> list[slice]:
    """Consecutive slices of `count` matrices of `residues` entries each,
    every slice one stack of at most ``_STACK`` residues (or one matrix)."""
    step = max(1, _STACK // max(residues, 1))
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _rank_profiles(m: np.ndarray, p: int):
    """Pivots of every matrix of the stack m (n, rows, cols), by right-looking
    blocked forward elimination mod p; m is the caller's fresh stack in
    ``_residue_dtype(p)``, and it is reduced and eliminated in place.

    Returns three arrays (matrix, column, row), one entry per pivot, ordered
    by matrix and then by column: the pivots of matrix s are the rank
    profile of m[s], and rank(m[s][:i, :j]) = #{pivots of s with row < i and
    column < j} (see the module docstring).  What m holds afterwards is no
    echelon form: read only the pivots.

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
    if _PANEL * (p - 1) ** 2 >= _EXACT:
        raise InternalInvariantFailure(
            f"panel update: {_PANEL}*(p-1)^2 >= 2^53 at p={p}, "
            "so a float64 product of residues would round")
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
        if n == 1:
            # the column step with scalar indices: no per-matrix bookkeeping
            cs, ts, invs = _panel_one(pan[0], p)
            if not cs:
                continue
            kk, jj = np.zeros(len(cs), np.intp), np.arange(len(cs))
            pc, ps, pinv = np.array([cs]), np.array([ts]), np.array([invs], np.int64)
        else:
            recs = _panel_stack(pan, p)
            if not recs:
                continue
            kk, jj, pc, ps, pinv = _by_matrix(recs, n)
        prows = ps if idx is None else idx[at, ps]     # (n, kmax): rows of m
        found.append((kk, c0 + pc[kk, jj], prows[kk, jj]))
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
        del top
        idx = pos if idx is None else idx[at, pos]
        width = idx.shape[1]
        for b0 in range(0, width, _PANEL):
            # block - prod in float64 is an exact integer above -2^53.  A
            # padding slot is a row with a pivot: one from an earlier panel
            # has zero multipliers, and one from this panel is never read
            # again
            r = idx[:, b0:b0 + _PANEL]
            mult = lower[at, :, pos[:, b0:b0 + _PANEL]].astype(np.float64)
            block = m[at, r, c1:]
            prod = np.matmul(mult, ftop)
            np.subtract(block, prod, out=block, casting="unsafe")
            del prod
            block %= p
            m[at, r, c1:] = block
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


def _panel_one(pan: np.ndarray, p: int):
    """Eliminate the column-major panel (w, slots) of a single matrix; returns
    the pivots' panel columns, slots and inverted pivot values."""
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
        cs.append(c)
        ts.append(t)
        invs.append(inv)
        left -= 1
        if not left:
            break
    return cs, ts, invs


def _panel_stack(pan: np.ndarray, p: int) -> list[tuple]:
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


def _rref_mod_p(mat: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_rank_profiles`` on a stack of one matrix: (matrix, column, row) of
    each pivot, every matrix index 0, so the columns are mat's rank profile
    and each row is the row of mat that holds that pivot.  The input is
    reduced once, on its way into a fresh stack in ``_residue_dtype(p)``.
    The name outlives the echelon form this once returned because the
    benchmark's tracer patches this function by name; renaming it waits
    for a change to the benchmark.
    """
    rows, cols = np.shape(mat)
    m = np.empty((1, rows, cols), _residue_dtype(p))
    np.remainder(mat, p, out=m[0], casting="unsafe")
    return _rank_profiles(m, p)


def _rank_mod_p(mat: np.ndarray, p: int) -> int:
    if mat.size == 0:
        return 0
    return len(_rref_mod_p(mat, p)[1])


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


def _fq_echelon(ctx: ReductionContext, arr: np.ndarray):
    """Reduced row echelon form of arr (rows, cols, d) over F_q, by
    Gauss-Jordan elimination with row swaps.

    Returns (the form, its pivot columns, det): the form has arr's shape,
    with its zero rows last, and det is the determinant as a vec when arr
    is square, else None.  Each column takes one field inverse and one
    batched product of the pivot row with every row's multiplier.
    """
    p = ctx.p
    m = np.remainder(arr, p, dtype=np.int64)
    rows, cols = m.shape[:2]
    pivots = []
    det = ctx.one.vec
    for c in range(cols):
        r = len(pivots)
        nz = np.flatnonzero(m[r:, c].any(axis=1))
        if not nz.size:
            continue
        if nz[0]:
            m[[r, r + nz[0]]] = m[[r + nz[0], r]]
            det = ctx.fneg(det)
        pivot = tuple(m[r, c].tolist())
        det = ctx.fmul(det, pivot)
        m[r] = m[r] @ ctx.mul_matrix(ctx.finv(pivot)) % p
        mult = m[:, c].copy()
        mult[r] = 0
        m -= m[r] @ ctx.mul_matrix(mult)        # row i less mult[i] * row r
        m %= p
        pivots.append(c)
    if rows != cols:
        return m, pivots, None
    return m, pivots, det if len(pivots) == rows else ctx.zero.vec


def mat_det(m: FqMatrix) -> FieldElement:
    """Exact determinant by elimination over the field."""
    if m.nrows != m.ncols:
        raise NotSquare(f"{m.nrows}x{m.ncols} matrix has no determinant")
    return FieldElement(m.ctx, _fq_echelon(m.ctx, m.arr)[2])


def left_nullspace_vecs(m: FqMatrix) -> np.ndarray:
    """Basis of {v : v*M = 0}, stacked as an array (k, rows, d); deterministic.

    The free-variable basis of the null space of M^T: vector k has a 1 at
    the k-th free column of M^T's reduced echelon form, zeros at the other
    free columns and minus that column's entries at the pivot columns.
    """
    ech, pivots, _ = _fq_echelon(m.ctx, m.arr.transpose(1, 0, 2))
    free = np.setdiff1d(np.arange(m.nrows), pivots)
    basis = np.zeros((len(free), m.nrows, m.ctx.d), np.int64)
    basis[np.arange(len(free)), free, 0] = 1
    basis[:, pivots] = -ech[:len(pivots), free].transpose(1, 0, 2) % m.ctx.p
    return basis


def mat_left_nullspace(m: FqMatrix) -> list[list[FieldElement]]:
    """Basis of the left null space as FieldElement rows."""
    ctx = m.ctx
    basis = left_nullspace_vecs(m).tolist()
    return [[FieldElement(ctx, tuple(v)) for v in row] for row in basis]
