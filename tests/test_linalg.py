import random

import numpy as np
import pytest

from higgsflow.errors import NotSquare
from higgsflow.fields import make_context
from higgsflow.linalg import FqMatrix, mat_det, mat_left_nullspace, mat_rank


def test_det_examples():
    ctx = make_context(3, 1)
    m = FqMatrix.from_int_rows(ctx, [[0, 2, 0], [2, 0, 2], [0, 2, 0]])
    assert mat_det(m) == ctx.zero
    eye = FqMatrix.from_int_rows(ctx, np.eye(5, dtype=int).tolist())
    assert mat_det(eye) == ctx.one
    with pytest.raises(NotSquare):
        mat_det(FqMatrix.from_int_rows(ctx, [[1, 2, 0], [0, 1, 1]]))


def test_rank_examples():
    ctx = make_context(3, 1)
    assert mat_rank(FqMatrix.from_int_rows(ctx, [[0, 2, 0, 1], [2, 0, 2, 0]])) == 2
    assert mat_rank(FqMatrix.from_int_rows(ctx, [[0, 0], [0, 0]])) == 0


def test_rank_equals_rank_of_transpose():
    rng = random.Random(50)
    for _ in range(50):
        p = rng.choice((3, 5, 7))
        ctx = make_context(p, 1)
        rows = [[rng.randrange(p) for _ in range(rng.randrange(1, 6))]
                for _ in range(rng.randrange(1, 6))]
        width = max(len(r) for r in rows)
        rows = [r + [0] * (width - len(r)) for r in rows]
        m = FqMatrix.from_int_rows(ctx, rows)
        assert mat_rank(m) == mat_rank(m.transpose())


def test_left_nullspace_examples():
    ctx = make_context(3, 1)
    m = FqMatrix.from_int_rows(ctx, [[2, 1, 0], [1, 2, 1], [0, 1, 2], [2, 0, 1]])
    basis = mat_left_nullspace(m)
    assert [[e.index() for e in row] for row in basis] == [[2, 0, 1, 1]]
    eye = FqMatrix.from_int_rows(ctx, [[1, 0], [0, 1]])
    assert mat_left_nullspace(eye) == []
    zero_row = FqMatrix.from_int_rows(ctx, [[0, 0, 0]])
    assert mat_left_nullspace(zero_row) == [[ctx.one]]


def test_rank_nullity():
    rng = random.Random(31)
    for _ in range(200):
        p = rng.choice((3, 5))
        d = rng.choice((1, 2))
        ctx = make_context(p, d)
        nr, nc = rng.randrange(1, 6), rng.randrange(1, 6)
        arr = np.array([[[rng.randrange(p) for _ in range(d)]
                         for _ in range(nc)] for _ in range(nr)], dtype=np.int64)
        m = FqMatrix(ctx, arr)
        assert mat_rank(m) + len(mat_left_nullspace(m)) == nr


def _det_reference(ctx, rows):
    """Cofactor expansion, as an independent oracle for small sizes."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = ctx.zero
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * _det_reference(ctx, minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def test_det_and_rank_match_reference_extension_field():
    rng = random.Random(6)
    ctx = make_context(3, 2)
    for _ in range(60):
        n = rng.randrange(1, 5)
        rows = [[ctx.f_from_index(rng.randrange(9)) for _ in range(n)]
                for _ in range(n)]
        m = FqMatrix.from_rows(ctx, rows)
        det = mat_det(m)
        assert det == _det_reference(ctx, rows)
        if det.is_zero():
            assert mat_rank(m) < n
        else:
            assert mat_rank(m) == n


def test_left_null_vectors_annihilate_extension_field():
    rng = random.Random(7)
    ctx = make_context(5, 2)
    for _ in range(40):
        nr, nc = rng.randrange(1, 5), rng.randrange(1, 5)
        rows = [[ctx.f_from_index(rng.randrange(25)) for _ in range(nc)]
                for _ in range(nr)]
        m = FqMatrix.from_rows(ctx, rows)
        for v in mat_left_nullspace(m):
            assert any(not e.is_zero() for e in v)
            for j in range(nc):
                acc = ctx.zero
                for i in range(nr):
                    acc = acc + v[i] * rows[i][j]
                assert acc.is_zero()


def test_blowup_rank_is_multiple_of_degree():
    ctx = make_context(3, 2)
    arr = np.zeros((2, 3, 2), dtype=np.int64)
    arr[0, 0] = (1, 1)
    arr[1, 2] = (0, 2)
    m = FqMatrix(ctx, arr)
    from higgsflow.linalg import _rank_mod_p
    assert _rank_mod_p(m.blowup(), 3) == 2 * mat_rank(m)


def _einsum_blowup(m):
    """The blow-up by its definition: row (i, k) holds x^k times row i."""
    ctx = m.ctx
    big = np.einsum("rci,ikl->rkcl", m.arr, ctx.basis_products)
    return big.reshape(m.nrows * ctx.d, m.ncols * ctx.d) % ctx.p


@pytest.mark.parametrize("p, d", [(3, 1), (401, 1), (3, 2), (5, 2), (173, 2), (9973, 2)])
def test_blowup_matches_einsum_reference(p, d):
    # unreduced and negative entries, and a transposed (strided) operand
    rng = np.random.default_rng([p, d])
    ctx = make_context(p, d)
    arr = rng.integers(-3 * p, 3 * p, (7, 12, d))
    for m in (FqMatrix(ctx, arr), FqMatrix(ctx, arr).transpose()):
        big = m.blowup()
        assert big.shape == (m.nrows * d, m.ncols * d)
        assert np.array_equal(big, _einsum_blowup(m))
    if d == 1:
        assert np.array_equal(FqMatrix(ctx, arr).blowup(), arr[:, :, 0] % p)


# -- the blocked kernel against sympy's DomainMatrix over GF(p) ----------------

ORACLE_PRIMES = (2, 3, 401, 9973)
EDGE_COLS = (1, 63, 64, 65, 129)     # one column, either side of a panel, two panels


def _oracle(a, p):
    """(pivot columns, null-space basis) of a over GF(p), from sympy."""
    from sympy import GF, ZZ
    from sympy.polys.matrices import DomainMatrix

    dm = DomainMatrix(a.tolist(), a.shape, ZZ).convert_to(GF(p)).to_sparse()
    rref, pivots = dm.rref()
    basis = [[int(x) % p for x in row] for row in rref.nullspace().to_list()]
    return list(pivots), basis


def _check_against_oracle(a, p):
    """The kernel's pivots and rank, and the F_q elimination's null space
    of a (the left null space of a^T) at odd p, against sympy."""
    from higgsflow.linalg import _rank_mod_p, _rref_mod_p, left_nullspace_vecs

    pivots, basis = _oracle(a, p)
    assert _rref_mod_p(a, p)[1].tolist() == pivots
    assert _rank_mod_p(a, p) == len(pivots)
    if p > 2:                            # F_2 has no context
        null = left_nullspace_vecs(FqMatrix(make_context(p, 1), a.T[:, :, None]))
        assert null[:, :, 0].tolist() == basis
    return pivots


def _with_profile(rng, rows, cols, pivots, p, zero_cols=()):
    """A rows x cols matrix whose pivot columns are exactly `pivots`.

    Its rows mix the echelon rows with a row-permuted unit lower
    triangular matrix, so the rank is exact at every p and pivoting has
    to move rows; `zero_cols` are all zero.
    """
    r = len(pivots)
    ech = np.zeros((r, cols), np.int64)
    for i, c in enumerate(pivots):
        ech[i, c] = 1
        ech[i, c + 1:] = rng.integers(0, p, cols - c - 1)
    ech[:, list(zero_cols)] = 0
    mix = rng.integers(0, p, (rows, r))
    mix[:r] = np.tril(mix[:r], -1) + np.eye(r, dtype=np.int64)
    return mix[rng.permutation(rows)] @ ech % p


def _rows(cols, orient):
    return max(cols // 8, 1) if orient == "wide" else cols + 5


def _check_rank_zero_and_full(p, cols, orient):
    rng = np.random.default_rng([p, cols, len(orient)])
    rows = _rows(cols, orient)
    assert _check_against_oracle(np.zeros((rows, cols), np.int64), p) == []
    full = min(rows, cols)
    # a wide matrix's pivots spread over every panel, a tall one's fill them
    pivots = sorted(rng.choice(cols, full, replace=False).tolist())
    a = _with_profile(rng, rows, cols, pivots, p)
    assert _check_against_oracle(a, p) == pivots


@pytest.mark.parametrize("cols", EDGE_COLS)
@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_kernel_wide_rank_zero_and_full_match_oracle(p, cols):
    _check_rank_zero_and_full(p, cols, "wide")


# the oracle's cost grows as cols^3 on a tall full-rank matrix: each
# width meets one prime, and every prime meets a width
@pytest.mark.parametrize("p,cols", [(2, 1), (3, 63), (401, 64), (9973, 65), (2, 129)])
def test_kernel_tall_rank_zero_and_full_match_oracle(p, cols):
    _check_rank_zero_and_full(p, cols, "tall")


@pytest.mark.parametrize("orient", ["wide", "tall"])
@pytest.mark.parametrize("cols", EDGE_COLS[1:])
@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_kernel_zero_columns_and_empty_panels_match_oracle(p, cols, orient):
    # no pivot in the first panel, and all-zero columns among the later ones
    rng = np.random.default_rng([p, cols, len(orient), 1])
    rows = _rows(cols, orient)
    late = range(min(64, cols - 1), cols)
    pivots = sorted(rng.choice(late, min(len(late), rows, 6), replace=False).tolist())
    zero = [c for c in late[1::3] if c not in pivots]
    a = _with_profile(rng, rows, cols, pivots, p, zero)
    assert _check_against_oracle(a, p) == pivots
    # the same rows again: a square and a tall stack whose rank stays put
    assert _check_against_oracle(np.vstack([a, a[::-1]]), p) == pivots


@pytest.mark.parametrize("p", ORACLE_PRIMES[1:])
def test_kernel_on_degree_two_blowups_matches_oracle(p):
    # 40 x 33 over F_{p^2} is 80 x 66 over F_p: both sides of a panel edge
    rng = np.random.default_rng(p)
    ctx = make_context(p, 2)
    arr = rng.integers(0, p, (40, 33, 2))
    arr[:, 5] = 0
    arr[:, 20:24] = arr[:, 1:5]          # equal columns over F_{p^2}
    arr[30:] = arr[:10]                  # equal rows over F_{p^2}
    for m in (FqMatrix(ctx, arr), FqMatrix(ctx, arr).transpose()):
        big = m.blowup()
        pivots = _check_against_oracle(big, p)
        assert len(pivots) % 2 == 0 and len(pivots) // 2 == mat_rank(m)


@pytest.mark.parametrize("width", [1, 3])
def test_kernel_narrow_panels_match_oracle(monkeypatch, width):
    # many panel edges on small matrices: every pivot lands at some offset
    import higgsflow.linalg as linalg

    monkeypatch.setattr(linalg, "_PANEL", width)
    rng = np.random.default_rng(width)
    for p in (2, 3, 401, 9973):
        for rows, cols in ((7, 20), (20, 7), (13, 13)):
            pivots = sorted(rng.choice(cols, min(rows, cols) // 2, replace=False).tolist())
            a = _with_profile(rng, rows, cols, pivots, p, [c for c in range(cols)
                                                           if c % 5 == 4 and c not in pivots])
            assert _check_against_oracle(a, p) == pivots


def _sympy_rank(a, p):
    from sympy import GF, ZZ
    from sympy.polys.matrices import DomainMatrix

    return DomainMatrix(a.tolist(), a.shape, ZZ).convert_to(GF(p)).rank()


def _check_leading_ranks(a, p, reference):
    """Every leading block's rank, read off one elimination, against
    `reference` run on the explicit block."""
    from higgsflow.linalg import _rref_mod_p

    _, cols, rows = _rref_mod_p(a, p)
    assert len(set(rows.tolist())) == len(rows)
    for i in range(a.shape[0] + 1):
        for j in range(a.shape[1] + 1):
            got = int(np.count_nonzero((rows < i) & (cols < j)))
            assert got == (reference(a[:i, :j], p) if i and j else 0), (i, j)


@pytest.mark.parametrize("width", [1, 3, 64])
def test_leading_block_ranks_match_sympy(monkeypatch, width):
    # planted-profile matrices with their rows permuted, so that pivots are
    # found below their target rows; narrow panels put panel edges everywhere
    import higgsflow.linalg as linalg

    monkeypatch.setattr(linalg, "_PANEL", width)
    rng = np.random.default_rng([width, 2])
    for p in (2, 3, 401, 9973):
        for rows, cols in ((7, 12), (12, 7), (9, 9)):
            pivots = sorted(rng.choice(cols, min(rows, cols) - 2, replace=False).tolist())
            a = _with_profile(rng, rows, cols, pivots, p, [c for c in range(cols)
                                                           if c % 4 == 3 and c not in pivots])
            _check_leading_ranks(a, p, _sympy_rank)


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_leading_block_ranks_across_panel_edges_match_mat_rank(p):
    # 70 columns cross the default panel edge; the reference rank of each
    # block comes from its own elimination, which sympy checks above
    from higgsflow.linalg import _rank_mod_p

    rng = np.random.default_rng([p, 3])
    rows, cols = 12, 70
    pivots = sorted(rng.choice(cols, 9, replace=False).tolist())
    a = _with_profile(rng, rows, cols, pivots, p, [60, 66])
    _check_leading_ranks(a, p, _rank_mod_p)
    _check_leading_ranks(a.T.copy(), p, _rank_mod_p)


def test_mat_leading_ranks_on_blowups_match_mat_rank():
    from linalg_reference import mat_leading_ranks

    rng = np.random.default_rng(8)
    for p, d in ((3, 2), (5, 2), (401, 2), (3, 1)):
        ctx = make_context(p, d)
        arr = rng.integers(0, p, (9, 11, d))
        arr[:, 4] = 0
        arr[6:] = arr[1:4]                    # rows repeat over F_q
        arr[:, 8:] = arr[:, 1:4] + arr[:, 2:5]
        m = FqMatrix(ctx, arr)
        shapes = [(i, j) for i in range(10) for j in range(12)]
        got = mat_leading_ranks(m, shapes)
        assert got == [mat_rank(m.submatrix(i, j)) for i, j in shapes]


def test_kernel_refuses_a_prime_where_float64_products_would_round():
    from higgsflow.errors import InternalInvariantFailure
    from higgsflow.linalg import _rank_mod_p

    p = 2 ** 31 - 1
    a = np.array([[1, 2], [3, 4]], np.int64)
    with pytest.raises(InternalInvariantFailure, match=r"2\^53"):
        _rank_mod_p(a, p)


def _pile_up(p, width, rng, below=6):
    """Unit pivot rows over the first `width` columns, p-1 right of them,
    and `below` rows below with p-1 in those columns: each trailing entry
    below the pivots takes `width` products (p-1)^2 in one panel update,
    and the all-zero last row lands on exactly -width*(p-1)^2."""
    a = np.zeros((width + below, width + 40), np.int64)
    a[:width, :width] = np.eye(width, dtype=np.int64)
    a[:width, width:] = p - 1
    a[width:, :width] = p - 1
    a[width:-1, width:] = rng.integers(0, p, (below - 1, 40))
    return a


# 64*(p-1)^2 + p < 2^31 up to p = 5791; 5801 is the next prime
@pytest.mark.parametrize("p, dtype", [(5791, np.int32), (5801, np.int64)])
def test_kernel_either_side_of_the_int32_bound_matches_oracle(p, dtype):
    from higgsflow.linalg import _PANEL, _residue_dtype

    assert _residue_dtype(p) is dtype
    rng = np.random.default_rng(p)
    _check_against_oracle(_pile_up(p, _PANEL, rng), p)
    _check_against_oracle(rng.integers(0, p, (70, 140)), p)
    pivots = sorted(rng.choice(140, 60, replace=False).tolist())
    a = _with_profile(rng, 75, 140, pivots, p, [c for c in range(140)
                                                if c % 9 == 8 and c not in pivots])
    assert _check_against_oracle(a, p) == pivots


def test_narrower_panel_moves_the_int32_bound(monkeypatch):
    # 32*(p-1)^2 + p < 2^31 up to p = 8191; 8209 is the next prime
    import higgsflow.linalg as linalg

    assert linalg._residue_dtype(5801) is np.int64
    monkeypatch.setattr(linalg, "_PANEL", 32)
    assert linalg._residue_dtype(5801) is np.int32
    assert linalg._residue_dtype(8191) is np.int32
    assert linalg._residue_dtype(8209) is np.int64
    rng = np.random.default_rng(32)
    for p in (8191, 8209):
        _check_against_oracle(_pile_up(p, 32, rng), p)


def test_kernel_holds_one_panel_product_at_a_time():
    # each panel's trailing update runs _PANEL rows at a time: besides the
    # int32 residues the kernel holds a few (_PANEL, cols) float64 blocks,
    # never a product as large as the matrix
    import tracemalloc

    from higgsflow.linalg import _PANEL, _rref_mod_p

    p, n = 401, 640
    a = np.random.default_rng(1).integers(0, p, (n, n))
    tracemalloc.start()
    try:
        _rref_mod_p(a, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    residues, block = n * n * 4, _PANEL * n * 8
    assert peak <= residues + 5 * block


# 64 rows of trailing update per block at the default width; 5791 is the
# largest prime whose pile-up of 64 products stays in int32
@pytest.mark.parametrize("width, p", [(4, 401), (8, 9973), (64, 5791)])
def test_trailing_update_in_row_blocks_matches_oracle(monkeypatch, width, p):
    # matrices several row blocks tall: the rows below each panel's pivots
    # are updated _PANEL at a time, and the last one lands on -width*(p-1)^2
    import higgsflow.linalg as linalg

    monkeypatch.setattr(linalg, "_PANEL", width)
    rng = np.random.default_rng([width, p])
    _check_against_oracle(_pile_up(p, width, rng, below=3 * width + 5), p)
    rows, cols = 4 * width + 7, 2 * width + 9
    pivots = sorted(rng.choice(cols, cols - 3, replace=False).tolist())
    a = _with_profile(rng, rows, cols, pivots, p, [c for c in range(cols)
                                                   if c % 7 == 6 and c not in pivots])
    assert _check_against_oracle(a, p) == pivots


# -- the stacked kernel: one column loop over a stack of matrices ---------------

def _stack_cases(rng, p, rows, cols):
    """Stacks (n, rows, cols) with n in {1, 2, 7}: a zero matrix, equal
    matrices, and planted profiles that differ between the matrices, so
    some columns pivot in only some of them."""
    def planted(rank):
        pivots = sorted(rng.choice(cols, rank, replace=False).tolist())
        return _with_profile(rng, rows, cols, pivots, p,
                             [c for c in range(cols) if c % 6 == 5 and c not in pivots])

    top = min(rows, cols)
    yield np.stack([planted(top // 2)])
    yield np.stack([np.zeros((rows, cols), np.int64), planted(top - 1)])
    mats = [planted(int(r)) for r in rng.integers(0, top + 1, 4)]
    mats += [np.zeros((rows, cols), np.int64), mats[0], rng.integers(0, p, (rows, cols))]
    yield np.stack(mats)


@pytest.mark.parametrize("width", [1, 3, 64])
@pytest.mark.parametrize("p", [3, 401, 9973])
def test_stacked_kernel_matches_each_matrix_alone_and_sympy(monkeypatch, p, width):
    import higgsflow.linalg as linalg
    from sympy import GF, ZZ
    from sympy.polys.matrices import DomainMatrix

    monkeypatch.setattr(linalg, "_PANEL", width)
    rng = np.random.default_rng([p, width])
    ctx = make_context(p, 1)
    shapes = [(i, j) for i in (0, 3, 9, 20) for j in (0, 5, 40, 70)]
    for rows, cols in ((9, 70), (20, 13), (70, 20)):
        for stack in _stack_cases(rng, p, rows, cols):
            mats, got_cols, got_rows = linalg._rank_profiles(
                stack.astype(linalg._residue_dtype(p)), p)
            leading = linalg.blowup_leading_ranks(
                ctx, stack.astype(linalg._residue_dtype(p)), shapes)
            assert leading.shape == (len(stack), len(shapes))
            for s, a in enumerate(stack):
                _, pivots, pivot_rows = linalg._rref_mod_p(a, p)
                assert got_cols[mats == s].tolist() == pivots.tolist()
                assert got_rows[mats == s].tolist() == pivot_rows.tolist()
                dm = DomainMatrix(a.tolist(), a.shape, ZZ).convert_to(GF(p))
                assert pivots.tolist() == list(dm.to_sparse().rref()[1])
                # each leading block eliminated on its own
                assert leading[s].tolist() == [linalg._rank_mod_p(a[:i, :j], p)
                                               for i, j in shapes]


def test_stack_slices_cap_the_residues_of_a_stack():
    from higgsflow.linalg import _STACK, stack_slices

    # enumerate 31 with cech: 899 ansatzes of about 100 x 103 residues
    parts = stack_slices(899, 100 * 103)
    assert [i for part in parts for i in range(899)[part]] == list(range(899))
    assert max(len(range(899)[part]) for part in parts) * 100 * 103 <= _STACK
    # a matrix larger than the cap is a stack of its own
    assert stack_slices(3, 2 * _STACK) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    assert stack_slices(0, 10) == []


# the F_q elimination serves determinants and null spaces only: every sweep's
# ranks come from the kernel (sha256 of stdout)
@pytest.mark.parametrize("argv, digest", [
    (("enumerate", "5", "--methods", "t,birkhoff,cech"),
     "f972633d84f2710a5f04b352ec858b9475d1259be6219fd605ca76097d4ad5ba"),
    (("beauville", "--prime-range", "5:13"),
     "b92765332032001571c0341ed5024416a77b78588897b9da9c7a797d1851c444"),
], ids=["enumerate-5", "beauville-5-13"])
def test_no_sweep_reaches_the_field_elimination(monkeypatch, capsys, argv, digest):
    import hashlib

    import higgsflow.linalg as linalg
    from higgsflow.cli import main

    def refuse(ctx, arr):
        raise AssertionError("a sweep reached _fq_echelon")

    monkeypatch.setattr(linalg, "_fq_echelon", refuse)
    assert main(list(argv)) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
