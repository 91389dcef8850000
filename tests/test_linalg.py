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
