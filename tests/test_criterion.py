import random
import tracemalloc

import numpy as np
import pytest

from higgsflow.cocycle import binomial_over_p, build_A_closed, build_A_primitive
from higgsflow.criterion import (build_T, det_T0_in_lam1, periodicity_pair,
                                 remainder_system, splitting_from_T, splittings_from_T,
                                 t_r_first_mismatch, t_submatrix, validate_T_R)
from higgsflow.errors import DegreeTooLarge, ForbiddenResidue, IndexOutOfRange
from higgsflow.fields import make_context
from higgsflow.linalg import FqMatrix, _PANEL, _residue_dtype, mat_rank
from higgsflow.polys import Poly, poly_divrem

from certificate_reference import z_minus_one_pow
from linalg_reference import mat_leading_ranks


def P(ctx, *ints):
    return Poly.from_ints(ctx, ints)


def _ints(mat):
    return mat.arr[:, :, 0].tolist()


def test_build_T_worked_example():
    ctx = make_context(3, 1)
    for b in range(3):
        tm = build_T(build_A_closed(ctx, ctx.f_from_int(2), ctx.f_from_int(b)))
        assert _ints(tm.T)[1] == [2, b, 2, 0, 0, 0, 0]
        # diagonal is lam1, tail beyond column 2p-i is zero
        for i in range(3):
            assert tm.T.entry(i, i) == ctx.f_from_int(b)
            assert all(v == 0 for v in _ints(tm.T)[i][6 - i:])


def test_build_T_rejects_bad_lam0():
    # no cocycle, and so no T, exists at a residue 0 or 1, by either construction
    ctx = make_context(3, 1)
    for bad in (ctx.zero, ctx.one):
        with pytest.raises(ForbiddenResidue):
            build_T(build_A_closed(ctx, bad, ctx.one))
        with pytest.raises(ForbiddenResidue):
            build_T(build_A_primitive(ctx, ctx.w_from_coeffs(bad.coeffs())))


def test_build_T_agrees_between_fast_and_generic_paths():
    # T over F_p must match T over F_{p^2} built from the embedded scalars
    p = 5
    c1 = make_context(p, 1)
    c2 = make_context(p, 2)
    for a in range(2, p):
        for b in range(p):
            t1 = build_T(build_A_closed(c1, c1.f_from_int(a), c1.f_from_int(b)))
            t2 = build_T(build_A_closed(c2, c2.f_from_int(a), c2.f_from_int(b)))
            for i in range(p):
                for j in range(2 * p + 1):
                    assert t1.T.entry(i, j).coeffs() == t2.T.entry(i, j).coeffs()[:1]
                    assert t2.T.entry(i, j).coeffs()[1] == 0


def _T_by_entry_formula(ctx, lam0, lam1):
    """T from the four-case entry formula, 1-indexed, with c_k = C(p,k)/p:
      diagonal           lam1
      i > j              (-1)^(i-j+1) c_(i-j)   (1 - lam0^(i-j))
      i < j <= p         (-1)^(j-i+1) c_(p-j+i) (lam0^(p-j+i) - lam0^p)
      p < j <= 2p-i      (-1)^(i+j-p-1) c_(i+j-p-1) (1 - lam0^(i+j-p-1))
      j > 2p-i           0
    """
    p = ctx.p

    def term(sign, k, value):
        return ctx.f_from_int((-1) ** sign * binomial_over_p(p, k)) * value

    rows = []
    for i in range(1, p + 1):
        row = []
        for j in range(1, 2 * p + 2):
            k = i + j - p - 1
            if i == j:
                want = lam1
            elif i > j:
                want = term(i - j + 1, i - j, ctx.one - lam0 ** (i - j))
            elif j <= p:
                want = term(j - i + 1, p - j + i, lam0 ** (p - j + i) - lam0 ** p)
            elif j <= 2 * p - i:
                want = term(k, k, ctx.one - lam0 ** k)
            else:
                want = ctx.zero
            row.append(list(want.vec))
        rows.append(row)
    return rows


@pytest.mark.parametrize("p, d", [(3, 1), (5, 1), (7, 1), (11, 1), (3, 2), (5, 2)])
def test_build_T_matches_entry_formula(p, d):
    # every entry, for every lam0 outside {0, 1} and three lam1 each, against
    # the four-case formula: a second transcription, independent of A's table
    ctx = make_context(p, d)
    rng = random.Random(10 * p + d)
    for lam0 in ctx.field_elements():
        if lam0.is_zero() or lam0 == ctx.one:
            continue
        for b in rng.sample(range(ctx.q), 3):
            lam1 = ctx.f_from_index(b)
            T = build_T(build_A_closed(ctx, lam0, lam1)).T
            assert T.arr.tolist() == _T_by_entry_formula(ctx, lam0, lam1), \
                (lam0, lam1)


def _random_cocycle(ctx, seed):
    rng = random.Random(seed)
    lam0 = ctx.f_from_index(rng.randrange(2, ctx.q))    # index 0 is 0, 1 is 1
    return build_A_closed(ctx, lam0, ctx.f_from_index(rng.randrange(ctx.q)))


@pytest.mark.parametrize("p, d", [(3, 1), (7, 1), (401, 1), (3, 2), (5, 2), (11, 2), (173, 2)])
def test_build_T_realisation_is_the_blowup_of_T(p, d):
    # the leading columns an elimination reads, written from the blown-up
    # tables in the kernel's residue type, are those of T's blow-up
    ctx = make_context(p, d)
    for seed in range(2):
        tm = build_T(_random_cocycle(ctx, 100 * p + 10 * d + seed))
        full = tm.T.blowup()
        assert full.shape == (p * d, (2 * p + 1) * d)
        for m in (1, p - 1):
            big = tm.realisation(p + m)
            assert big.dtype == _residue_dtype(p)
            assert np.array_equal(big, full[:, :(p + m) * d])
        assert np.array_equal(tm.realisation(2 * p + 1), full)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.mark.parametrize("p, d", [(401, 1), (173, 2)])
def test_build_T_allocates_only_the_tables(p, d):
    # build_T keeps the two blown-up tables, (2p-1)*d*d entries each, and
    # writes no part of the (p*d) x ((2p+1)*d) realisation: O(p*d^2) bytes
    ctx = make_context(p, d)
    co = build_A_closed(ctx, ctx.f_from_int(2), ctx.f_from_int(3))
    tm, peak = _traced_peak(build_T, co)
    assert tm.tables.shape == (2 * (2 * p - 1), d, d)
    assert peak <= 6 * tm.tables.nbytes


@pytest.mark.parametrize("p, d", [(401, 1), (173, 2)])
def test_t_row_peaks_near_the_block_it_eliminates(p, d):
    # a row with n <= 1 eliminates T's first p+1 columns, written in the
    # kernel's residue type: it holds that block, the kernel's copy of it
    # and O(_PANEL) rows of temporaries, not T's whole realisation
    ctx = make_context(p, d)
    co = build_A_closed(ctx, ctx.f_from_int(2), ctx.f_from_int(3))
    split, peak = _traced_peak(splitting_from_T, co)
    assert split.n <= 1
    block = p * d * (p + 1) * d * np.dtype(_residue_dtype(p)).itemsize
    assert peak <= 4 * block


@pytest.mark.parametrize("p, d", [(401, 1), (173, 2)])
def test_t_row_holds_one_realisation_and_a_few_strips(p, d):
    # the kernel eliminates the block _t_ranks wrote in place: no copy of
    # it, only a few _PANEL-row float64 strips of its width
    ctx = make_context(p, d)
    co = build_A_closed(ctx, ctx.f_from_int(2), ctx.f_from_int(3))
    _, peak = _traced_peak(splitting_from_T, co)
    cols = (p + 1) * d
    block = p * d * cols * np.dtype(_residue_dtype(p)).itemsize
    assert peak <= block + 4 * _PANEL * cols * 8


def test_t_row_at_p_2003_stays_below_40_mb():
    # lambda = -1 has n = 1 at p = 2003; one elimination of 2003 x 2004
    # residues in int32 is 16 MB, the whole int64 realisation 64 MB
    ctx = make_context(2003, 1)
    co = build_A_primitive(ctx, ctx.w_from_int(-1))
    split, peak = _traced_peak(splitting_from_T, co)
    assert split.n == 1
    assert peak <= 40e6


def test_t_method_never_blows_T_up(monkeypatch):
    # every rank of the t method reads the realisation build_T wrote; the
    # w = 9 rows at p = 5 have n = 2, so they take the second elimination too
    def refuse(self):
        raise AssertionError("FqMatrix.blowup called")

    monkeypatch.setattr(FqMatrix, "blowup", refuse)
    for p, d in ((5, 1), (5, 2)):
        ctx = make_context(p, d)
        assert splitting_from_T(build_A_primitive(ctx, ctx.w_from_int(9))).n == 2
    for p, d in ((401, 1), (173, 2)):
        co = _random_cocycle(make_context(p, d), p)
        splitting_from_T(co)
        periodicity_pair(co)


def test_t_submatrix():
    ctx = make_context(3, 1)
    tm = build_T(build_A_closed(ctx, ctx.f_from_int(2), ctx.zero))
    assert t_submatrix(tm, 0).arr.shape[:2] == (3, 3)
    assert _ints(t_submatrix(tm, 1)) == [[0, 2, 0, 1], [2, 0, 2, 0]]
    with pytest.raises(IndexOutOfRange):
        t_submatrix(tm, 3)
    with pytest.raises(IndexOutOfRange):
        t_submatrix(tm, -1)


def test_periodicity_pair_micro_cases():
    ctx = make_context(3, 1)
    two = ctx.f_from_int(2)
    assert periodicity_pair(build_A_closed(ctx, two, ctx.zero)) is True
    assert periodicity_pair(build_A_closed(ctx, two, ctx.one)) is False
    assert periodicity_pair(build_A_closed(ctx, two, two)) is False


def test_splitting_from_T_micro_cases():
    ctx = make_context(3, 1)
    two = ctx.f_from_int(2)
    assert splitting_from_T(build_A_closed(ctx, two, ctx.one)).n == 0
    st = splitting_from_T(build_A_closed(ctx, two, ctx.zero))
    assert st.n == 1
    assert st.periodic and st.method == "t"


def test_periodicity_iff_splitting_one_exhaustive():
    for p in (3, 5, 7):
        ctx = make_context(p, 1)
        for a in range(2, p):
            for b in range(p):
                co = build_A_closed(ctx, ctx.f_from_int(a), ctx.f_from_int(b))
                assert periodicity_pair(co) == (splitting_from_T(co).n == 1)


def _lifts(p, d):
    """The cocycle of every lift at (p, d), built as the sweeps build it."""
    ctx = make_context(p, d)
    for w in ctx.witt_elements():
        r = w.residue()
        if not (r.is_zero() or r == ctx.one):
            yield build_A_primitive(ctx, w)


def test_leading_ranks_of_T_match_mat_rank():
    # every leading block of T, not only the T_m, from one elimination
    for p, d, picks in ((3, 1, 3), (5, 1, 6), (7, 1, 4), (3, 2, 6), (5, 2, 2)):
        for co in list(_lifts(p, d))[::7][:picks]:
            T = build_T(co).T
            shapes = [(i, j) for i in range(p + 1) for j in range(2 * p + 2)]
            assert mat_leading_ranks(T, shapes) == \
                [mat_rank(T.submatrix(i, j)) for i, j in shapes]


def test_splitting_from_T_equals_per_m_rank_scan_exhaustive():
    # all 933 lifts at d = 1, p <= 13 and d = 2, p <= 5, against the scan
    # that eliminates each T_m on its own
    cases, beyond_one = 0, 0
    for p, d in ((3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (3, 2), (5, 2)):
        for co in _lifts(p, d):
            tm = build_T(co)
            n = next((m for m in range(p)
                      if mat_rank(t_submatrix(tm, m)) == p - m), p)
            assert splitting_from_T(co).n == n
            assert periodicity_pair(co) == (n == 1)
            cases += 1
            beyond_one += n >= 2
    assert cases == 933
    # these take the second elimination, of the columns of T_(p-1)
    assert beyond_one == 4


def test_splittings_from_T_equal_the_single_rows():
    # every lift at d = 1, p <= 7 and d = 2, p <= 5, all lifts at one (p, d)
    # as one call: among them rows with n >= 2, which take the second
    # stacked elimination, and rows with n = 0 and 1, which do not
    for p, d in ((3, 1), (5, 1), (7, 1), (3, 2), (5, 2)):
        cocycles = list(_lifts(p, d))
        stacked = splittings_from_T(cocycles)
        single = [splitting_from_T(co) for co in cocycles]
        assert stacked == single
        if (p, d) in ((5, 1), (5, 2)):
            assert {st.n for st in stacked} >= {0, 1, 2}
    assert splittings_from_T([]) == []


def test_remainder_system_micro_case():
    ctx = make_context(3, 1)
    a = P(ctx, 0, 2, 0, 0, 0, 1)  # z^5 + 2z
    rs = remainder_system(ctx, a)
    assert rs.R.arr[0, :, 0].tolist() == [0, 2, 0, 0, 0, 1]
    assert rs.R.arr[1, :, 0].tolist() == [2, 0, 2, 2, 0, 0]
    d2 = z_minus_one_pow(ctx, 6)
    for i in range(4):
        row = Poly.from_ints(ctx, rs.R.arr[i, :, 0].tolist())
        assert poly_divrem(a.shift(i) - row, d2)[1].is_zero()


def test_remainder_system_rejects_large_degree():
    ctx = make_context(3, 1)
    with pytest.raises(DegreeTooLarge):
        remainder_system(ctx, Poly.monomial(ctx, 6))


def test_remainder_reconstruction_random():
    rng = random.Random(8)
    for _ in range(100):
        p = rng.choice((3, 5, 7))
        ctx = make_context(p, 1)
        a = Poly.from_ints(ctx, [rng.randrange(p) for _ in range(2 * p)])
        rs = remainder_system(ctx, a)
        d2 = z_minus_one_pow(ctx, 2 * p)
        i = rng.randrange(p + 1)
        row = Poly.from_ints(ctx, rs.R.arr[i, :, 0].tolist())
        assert poly_divrem(a.shift(i) - row, d2)[1].is_zero()
        assert row.degree <= 2 * p - 1


def test_validate_T_R_micro_and_exhaustive():
    ctx = make_context(3, 1)
    two = ctx.f_from_int(2)
    # R0 low block equals T row 1, and R_{0,5} = T_{1,4}
    co = build_A_closed(ctx, two, ctx.zero)
    rs = remainder_system(ctx, co.A)
    tm = build_T(co)
    assert rs.R.arr[0, :3, 0].tolist() == tm.T.arr[0, :3, 0].tolist()
    assert rs.R.arr[0, 5, 0] == tm.T.arr[0, 3, 0] == 1
    assert validate_T_R(ctx, two, ctx.one)
    for p in (3, 5, 7):
        cx = make_context(p, 1)
        for av in range(2, p):
            for bv in range(p):
                assert validate_T_R(cx, cx.f_from_int(av), cx.f_from_int(bv))


def test_validate_T_R_quadratic_field():
    ctx = make_context(3, 2)
    for lam0 in ctx.field_elements():
        if lam0.is_zero() or lam0 == ctx.one:
            continue
        for lam1 in ctx.field_elements():
            assert validate_T_R(ctx, lam0, lam1)


def test_dropped_unit_breaks_the_identity():
    # mutation check: scaling A by the unit makes the comparison fail loudly
    ctx = make_context(3, 1)
    two = ctx.f_from_int(2)
    co = build_A_closed(ctx, two, ctx.one)
    scaled = co.A.scale(co.unit)
    assert t_r_first_mismatch(ctx, two, ctx.one, A=scaled) is not None
    assert t_r_first_mismatch(ctx, two, ctx.one, A=co.A) is None


def test_det_T0_is_monic_of_degree_p():
    for p in (3, 5, 7, 11):
        ctx = make_context(p, 1)
        for a in range(2, p):
            poly = det_T0_in_lam1(ctx, ctx.f_from_int(a))
            assert poly.degree == p
            assert poly.lead() == poly.ctx.one
            # coefficients lie in the prime field
            for e in poly.coeffs():
                assert all(c == 0 for c in e.coeffs()[1:])


def test_det_T0_micro_case_is_lam1_cubed_plus_lam1():
    ctx = make_context(3, 1)
    poly = det_T0_in_lam1(ctx, ctx.f_from_int(2))
    assert [e.coeffs()[0] for e in poly.coeffs()] == [0, 1, 0, 1]


def test_rank_verdicts_invariant_under_scaling():
    rng = random.Random(17)
    for _ in range(40):
        p = rng.choice((3, 5, 7))
        ctx = make_context(p, 1)
        a0 = rng.randrange(2, p)
        b0 = rng.randrange(p)
        lam0, lam1 = ctx.f_from_int(a0), ctx.f_from_int(b0)
        a = build_A_closed(ctx, lam0, lam1).A
        scale = ctx.f_from_int(rng.randrange(1, p))
        r1 = remainder_system(ctx, a).R
        r2 = remainder_system(ctx, a.scale(scale)).R
        assert mat_rank(r1) == mat_rank(r2)
        blocks1 = [mat_rank(r1.submatrix(p, p)), mat_rank(r1.submatrix(p - 1, p))]
        blocks2 = [mat_rank(r2.submatrix(p, p)), mat_rank(r2.submatrix(p - 1, p))]
        assert blocks1 == blocks2
