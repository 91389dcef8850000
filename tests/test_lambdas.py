import hashlib

import pytest

from higgsflow import lambdas
from higgsflow.criterion import splitting_from_T
from higgsflow.errors import (DegreeUnsupported, ForbiddenResidue,
                              ForbiddenValue, HiggsflowError,
                              InternalInvariantFailure, NotPrime,
                              ReducibleMinpoly)
from higgsflow.factorization import splitting_from_birkhoff
from higgsflow.fields import is_prime, make_context, teichmuller
from higgsflow.lambdas import (BAD_DIVIDES_DISC, BAD_DIVIDES_LEADING,
                               BAD_PRIME_TOO_SMALL, BAD_RESIDUE_ONE,
                               BAD_RESIDUE_ZERO, _minpoly_eval_ring,
                               beauville_catalog, parse_lambda_spec,
                               reduce_at_prime, w2_orbit)


def test_catalog_has_17_entries_with_expected_minpolys():
    cat = beauville_catalog()
    assert len(cat) == 17
    by_label = {e.spec.label: e for e in cat}
    assert by_label["-1"].spec.minpoly == (1, 1)
    assert by_label["2"].spec.minpoly == (-2, 1)
    assert by_label["(1-sqrt(-3))/2"].spec.minpoly == (1, -1, 1)
    assert by_label["(-123-55*sqrt(5))/2"].spec.minpoly == (1, 123, 1)
    assert by_label["(125+55*sqrt(5))/2"].spec.minpoly == (125, -125, 1)
    assert by_label["(25+11*sqrt(5))/50"].spec.minpoly == (1, -125, 125)
    rationals = [e for e in cat if e.rational is not None]
    quadratics = [e for e in cat if e.radical is not None]
    assert len(rationals) == 9 and len(quadratics) == 8


def test_catalog_minpolys_vanish_at_displayed_values():
    # exact integer identities: rational and sqrt parts of minpoly((a+b*sqrt(D))/c)
    for e in beauville_catalog():
        q = list(e.spec.minpoly) + [0] * (3 - len(e.spec.minpoly))
        q0, q1, q2 = q
        if e.radical is not None:
            a, b, c, dd = (e.radical[k] for k in ("a", "b", "c", "d"))
            assert q2 * (a * a + b * b * dd) + q1 * a * c + q0 * c * c == 0
            assert 2 * q2 * a * b + q1 * b * c == 0
        else:
            num, den = e.rational
            assert q2 * num * num + q1 * num * den + q0 * den * den == 0


def test_parse_rational_and_quadratic():
    assert parse_lambda_spec("-1").minpoly == (1, 1)
    assert parse_lambda_spec("9/8").minpoly == (-9, 8)
    assert parse_lambda_spec("-6/-4").minpoly == (-3, 2)
    spec = parse_lambda_spec("1,-1,1")
    assert spec.minpoly == (1, -1, 1)
    assert "," not in spec.label  # labels stay CSV-safe
    assert parse_lambda_spec("2,246,2").minpoly == (1, 123, 1)  # primitivity


def test_parse_rejections():
    with pytest.raises(ForbiddenValue):
        parse_lambda_spec("0")
    with pytest.raises(ForbiddenValue):
        parse_lambda_spec("1")
    with pytest.raises(ForbiddenValue):
        parse_lambda_spec("0,1")
    with pytest.raises(ReducibleMinpoly):
        parse_lambda_spec("2,3,1")
    with pytest.raises(DegreeUnsupported):
        parse_lambda_spec("1,2,3,4")
    with pytest.raises(DegreeUnsupported):
        parse_lambda_spec("3,")
    # plain integers are valid rationals, not coefficient lists
    assert parse_lambda_spec("5").minpoly == (-5, 1)


def test_reduce_rational_split():
    d = reduce_at_prime(parse_lambda_spec("2"), 3)
    assert len(d) == 1 and d[0].d == 1
    ctx = make_context(3, 1)
    assert (d[0].witt.lam0, d[0].witt.lam1) == (ctx.f_from_int(2), ctx.f_from_int(1))
    d = reduce_at_prime(parse_lambda_spec("-1"), 3)
    assert (d[0].witt.lam0, d[0].witt.lam1) == (ctx.f_from_int(2), ctx.f_from_int(0))


def test_reduce_bad_primes():
    assert reduce_at_prime(parse_lambda_spec("9/8"), 3)[0].bad_reason == BAD_RESIDUE_ZERO
    assert reduce_at_prime(parse_lambda_spec("9/8"), 2)[0].bad_reason == BAD_PRIME_TOO_SMALL
    # p divides the denominator
    assert reduce_at_prime(parse_lambda_spec("1/9"), 3)[0].bad_reason == BAD_DIVIDES_LEADING
    # residue one: lambda = 10 at p = 3
    assert reduce_at_prime(parse_lambda_spec("10"), 3)[0].bad_reason == BAD_RESIDUE_ONE
    # p divides the discriminant of x^2 - x + 1 (disc = -3)
    assert reduce_at_prime(parse_lambda_spec("1,-1,1"), 3)[0].bad_reason == BAD_DIVIDES_DISC
    with pytest.raises(NotPrime):
        reduce_at_prime(parse_lambda_spec("2"), 9)


def test_reduce_quadratic_split_and_inert():
    spec = parse_lambda_spec("1,-1,1")  # roots (1 +- sqrt(-3))/2
    # -3 is a square mod 7 (2^2 = 4 = -3)
    data = reduce_at_prime(spec, 7)
    assert [x.d for x in data] == [1, 1]
    assert sorted(x.witt.lam0.index() for x in data) == [3, 5]
    for x in data:
        assert _minpoly_eval_ring(spec.minpoly, x.witt.witt).is_zero()
    # -3 is not a square mod 5
    data = reduce_at_prime(spec, 5)
    assert len(data) == 1 and data[0].d == 2
    assert _minpoly_eval_ring(spec.minpoly, data[0].witt.witt).is_zero()
    both = reduce_at_prime(spec, 5, both_embeddings=True)
    assert len(both) == 2 and both[0].witt.lam0 != both[1].witt.lam0
    # the two embeddings are Frobenius conjugates
    assert both[0].witt.lam0 ** 5 == both[1].witt.lam0


@pytest.mark.parametrize("spec, p", [("-1", 5), ("1,-1,1", 5)])
def test_failed_hensel_lift_raises_internal_invariant(monkeypatch, spec, p):
    # a lift that does not vanish is a bug, reported even under python -O
    monkeypatch.setattr(lambdas, "_minpoly_eval_ring",
                        lambda coeffs, x: x.ctx.w_from_int(1))
    with pytest.raises(InternalInvariantFailure, match="Hensel lift failed"):
        reduce_at_prime(parse_lambda_spec(spec), p)


def test_split_lifts_satisfy_minpoly_mod_p_squared():
    for e in beauville_catalog():
        for p in (5, 7, 11, 13, 17):
            for datum in reduce_at_prime(e.spec, p, both_embeddings=True):
                if datum.is_bad:
                    continue
                assert _minpoly_eval_ring(e.spec.minpoly, datum.witt.witt).is_zero()


def _box_specs():
    """Every valid target c0 + c1 x + c2 x^2 with c0, c1 in -3..3, c2 in {1, 2}."""
    specs = []
    for c2 in (1, 2):
        for c1 in range(-3, 4):
            for c0 in range(-3, 4):
                try:
                    specs.append(parse_lambda_spec(f"{c0},{c1},{c2}"))
                except HiggsflowError:
                    continue
    return specs


def test_t_and_birkhoff_agree_on_every_reduction_datum():
    # the t method reads lam1 while birkhoff reads the lift itself, so lam1
    # must be in the convention of the cocycle numerator A at inert places
    seen, degrees = 0, set()
    for spec in _box_specs():
        for p in (3, 5, 7):
            for datum in reduce_at_prime(spec, p, both_embeddings=True):
                if datum.is_bad:
                    continue
                wp = datum.witt
                ctx = wp.witt.ctx
                assert (splitting_from_T(ctx, wp.lam0, wp.lam1).n
                        == splitting_from_birkhoff(ctx, wp.witt).n), (spec.minpoly, p, datum.place)
                seen += 1
                degrees.add(datum.d)
    assert seen == 279 and degrees == {1, 2}


def test_reduction_data_are_pinned():
    # every field of every datum over the catalog and the box, p = 3..31
    digest = hashlib.sha256()
    count = 0
    for spec in [e.spec for e in beauville_catalog()] + _box_specs():
        for p in filter(is_prime, range(3, 32)):
            for datum in reduce_at_prime(spec, p, both_embeddings=True):
                wp = datum.witt
                vecs = None if wp is None else (wp.lam0.vec, wp.lam1.vec, wp.witt.vec)
                digest.update(repr((spec.minpoly, datum.p, datum.place, datum.d,
                                    datum.bad_reason, vecs)).encode())
                count += 1
    assert count == 1496
    assert digest.hexdigest() == (
        "aa8fa9f97e448dba33d2dcb5fcaf3c6da396809f72cf41212f72df808a5103fc")


def test_w2_orbit_micro_cases():
    ctx = make_context(3, 1)
    assert w2_orbit(ctx.w_from_int(2)) == [ctx.w_from_int(k) for k in (2, 8, 5)]
    assert w2_orbit(ctx.w_from_int(-1)) == [ctx.w_from_int(k) for k in (8, 2, 5)]
    with pytest.raises(ForbiddenResidue):
        w2_orbit(ctx.w_from_int(3))


def test_w2_orbit_involution_point_is_small():
    # lam with lam = 1 - lam: 2*lam = 1, lam = (p^2+1)/2 mod p^2
    ctx = make_context(5, 1)
    lam = ctx.w_from_int((25 + 1) // 2)
    orbit = w2_orbit(lam)
    assert len(orbit) <= 3
    assert lam in orbit


def test_w2_orbit_closure_under_the_six_maps():
    ctx = make_context(7, 1)
    lam = ctx.w_from_int(10)
    orbit = w2_orbit(lam)
    vecs = {o.vec for o in orbit}
    one = ctx.w_from_int(1)
    for o in orbit:
        assert (one - o).vec in vecs
        assert o.inverse().vec in vecs


def test_teichmuller_reductions_have_zero_lam1():
    # lambda = -1 reduces to the Teichmueller lift at every odd prime
    for p in (3, 5, 7, 11):
        d = reduce_at_prime(parse_lambda_spec("-1"), p)[0]
        assert d.witt.lam1 == make_context(p, 1).zero
        ctx = make_context(p, 1)
        assert d.witt.witt == teichmuller(ctx.f_from_int(-1))
