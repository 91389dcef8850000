"""Acceptance gate: one test per criterion, one printed verdict line each.

Run as `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
each test also enforces its stated runtime budget.
"""

import dataclasses
import hashlib
import random
import time
from contextlib import contextmanager

from higgsflow.cocycle import build_A_closed, build_A_primitive, build_transition
from higgsflow.criterion import (det_T0_in_lam1, periodicity_pair,
                                 splitting_from_T, validate_T_R)
from higgsflow.factorization import (birkhoff_step1, factorization_certificate,
                                     splitting_from_birkhoff, verify_certificate)
from higgsflow.fields import make_context, teichmuller, witt_compose, witt_decompose
from higgsflow.lambdas import parse_lambda_spec
from higgsflow.polys import Poly
from higgsflow.scan import run_enumerate, run_scan, run_verify_beauville
from higgsflow.sections import splitting_from_cech

from certificate_reference import order_at_one, step1_rows


@contextmanager
def criterion(name: str, budget_s: float):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"{name} FAIL ({time.time() - t0:.2f}s)")
        raise
    elapsed = time.time() - t0
    verdict = "PASS" if elapsed < budget_s else "FAIL"
    print(f"{name} {verdict} ({elapsed:.2f}s, budget {budget_s:.0f}s)")
    assert elapsed < budget_s, f"{name} exceeded its runtime budget"


def P(ctx, *ints):
    return Poly.from_ints(ctx, ints)


def test_ac1_micro_case_periodic():
    with criterion("AC1 micro-case lam=-1 mod 9", 1.0):
        ctx = make_context(3, 1)
        lam = ctx.w_from_int(-1)
        prim = build_A_primitive(ctx, lam)
        closed = build_A_closed(ctx, ctx.f_from_int(2), ctx.zero)
        expect_a = P(ctx, 0, 2, 0, 0, 0, 1)  # z^5 + 2z
        assert prim.A == expect_a and closed.A == expect_a
        f, g, h, _, _ = step1_rows(ctx, birkhoff_step1(ctx, [prim.A]))[0]
        assert f == P(ctx, 2, 0, 1) and g == P(ctx, 1, 1, 1) and order_at_one(f, g) == 1
        cert = factorization_certificate(prim)
        assert cert.c == 2 and cert.n == 1
        assert splitting_from_T(closed).n == splitting_from_T(prim).n == 1
        assert splitting_from_cech(prim).n == 1
        assert periodicity_pair(closed) is True


def test_ac2_micro_case_exceptional():
    with criterion("AC2 micro-case lam=2 mod 9", 1.0):
        ctx = make_context(3, 1)
        lam = ctx.w_from_int(2)
        prim = build_A_primitive(ctx, lam)
        assert prim.A == P(ctx, 1, 2, 0, 2, 0, 1)  # z^5 + 2z^3 + 2z + 1
        wp = witt_decompose(lam)
        assert (wp.lam0, wp.lam1) == (ctx.f_from_int(2), ctx.f_from_int(1))
        from higgsflow.criterion import build_T, t_submatrix
        from higgsflow.linalg import mat_det
        t0 = t_submatrix(build_T(build_A_closed(ctx, wp.lam0, wp.lam1)), 0)
        assert mat_det(t0) == ctx.f_from_int(2)
        f, g, h, _, _ = step1_rows(ctx, birkhoff_step1(ctx, [prim.A]))[0]
        assert f == P(ctx, 2, 0, 1, 1) and g == P(ctx, 1, 2) and order_at_one(f, g) == 0
        cert = factorization_certificate(prim)
        assert cert.c == 3 and cert.n == 0
        assert splitting_from_T(prim).n == 0
        assert splitting_from_cech(prim).n == 0


def test_ac3_exhaustive_cross_method_agreement():
    with criterion("AC3 exhaustive three-method agreement p in {3,5,7}", 120.0):
        mismatches = []
        for p in (3, 5, 7):
            ctx = make_context(p, 1)
            for n in range(p * p):
                lam = ctx.w_from_int(n)
                r = lam.residue()
                if r.is_zero() or r == ctx.one:
                    continue
                # t reads the closed form: the two constructions of A meet here
                wp = witt_decompose(lam)
                nt = splitting_from_T(build_A_closed(ctx, wp.lam0, wp.lam1)).n
                co = build_A_primitive(ctx, lam)
                cert = factorization_certificate(co)
                nb = cert.n
                nc = splitting_from_cech(co).n
                ok_tr = validate_T_R(ctx, wp.lam0, wp.lam1)
                ok_cert = verify_certificate([build_transition(co)], [cert])
                if not (nt == nb == nc and ok_tr and ok_cert):
                    mismatches.append((p, n, nt, nb, nc, ok_tr, ok_cert))
        assert not mismatches, f"minimal counterexample: {mismatches[0]}"


def test_ac4_monic_determinant_and_root_bound():
    with criterion("AC4 det T0 monic of degree p; <= p periodic lam1 per lam0", 120.0):
        for p in (3, 5, 7, 11):
            ctx = make_context(p, 1)
            for a in range(2, p):
                poly = det_T0_in_lam1(ctx, ctx.f_from_int(a))
                assert poly.degree == p
                assert poly.lead() == poly.ctx.one
        for p in (3, 5, 7):
            counts = run_enumerate(p).summary["periodic_per_lambda0"]
            assert all(v <= p for v in counts.values())


def test_ac5_enumerate_p3():
    with criterion("AC5 enumerate(3) has exactly one periodic pair (2,0)", 10.0):
        report = run_enumerate(3, methods=("t", "birkhoff", "cech"))
        assert report.summary["periodic_pairs"] == [["2", "0"]]


def test_ac6_certificate_soundness_randomized():
    with criterion("AC6 100 random certificates pass; perturbed ones fail", 60.0):
        rng = random.Random(20250601)
        primes = (3, 5, 7, 11, 13)
        for k in range(100):
            p = rng.choice(primes)
            d = rng.choice((1, 2)) if p <= 7 else 1
            ctx = make_context(p, d)
            while True:
                digits = [rng.randrange(ctx.p2) for _ in range(d)]
                lam = ctx.w_from_coeffs(digits)
                r = lam.residue()
                if not (r.is_zero() or r == ctx.one):
                    break
            co = build_A_primitive(ctx, lam)
            cert = factorization_certificate(co)
            trans = build_transition(co)
            assert verify_certificate([trans], [cert])
            if k % 10 == 0:
                bad = dataclasses.replace(cert, f=cert.f + Poly.one(ctx))
                assert not verify_certificate([trans], [bad])


def test_ac7_witt_layer_exhaustive():
    with criterion("AC7 Witt round-trips and tau multiplicativity, p<=7 d<=2", 60.0):
        for p in (3, 5, 7):
            for d in (1, 2):
                ctx = make_context(p, d)
                taus = {a.index(): teichmuller(a) for a in ctx.field_elements()}
                for a in ctx.field_elements():
                    assert taus[a.index()].residue() == a
                    for b in ctx.field_elements():
                        assert taus[a.index()] * taus[b.index()] == taus[(a * b).index()]
                for lam in ctx.witt_elements():
                    r = lam.residue()
                    if r.is_zero() or r == ctx.one:
                        continue
                    wp = witt_decompose(lam)
                    assert witt_compose(wp.lam0, wp.lam1) == lam
                for lam0 in ctx.field_elements():
                    if lam0.is_zero() or lam0 == ctx.one:
                        continue
                    for lam1 in ctx.field_elements():
                        w = witt_compose(lam0, lam1)
                        got = witt_decompose(w)
                        assert (got.lam0, got.lam1) == (lam0, lam1)


def test_ac8_beauville_evidence_report():
    with criterion("AC8 catalog evidence sweep over primes 5..97", 300.0):
        report = run_verify_beauville((5, 97), seed=0)
        # the golden bytes of `beauville --prime-range 5:97 --format json`
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == (
            "2e564801c885c21a16ffc161553fc15298c5139498b0489fb035899e1f2eaa18")
        per = report.summary["per_entry"]
        assert len(per) == 17
        assert report.summary["mismatches"] == []
        for label, entry in per.items():
            assert entry["good"] > 0, label
            assert entry["pass_rate"] is not None
        # stability: re-running two entries reproduces their exceptional lists
        for label in ("2", "(1-sqrt(-3))/2"):
            spec = next(e.spec for e in __import__("higgsflow.lambdas",
                        fromlist=["beauville_catalog"]).beauville_catalog()
                        if e.spec.label == label)
            again = run_scan(spec, (5, 97), seed=0)
            assert again.summary["exceptional_primes"] == per[label]["exceptional_primes"]
        # hand-verified cells at p = 3
        cell = run_scan(parse_lambda_spec("-1"), (3, 3)).rows[0]
        assert cell.periodic is True
        cell = run_scan(parse_lambda_spec("2"), (3, 3)).rows[0]
        assert cell.periodic is False and 3 in run_scan(
            parse_lambda_spec("2"), (3, 3)).summary["exceptional_primes"]
