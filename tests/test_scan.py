import json
from collections import Counter
from dataclasses import replace

import pytest

from higgsflow import criterion, factorization, fields, lambdas, scan, sections
from higgsflow.cocycle import build_A_primitive
from higgsflow.errors import CertificateCheckFailed, InvalidRange, MethodUnavailable
from higgsflow.fields import make_context, witt_compose, witt_decompose
from higgsflow.lambdas import ReductionDatum, beauville_catalog, parse_lambda_spec
from higgsflow.polys import Poly
from higgsflow.scan import (CSV_COLUMNS, run_enumerate, run_scan, run_selftest,
                            run_verify_beauville)

from certificate_reference import certificate_rows, step1_rows


def test_scan_micro_case_periodic():
    report = run_scan(parse_lambda_spec("-1"), (3, 3), methods=("t", "birkhoff"))
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.n_t == row.n_birkhoff == 1
    assert row.periodic is True and row.agree is True
    assert report.summary["exceptional_primes"] == []


def test_scan_micro_case_exceptional():
    report = run_scan(parse_lambda_spec("2"), (3, 3))
    row = report.rows[0]
    assert row.n_t == row.n_birkhoff == 0
    assert row.periodic is False
    assert report.summary["exceptional_primes"] == [3]


def test_scan_bad_prime_row():
    report = run_scan(parse_lambda_spec("9/8"), (3, 3))
    row = report.rows[0]
    assert row.bad_reason == "ResidueZero"
    assert row.n_t is None and row.periodic is None
    assert report.summary["bad"] == 1


def test_scan_validates_inputs():
    spec = parse_lambda_spec("-1")
    with pytest.raises(InvalidRange):
        run_scan(spec, (2, 5))
    with pytest.raises(InvalidRange):
        run_scan(spec, (5, 3))
    with pytest.raises(MethodUnavailable):
        run_scan(spec, (3, 5), methods=("t", "magic"))
    with pytest.raises(MethodUnavailable):
        run_scan(spec, (3, 37), methods=("t", "cech"))


def test_scan_rows_sorted_and_twisted_convention_recorded():
    report = run_scan(parse_lambda_spec("1,-1,1"), (3, 13), both_embeddings=True)
    keys = [r.sort_key() for r in report.rows]
    assert keys == sorted(keys)
    assert report.meta["convention"] == "twisted"


def test_reports_byte_identical_across_runs():
    spec = parse_lambda_spec("1,-1,1")
    a = run_scan(spec, (3, 17), seed=5)
    b = run_scan(spec, (3, 17), seed=5)
    assert a.to_csv() == b.to_csv()
    assert a.to_json() == b.to_json()


def test_csv_shape():
    report = run_scan(parse_lambda_spec("-1"), (3, 5), methods=("t",))
    text = report.to_csv()
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert text.endswith("\n") and "\r" not in text
    assert lines[1].startswith("-1,3,0,1,")
    for line in lines[1:]:
        assert len(line.split(",")) == len(CSV_COLUMNS)


def test_json_shape():
    report = run_scan(parse_lambda_spec("-1"), (3, 5), methods=("t",), seed=9)
    doc = json.loads(report.to_json())
    assert set(doc) == {"meta", "rows", "summary"}
    assert doc["meta"]["seed"] == 9 and "version" in doc["meta"]
    assert set(doc["rows"][0]) == set(CSV_COLUMNS)


def test_scan_with_jobs_matches_sequential():
    spec = parse_lambda_spec("2")
    seq = run_scan(spec, (3, 23), seed=3, jobs=1)
    par = run_scan(spec, (3, 23), seed=3, jobs=2)
    assert seq.to_csv() == par.to_csv()


def test_enumerate_p3_unique_periodic_pair():
    report = run_enumerate(3, methods=("t", "birkhoff", "cech"))
    assert report.summary["periodic_pairs"] == [["2", "0"]]
    assert report.summary["periodic_per_lambda0"] == {"2": 1}
    assert report.summary["mismatches"] == []


def test_one_cocycle_and_one_transition_per_row(monkeypatch):
    # every method reads the row's one cocycle: the primitive runs once per
    # (p, d, lambda0), on the first row of each, and the other rows of that
    # lambda0 take its lambda1 update; no sweep builds the closed form, and
    # only birkhoff builds the gluing matrix, once per row
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # at every module that imports them
    for module in (scan, criterion, factorization, sections):
        for name in ("build_A_primitive", "build_A_closed", "build_transition"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    # catalog entries that share a minimal polynomial share its computed rows
    first_labels = {}
    for entry in beauville_catalog():
        first_labels.setdefault(entry.spec.minpoly, entry.spec.label)
    sweeps = ((lambda methods: run_enumerate(5, methods=methods), None, 3),
              (lambda methods: run_verify_beauville((5, 7), methods=methods),
               set(first_labels.values()), None))
    for run, computed, residues in sweeps:
        for methods in (("t",), ("t", "birkhoff"), ("t", "birkhoff", "cech")):
            calls.clear()
            report = run(methods)
            rows = [r for r in report.rows if r.bad_reason is None
                    and (computed is None or r.lambda_label in computed)]
            good = len(rows)
            assert good >= 15
            distinct = len({(r.p, r.d, r.lambda0) for r in rows})
            assert distinct < good
            if residues is not None:
                assert distinct == residues
            want = {"build_A_primitive": distinct}
            if "birkhoff" in methods:
                want["build_transition"] = good
            assert calls == want, methods


def test_lam1_update_equals_the_primitive_on_every_row(monkeypatch):
    # every lift at d = 1, p <= 13 and at d = 2, p <= 5, as one sweep per
    # (p, d): each row's cocycle, whether the primitive's or its lambda1
    # update, equals the primitive on that row's own lambda, A and unit
    stacks = []
    splittings = scan.splittings_from_T

    def spy(cocycles):
        stacks.append(cocycles)
        return splittings(cocycles)

    monkeypatch.setattr(scan, "splittings_from_T", spy)
    rows = 0
    for p, d in ((3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (3, 2), (5, 2)):
        ctx = make_context(p, d)
        lifts = [w for w in ctx.witt_elements()
                 if not (w.residue().is_zero() or w.residue() == ctx.one)]
        items = [(str(k), ReductionDatum(p=p, place=0, d=d, witt=witt_decompose(w)))
                 for k, w in enumerate(lifts)]
        stacks.clear()
        scan._rows_from_data(items, ("t",))
        assert len(stacks) == 1 and len(stacks[0]) == len(lifts)
        for w, got in zip(lifts, stacks[0]):
            want = build_A_primitive(ctx, w)
            assert got.A == want.A and got.unit == want.unit
        rows += len(lifts)
    assert rows == 3 + 15 + 35 + 99 + 143 + 63 + 575     # (q - 2) * q lifts at q = p^d


def test_birkhoff_step1_runs_once_per_field_stack(monkeypatch):
    # enumerate 5's 15 rows share one field: one lockstep step-1 call and
    # one stacked step-2 call for all of them, and the gluing matrix per
    # row; a catalog task holds every target at its prime, so each field's
    # rows form one stack, whatever their number, and no row runs on its own
    calls = Counter()
    stacks = []
    step1, step2 = factorization.birkhoff_step1, factorization.birkhoff_step2

    def spy1(ctx, A):
        assert isinstance(A, list)
        stacks.append(("step1", ctx.p, ctx.d, len(A)))
        return step1(ctx, A)

    def spy2(ctx, cocycles, *rest):
        assert isinstance(cocycles, list)
        stacks.append(("step2", ctx.p, ctx.d, len(cocycles)))
        return step2(ctx, cocycles, *rest)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(factorization, "birkhoff_step1", spy1)
    monkeypatch.setattr(factorization, "birkhoff_step2", spy2)
    monkeypatch.setattr(factorization, "build_transition",
                        counting("build_transition", factorization.build_transition))
    # the one-row entry points, at every module that holds them
    for module in (scan, factorization):
        for name in ("splitting_from_birkhoff", "factorization_certificate"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    report = run_enumerate(5, methods=("t", "birkhoff"))
    assert len(report.rows) == 15
    assert stacks == [("step1", 5, 1, 15), ("step2", 5, 1, 15)]
    assert calls == {"build_transition": 15}
    calls.clear()
    stacks.clear()
    report = run_verify_beauville((5, 7), methods=("t", "birkhoff"))
    # catalog entries that share a minimal polynomial share its computed rows
    first_labels = {}
    for entry in beauville_catalog():
        first_labels.setdefault(entry.spec.minpoly, entry.spec.label)
    computed = [r for r in report.rows if r.bad_reason is None
                and r.lambda_label in set(first_labels.values())]
    # the largest prime first: p = 7 has 11 rows over F_7 and 3 over F_49,
    # p = 5 has 9 over F_5 and 1 over F_25
    assert stacks == [("step1", 7, 1, 11), ("step2", 7, 1, 11),
                      ("step1", 7, 2, 3), ("step2", 7, 2, 3),
                      ("step1", 5, 1, 9), ("step2", 5, 1, 9),
                      ("step1", 5, 2, 1), ("step2", 5, 2, 1)]
    assert len(computed) == 24 and [r.d for r in computed].count(2) == 4
    assert calls == {"build_transition": 24}


def test_failed_certificate_names_its_row(monkeypatch):
    # one row of enumerate 5's stack gets a wrong gluing matrix: the stacked
    # check names the identity and the row's place in the stack, and
    # _rows_from_data notes that row's label, p and place; so it does for
    # the middle row of the catalog's d = 2 stack of three at p = 7
    build = factorization.build_transition
    made = []

    def wrong_eighth(cocycle, unit_inverse=None):
        m = build(cocycle, unit_inverse)
        made.append(1)
        if len(made) == 8:
            return replace(m, lower_left=m.lower_left + Poly.one(cocycle.ctx))
        return m

    monkeypatch.setattr(factorization, "build_transition", wrong_eighth)
    with pytest.raises(CertificateCheckFailed) as err:
        run_enumerate(5, methods=("t", "birkhoff"))
    assert str(err.value) == "certificate identity P*M*Q does not hold at row 7"
    assert err.value.rows == (7,)
    # row 7 of lam0 in 2..4, lam1 in 0..4 is lam0 = 3, lam1 = 2
    assert err.value.__notes__ == ["in the certificate of lambda 3;2 at p=5, place 0"]
    inert = []

    def wrong_second_inert_at_7(cocycle, unit_inverse=None):
        m = build(cocycle, unit_inverse)
        if (cocycle.ctx.p, cocycle.ctx.d) == (7, 2):
            inert.append(1)
            if len(inert) == 2:
                return replace(m, lower_left=m.lower_left + Poly.one(cocycle.ctx))
        return m

    monkeypatch.setattr(factorization, "build_transition", wrong_second_inert_at_7)
    with pytest.raises(CertificateCheckFailed) as err:
        run_verify_beauville((5, 7), methods=("t", "birkhoff"))
    assert len(inert) == 3
    assert str(err.value) == "certificate identity P*M*Q does not hold at row 1"
    assert err.value.rows == (1,)
    assert err.value.__notes__ == [
        "in the certificate of lambda (125+55*sqrt(5))/2 at p=7, place 0"]


def test_failed_certificate_in_a_catalog_stack_names_its_row(monkeypatch):
    # the d = 1 stack of the catalog task at p = 7 holds eleven rows of ten
    # targets; its last row, (1-sqrt(-3))/2 at place 1, gets a wrong gluing
    # matrix, and the note names that row, not the stack's first target -1
    build = factorization.build_transition
    made = []

    def wrong_eleventh_at_7(cocycle, unit_inverse=None):
        m = build(cocycle, unit_inverse)
        if cocycle.ctx.p == 7:
            made.append(1)
            if len(made) == 11:
                return replace(m, lower_left=m.lower_left + Poly.one(cocycle.ctx))
        return m

    monkeypatch.setattr(factorization, "build_transition", wrong_eleventh_at_7)
    with pytest.raises(CertificateCheckFailed) as err:
        run_verify_beauville((5, 7), methods=("t", "birkhoff"))
    assert str(err.value) == "certificate identity P*M*Q does not hold at row 10"
    assert err.value.rows == (10,)
    assert err.value.__notes__ == ["in the certificate of lambda (1-sqrt(-3))/2 at p=7, place 1"]


def test_catalog_task_builds_one_context_per_field(monkeypatch):
    # every target of a catalog task shares the task's context of each
    # field at its prime: 13 fields at 5..23 (no target is inert at 19),
    # where one context per (target, prime) made 85
    built = Counter()
    make = fields.make_context

    def counting(p, d=1):
        built[p, d] += 1
        return make(p, d)

    for module in (fields, lambdas, scan):
        monkeypatch.setattr(module, "make_context", counting)
    run_verify_beauville((5, 23), methods=("t", "birkhoff"))
    assert len(built) == 13 and set(built.values()) == {1}


@pytest.mark.parametrize("p, d, reduced", [(7, 1, 1), (3, 2, 2)], ids=["7-1", "3-2"])
def test_birkhoff_stack_agrees_with_stacks_of_one(monkeypatch, p, d, reduced):
    # a field's stack gives the same rows, step-1 arrays and certificate
    # arrays, row by row, as its rows run as stacks of one, and as each
    # row's factorization_certificate; the stack holds rows whose gamma'
    # step 1 reduced mod g and wrote back (lambda = 17 at p = 7), so their
    # widened beta' is checked against the rows alone too
    ctx = make_context(p, d)
    items = [("x", ReductionDatum(p=p, place=0, d=d, witt=witt_decompose(w)))
             for w in ctx.witt_elements()
             if not (w.residue().is_zero() or w.residue() == ctx.one)]
    step2 = factorization.birkhoff_step2
    seen, certs = [], []

    def spy(ctx, cocycles, *step1):
        out = step2(ctx, cocycles, *step1)
        seen.extend(step1_rows(ctx, step1))
        certs.extend(certificate_rows(ctx, out))
        return out

    monkeypatch.setattr(factorization, "birkhoff_step2", spy)
    runs = []
    for parts in ([items], [[item] for item in items]):
        seen.clear()
        certs.clear()
        rows = [row for part in parts for row in scan._rows_from_data(part, ("t", "birkhoff"))]
        runs.append((rows, list(seen), list(certs)))
    assert runs[0] == runs[1]
    assert len(runs[0][2]) == len(items)
    assert all(r.agree for r in runs[0][0])
    monkeypatch.undo()
    for (_, datum), cert in zip(items, runs[0][2]):
        whole = factorization.factorization_certificate(
            build_A_primitive(ctx, datum.witt.witt))
        assert cert == {name: getattr(whole, name) for name in cert}
    assert sum(cert["g"].degree > cert["f"].degree for cert in runs[0][2]) == reduced


def test_sweep_cech_builds_no_polynomial(monkeypatch):
    # cech reads each field's stack of cocycles as arrays: the Taylor
    # series at z = 1 and the ansatz tables of every row are stacks, so a
    # sweep's cech builds no Poly (enumerate 7 built 175, five per row)
    built = []
    inside = []
    init = Poly.__init__
    cech = scan.splittings_from_cech

    def counted(self, *args, **kwargs):
        if inside:
            built.append(1)
        init(self, *args, **kwargs)

    def spy(cocycles):
        inside.append(len(cocycles))
        try:
            return cech(cocycles)
        finally:
            inside.pop()

    monkeypatch.setattr(Poly, "__init__", counted)
    monkeypatch.setattr(scan, "splittings_from_cech", spy)
    report = run_enumerate(7, ("t", "birkhoff", "cech"))
    assert len(report.rows) == 35 and all(r.n_cech is not None for r in report.rows)
    assert len(built) == 0


def test_sweep_birkhoff_builds_one_polynomial_per_row(monkeypatch):
    # enumerate 7's 35 rows: step 2 builds one Poly per row, the gluing
    # matrix's A/u (build_transition), and step 1 builds none on the rows
    # whose gamma' it does not reduce: it builds as many on the whole stack
    # as on its one reduced row alone, (3, 5), the lift 17 mod 49
    built = Counter()
    where = []
    init = Poly.__init__

    def counted(self, *args, **kwargs):
        if where:
            built[where[-1]] += 1
        init(self, *args, **kwargs)

    def within(name, fn):
        def wrapper(*args):
            where.append(name)
            try:
                return fn(*args)
            finally:
                where.pop()
        return wrapper

    stacks = []
    step1, step2 = factorization.birkhoff_step1, factorization.birkhoff_step2

    def spy1(ctx, A):
        stacks.append((ctx, A))
        return within("step1", step1)(ctx, A)

    monkeypatch.setattr(Poly, "__init__", counted)
    monkeypatch.setattr(factorization, "birkhoff_step1", spy1)
    monkeypatch.setattr(factorization, "birkhoff_step2", within("step2", step2))
    report = run_enumerate(7, ("t", "birkhoff"))
    assert len(report.rows) == 35 and len(stacks) == 1
    assert built["step2"] == 35
    ctx, A = stacks[0]
    f, g = step1(ctx, A)[:2]
    lifted = [i for i, (x, y) in enumerate(zip(f, g))
              if Poly(ctx, y).degree > Poly(ctx, x).degree]
    assert [report.rows[i].lambda_label for i in lifted] == ["3;5"]
    whole = built["step1"]
    built.clear()
    within("step1", step1)(ctx, [A[i] for i in lifted])
    assert built["step1"] == whole > 0
    built.clear()
    within("step1", step1)(ctx, [x for i, x in enumerate(A) if i not in lifted])
    assert built["step1"] == 0


def test_enumerate_lifts_each_residue_once(monkeypatch):
    # tau(lam0) is computed once per lam0, not once per (lam0, lam1), and
    # every row's parameter is still witt_compose(lam0, lam1)
    calls = Counter()
    teichmuller = scan.teichmuller

    def counted(x0):
        calls["teichmuller"] += 1
        return teichmuller(x0)

    monkeypatch.setattr(scan, "teichmuller", counted)
    lams = []
    rows_from_data = scan._rows_from_data

    def keep(items, methods):
        lams.extend(datum.witt for _, datum in items)
        return rows_from_data(items, methods)

    monkeypatch.setattr(scan, "_rows_from_data", keep)
    run_enumerate(7)
    assert calls == {"teichmuller": 5}
    assert len(lams) == 35
    assert all(wp.witt == witt_compose(wp.lam0, wp.lam1) for wp in lams)


def test_enumerate_bounds():
    with pytest.raises(InvalidRange):
        run_enumerate(2)
    with pytest.raises(InvalidRange):
        run_enumerate(37)
    with pytest.raises(InvalidRange):
        run_enumerate(9)


def test_enumerate_counts_bounded_by_p():
    for p in (3, 5, 7):
        report = run_enumerate(p)
        counts = report.summary["periodic_per_lambda0"]
        assert len(counts) == p - 2
        assert all(v <= p for v in counts.values())
        assert len(report.rows) == (p - 2) * p


def test_selftest_default_passes_and_is_seed_stable():
    res = run_selftest(max_p=5, seed=42)
    assert res["passed"] is True
    assert set(res["suites"]) == {"witt_roundtrip", "cocycle_equality",
                                  "t_r_identity", "method_agreement",
                                  "certificates", "monic_determinant"}
    res2 = run_selftest(max_p=5, seed=43)
    verdicts = {k: v["passed"] for k, v in res["suites"].items()}
    verdicts2 = {k: v["passed"] for k, v in res2["suites"].items()}
    assert verdicts == verdicts2
    assert "twisted" in res["suites"]["cocycle_equality"]["note"]


def test_selftest_default_run_passes():
    res = run_selftest()
    assert res["meta"] == {"version": res["meta"]["version"], "max_p": 7, "seed": 42}
    assert res["passed"] is True
    assert all(s["cases"] > 0 for s in res["suites"].values())


def test_selftest_bounds():
    with pytest.raises(InvalidRange):
        run_selftest(max_p=17)


def test_beauville_micro_range():
    report = run_verify_beauville((5, 7), methods=("t",))
    per = report.summary["per_entry"]
    assert len(per) == 17
    for label, entry in per.items():
        assert entry["good"] + entry["bad"] >= 1
        if entry["good"]:
            assert 0.0 <= entry["pass_rate"] <= 1.0
    with pytest.raises(InvalidRange):
        run_verify_beauville((5, 2000))


def test_beauville_with_jobs_matches_sequential():
    seq = run_verify_beauville((5, 13), seed=3, jobs=1)
    par = run_verify_beauville((5, 13), seed=3, jobs=2)
    assert seq.to_json() == par.to_json()


def test_beauville_shared_minpoly_rows_match_own_scan():
    # (1+sqrt(-3))/2 shares its minpoly with the entry before it, so the
    # sweep copies that entry's rows; they must equal a scan of its own spec
    from higgsflow.lambdas import beauville_catalog

    label = "(1+sqrt(-3))/2"
    spec = next(e.spec for e in beauville_catalog() if e.spec.label == label)
    sweep = run_verify_beauville((5, 23), seed=4)
    own = run_scan(spec, (5, 23), seed=4)
    rows = [r for r in sweep.rows if r.lambda_label == label]
    assert rows and rows == own.rows
    assert sweep.summary["per_entry"][label]["exceptional_primes"] == \
        own.summary["exceptional_primes"]
