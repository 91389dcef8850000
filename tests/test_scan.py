import json
from collections import Counter

import pytest

from higgsflow import criterion, factorization, scan, sections
from higgsflow.errors import InvalidRange, MethodUnavailable
from higgsflow.fields import make_context, witt_compose, witt_decompose
from higgsflow.lambdas import ReductionDatum, beauville_catalog, parse_lambda_spec
from higgsflow.scan import (CSV_COLUMNS, run_enumerate, run_scan, run_selftest,
                            run_verify_beauville)


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
    # every method reads the row's one cocycle, built by the primitive; no
    # sweep builds the closed form, and only birkhoff builds the gluing matrix
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
    sweeps = ((lambda methods: run_enumerate(5, methods=methods), None),
              (lambda methods: run_verify_beauville((5, 7), methods=methods),
               set(first_labels.values())))
    for run, computed in sweeps:
        for methods in (("t",), ("t", "birkhoff"), ("t", "birkhoff", "cech")):
            calls.clear()
            report = run(methods)
            good = sum(1 for r in report.rows if r.bad_reason is None
                       and (computed is None or r.lambda_label in computed))
            assert good >= 15
            want = {"build_A_primitive": good}
            if "birkhoff" in methods:
                want["build_transition"] = good
            assert calls == want, methods


def test_birkhoff_step1_runs_once_per_field_stack(monkeypatch):
    # enumerate 5's 15 rows share one field: one lockstep step-1 call for
    # all of them; every catalog task is below the crossover and runs step 1
    # per row; step 2 and the gluing matrix stay per row either way
    calls = Counter()
    stacks = []
    step1 = factorization.birkhoff_step1

    def spy(ctx, A):
        if isinstance(A, list):
            stacks.append(len(A))
        else:
            calls["step1 per row"] += 1
        return step1(ctx, A)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(factorization, "birkhoff_step1", spy)
    for name in ("birkhoff_step2", "build_transition"):
        monkeypatch.setattr(factorization, name, counting(name, getattr(factorization, name)))
    report = run_enumerate(5, methods=("t", "birkhoff"))
    assert len(report.rows) == 15 >= scan.BIRKHOFF_STACK_MIN
    assert stacks == [15]
    assert calls == {"birkhoff_step2": 15, "build_transition": 15}
    calls.clear()
    stacks.clear()
    report = run_verify_beauville((5, 7), methods=("t", "birkhoff"))
    # catalog entries that share a minimal polynomial share its computed rows
    first_labels = {}
    for entry in beauville_catalog():
        first_labels.setdefault(entry.spec.minpoly, entry.spec.label)
    computed = sum(1 for r in report.rows if r.bad_reason is None
                   and r.lambda_label in set(first_labels.values()))
    assert stacks == []
    assert calls == {"step1 per row": computed, "birkhoff_step2": computed,
                     "build_transition": computed}


@pytest.mark.parametrize("p, d", [(7, 1), (3, 2)])
def test_birkhoff_rows_agree_across_the_crossover(monkeypatch, p, d):
    # a field's stack gives the same rows and the same step-1 outputs in
    # lockstep and row by row
    ctx = make_context(p, d)
    items = [("x", ReductionDatum(p=p, place=0, d=d, witt=witt_decompose(w)))
             for w in ctx.witt_elements()
             if not (w.residue().is_zero() or w.residue() == ctx.one)]
    step2 = factorization.birkhoff_step2
    seen = []

    def spy(ctx, cocycle, *step1):
        seen.append(step1)
        return step2(ctx, cocycle, *step1)

    monkeypatch.setattr(factorization, "birkhoff_step2", spy)
    runs = []
    for crossover in (len(items), len(items) + 1):
        monkeypatch.setattr(scan, "BIRKHOFF_STACK_MIN", crossover)
        seen.clear()
        runs.append((scan._rows_from_data(items, ("t", "birkhoff")), list(seen)))
    assert runs[0] == runs[1]
    assert all(r.agree for r in runs[0][0])


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
