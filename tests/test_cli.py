import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from higgsflow.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_scan_csv_stdout(capsys):
    code, out, err = run_cli(capsys, "scan", "--rational", "-1",
                             "--prime-range", "3:7", "--methods", "t,birkhoff")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("lambda,p,place,d,")
    assert lines[1] == "-1,3,0,1,2,0,1,1,,true,true,"


def test_scan_json_format(capsys):
    code, out, _ = run_cli(capsys, "scan", "--rational", "-1",
                           "--prime-range", "3:5", "--format", "json", "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["seed"] == 7
    assert doc["rows"][0]["lambda"] == "-1"


def test_scan_minpoly_flag(capsys):
    code, out, _ = run_cli(capsys, "scan", "--minpoly", "1,-1,1",
                           "--prime-range", "5:7", "--methods", "t")
    assert code == 0
    assert "1;-1;1" in out  # label stays comma-free


@pytest.mark.parametrize("flag, value", [("--rational", "-1/8"), ("--minpoly", "-9,1")])
def test_negative_target_parses_after_a_space(capsys, flag, value):
    # argparse alone reads "-1/8" and "-9,1" as options and exits 2
    code, spaced, _ = run_cli(capsys, "scan", flag, value, "--prime-range", "3:13")
    assert code == 0
    _, joined, _ = run_cli(capsys, "scan", f"{flag}={value}", "--prime-range", "3:13")
    assert spaced == joined and spaced.count("\n") == 6


def test_scan_bad_input_exit_code(capsys):
    code, _, err = run_cli(capsys, "scan", "--rational", "0",
                           "--prime-range", "3:5")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "scan", "--rational", "-1",
                           "--prime-range", "nope")
    assert code == 2
    code, _, err = run_cli(capsys, "scan", "--rational", "-1",
                           "--prime-range", "3:50", "--methods", "t,cech")
    assert code == 2


def test_out_file_lf_only(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out, _ = run_cli(capsys, "scan", "--rational", "2",
                           "--prime-range", "3:5", "--out", str(target))
    assert code == 0 and out == ""
    data = target.read_bytes()
    assert b"\r" not in data and data.endswith(b"\n")
    assert data.decode("utf-8").splitlines()[0].startswith("lambda,")


@pytest.mark.parametrize("argv", [("scan", "--rational", "-1"), ("beauville",)],
                         ids=["scan", "beauville"])
def test_reversed_prime_range_is_empty(capsys, argv):
    # both ends sit inside the supported range; the range itself is empty
    code, out, err = run_cli(capsys, *argv, "--prime-range", "7:5")
    assert code == 2 and out == ""
    assert err == "error: prime range 7:5 is empty: MIN exceeds MAX\n"


@pytest.mark.parametrize("argv", [("enumerate", "5"), ("selftest", "--max-p", "3")],
                         ids=["enumerate", "selftest"])
def test_unwritable_out_path_is_bad_input(tmp_path, capsys, argv):
    # an --out path that cannot be opened is bad input, exit 2 with one
    # line on stderr, not a traceback
    target = tmp_path / "missing" / "report"
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert code == 2 and out == ""
    assert err == f"error: cannot write {target}: No such file or directory\n"
    assert not target.parent.exists()


def test_enumerate_cli(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "3")
    assert code == 0
    assert out.splitlines()[1] == "2;0,3,0,1,2,0,1,,,true,true,"
    code, _, _ = run_cli(capsys, "enumerate", "4")
    assert code == 2


def test_selftest_cli_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--max-p", "3")
    assert code == 0
    assert "all suites passed" in out
    assert out.count("PASS") == 6
    code, out, _ = run_cli(capsys, "selftest", "--max-p", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True


def test_seed_determinism_bytes(capsys):
    args = ("scan", "--minpoly", "1,-1,1", "--prime-range", "5:13", "--seed", "11")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_seed_changes_only_the_meta_field(capsys):
    args = ("scan", "--minpoly", "1,-1,1", "--prime-range", "5:13", "--format", "json")
    _, out1, _ = run_cli(capsys, *args, "--seed", "1")
    _, out2, _ = run_cli(capsys, *args, "--seed", "2")
    doc1, doc2 = json.loads(out1), json.loads(out2)
    assert (doc1["meta"].pop("seed"), doc2["meta"].pop("seed")) == (1, 2)
    assert doc1 == doc2


def test_internal_error_exit_code(monkeypatch, capsys):
    # a broken invariant is a bug, not bad input: exit 3, not 2
    import higgsflow.factorization as fact_mod
    from higgsflow.errors import CertificateCheckFailed

    def broken(*args, **kwargs):
        raise CertificateCheckFailed("certificate identity det P does not hold")

    monkeypatch.setattr(fact_mod, "birkhoff_step2", broken)
    code, _, err = run_cli(capsys, "scan", "--rational", "-1", "--prime-range", "5:5")
    assert code == 3
    assert "internal error" in err


def test_value_error_is_an_internal_error(monkeypatch, capsys):
    # every bad input is a HiggsflowError; a ValueError, such as a shape
    # mismatch in stacked array code, is a bug: exit 3, not 2
    import higgsflow.scan as scan_mod

    def mismatched(cocycles):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(scan_mod, "splittings_from_T", mismatched)
    code, out, err = run_cli(capsys, "enumerate", "5")
    assert code == 3
    assert out == ""
    assert err == "internal error: operands could not be broadcast together\n"


def test_inexact_division_exits_internal(monkeypatch, capsys):
    # an inexact division that must be exact is a bug, not bad input
    import higgsflow.factorization as fact_mod
    from higgsflow.polys import Poly, poly_divexact

    def inexact(ctx, cocycles, *step1):
        z = Poly.monomial(ctx, 1)
        return poly_divexact(z, z + Poly.one(ctx))

    monkeypatch.setattr(fact_mod, "birkhoff_step2", inexact)
    code, _, err = run_cli(capsys, "scan", "--rational", "-1", "--prime-range", "5:5")
    assert code == 3
    assert err.startswith("internal error:") and "inexact polynomial division" in err


def test_polynomial_layer_failure_in_step1_exits_internal(monkeypatch, capsys):
    # a polynomial-layer invariant breaking inside step 1 is a bug, not bad input
    import higgsflow.factorization as fact_mod
    from higgsflow.polys import Poly

    def zero_lead(ctx, A):
        return Poly.zero(ctx).lead()

    monkeypatch.setattr(fact_mod, "birkhoff_step1", zero_lead)
    code, _, err = run_cli(capsys, "scan", "--rational", "-1", "--prime-range", "5:5",
                           "--methods", "birkhoff")
    assert code == 3
    assert err.startswith("internal error:") and "leading coefficient" in err


def test_witt_layer_inexact_division_exits_internal(monkeypatch, capsys):
    # a wrong Teichmueller lift leaves lam - tau(lam0) prime to p: a bug, not bad input
    import higgsflow.fields as fields_mod

    teichmuller = fields_mod.teichmuller

    def off_by_one(x0):
        t = teichmuller(x0)
        return t + t.ctx.w_from_int(1)

    monkeypatch.setattr(fields_mod, "teichmuller", off_by_one)
    code, _, err = run_cli(capsys, "scan", "--rational", "-1", "--prime-range", "5:5")
    assert code == 3
    assert err.startswith("internal error:") and "not divisible by p" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0


def test_jobs_default_ignores_environment(monkeypatch):
    from higgsflow.cli import build_parser

    # --jobs is the one knob for the worker count
    monkeypatch.setenv("HIGGSFLOW_JOBS", "4")
    args = build_parser().parse_args(["scan", "--rational", "-1"])
    assert args.jobs == 1


@pytest.mark.parametrize("jobs", ["0", "-1"])
@pytest.mark.parametrize("argv", [("scan", "--rational", "-1", "--prime-range", "5:13"),
                                  ("beauville", "--prime-range", "5:13")],
                         ids=["scan", "beauville"])
def test_jobs_below_one_is_rejected(monkeypatch, capsys, argv, jobs):
    # the runner imports the pool class when it builds a pool
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was built")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    code, out, err = run_cli(capsys, *argv, f"--jobs={jobs}")
    assert code == 2
    assert out == ""
    assert err == f"error: jobs must be at least 1, got {jobs}\n"


def test_cli_import_loads_no_process_pool():
    # a serial run never starts a pool, so importing the CLI must not pay
    # for multiprocessing and what it imports
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, higgsflow.cli; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_mismatch_exit_code(monkeypatch, capsys):
    # a cross-method disagreement must surface as exit code 3
    import higgsflow.cli as cli_mod
    from higgsflow.scan import ScanReport, ScanRow

    def fake_scan(*args, **kwargs):
        row = ScanRow(lambda_label="-1", p=5, place=0, d=1, lambda0="4",
                      lambda1="0", n_t=1, n_birkhoff=0, periodic=None,
                      agree=False)
        return ScanReport(meta={"version": "x", "convention": "twisted", "seed": 0},
                          rows=[row],
                          summary={"mismatches": [["-1", 5, 0]]})

    monkeypatch.setattr(cli_mod, "run_scan", fake_scan)
    code = main(["scan", "--rational", "-1", "--prime-range", "5:5"])
    capsys.readouterr()
    assert code == 3


@pytest.mark.parametrize("argv,digest", [
    (("enumerate", "7", "--methods", "t,birkhoff,cech"),
     "0c751d96c0b05a0f16524cd49735a8a8fcb3f68fa1d6eb189e7bb232cf66edc0"),
    (("scan", "--rational", "-1", "--prime-range", "3:97"),
     "73634d9cd8efb2167e97da490030f04e4205e6f81731479d3620b0492ef14115"),
    (("beauville", "--prime-range", "5:23", "--methods", "t,birkhoff", "--format", "json"),
     "d46c96b40eb97b3dd1b74c6ad2b4c565df52b5376d6796ea8af1938200e5a493"),
    (("beauville", "--prime-range", "5:97", "--format", "json"),
     "2e564801c885c21a16ffc161553fc15298c5139498b0489fb035899e1f2eaa18"),
    (("scan", "--minpoly", "1,-1,1", "--prime-range", "5:97", "--both-embeddings",
      "--format", "json"),
     "fc489551ae2eda2e63d3f305251c9a68d3eead10cc5fbc13816faf388d682165"),
    (("enumerate", "5", "--methods", "t,birkhoff,cech", "--format", "json"),
     "9cd51385b16e0b38f77a8807305f61a05b9ad2d25fa29c74f352a6e3c8412dce"),
    (("enumerate", "11", "--methods", "t,birkhoff,cech", "--format", "json"),
     "922470e19b300a34b831d599c6870550ff78d0e6b98e9232f023ee19f1285c38"),
    # 3p + 10 = 67 ansatz columns: the cech stacks cross the 64-column panel edge
    (("enumerate", "19", "--methods", "t,cech", "--format", "json"),
     "e1ea22a881c491fceef79146a8fdd07f3d771fff582ba204058b7a6105f176b5"),
    (("selftest", "--max-p", "7", "--seed", "42"),
     "a72410e53971ad8952a0ad62000eafdc3d7a7e0144923405b99703d20bf7a125"),
], ids=["enumerate-7", "scan-minus-one", "beauville-5-23", "beauville-5-97", "scan-inert",
        "enumerate-5-json", "enumerate-11-json", "enumerate-19-t-cech", "selftest-7"])
def test_report_bytes_match_golden_hash(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
