"""Tests of the benchmark itself; run from the repository root with

    python3 -m pytest perfbench -q

Each workload runs once untraced and once traced at the smallest size the
benchmark allows (``--seconds 1``: the minimum number of passes).
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from report import digest  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@functools.lru_cache(maxsize=None)
def _tiny(name: str, trace: int):
    """Run a workload once at the smallest size; (exit code, stdout, stderr)."""
    proc = _run(ROOT, "--workload", name, "--seed", "3", "--seconds", "1",
                "--trace", str(trace))
    return proc.returncode, proc.stdout, proc.stderr


def test_spec_workloads_are_defined():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_run_emits_every_metric_and_passes_the_gate(name, trace):
    code, out, err = _tiny(name, trace)
    assert code == 0, err
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    text = "\n".join(lines[:-1])
    assert "failed_ratio" in text and "report_mismatch" in text
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.95


def test_trace_contrasts_between_workloads():
    """The layer shares the workloads were chosen for, on one seed."""
    layers = {}
    for name in ("catalog", "oracle", "large_p"):
        assert _tiny(name, 1)[0] == 0
        with open(os.path.join(ROOT, "perfbench", "results",
                               f"{name}-seed3-trace1.json")) as fh:
            rec = json.load(fh)
        wall = next(p["wall_s"] for p in rec["pass_detail"] if p["traced"])
        layers[name] = {k: v / wall if k.endswith("_s") else v
                        for k, v in rec["layers"].items()}
    assert layers["oracle"]["sections.h0_s"] + layers["oracle"]["linalg.rank_s"] > 0.5
    big = layers["large_p"]
    assert big["factorization.step2_s"] + big["linalg.rank_s"] + big["linalg.nullspace_s"] > 0.5
    assert layers["catalog"]["factorization.verify_s"] > big["factorization.verify_s"]
    assert layers["catalog"]["scan.distinct_ratio"] < 1
    assert big["scan.distinct_ratio"] == 1 == layers["oracle"]["scan.distinct_ratio"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run(tmp_path, "--workload", "catalog", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_digest_ignores_only_the_json_seed():
    report = b'{\n  "meta": {\n    "convention": "twisted",\n    "seed": 7,\n' \
             b'    "version": "0.1.0"\n  }\n}\n'
    assert digest(report, 7) == digest(report.replace(b'"seed": 7', b'"seed": 0'), 0)
    assert digest(report, 8) != digest(report.replace(b'"seed": 7', b'"seed": 0'), 0)
    assert digest(b"lambda,p\n", 5) == digest(b"lambda,p\n", 0)


def test_row_cap_hits_are_failed_rows(monkeypatch):
    import run
    monkeypatch.setattr(run, "ROW_CAP_S", 0.001)
    out = run.measure(ROOT, "oracle", 1, 0.5, False)
    assert out["correct"] is False
    assert out["failed"] == out["attempted"] > 0
    assert {f["error"] for f in out["record"]["failures"]} == {"timeout"}
    assert out["record"]["failed_ratio"] == 1.0
