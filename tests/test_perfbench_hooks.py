"""The benchmark's tracer patches package functions by name; keep them there."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
HOOKS = ROOT / "perfbench" / "hooks.py"
PROBE = ROOT / "perfbench" / "probe.py"

# (argv, rows in its report)
PROBE_CALLS = (
    (["beauville", "--prime-range", "5:7", "--methods", "t,birkhoff", "--format", "json"], 36),
    (["enumerate", "3", "--methods", "t,birkhoff,cech"], 3),
)


def test_every_traced_name_resolves():
    # imports the hooks module without installing it
    spec = importlib.util.spec_from_file_location("perfbench_hooks", HOOKS)
    hooks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(hooks)
    missing = [f"{getattr(owner, '__name__', owner)}.{name}"
               for owner, name, *_ in hooks.SPANS if not hasattr(owner, name)]
    assert not missing


def _report_rows(report: str) -> int:
    if report.startswith("{"):
        return len(json.loads(report)["rows"])
    return len(report.splitlines()) - 1


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_probe_pass_times_every_row(tmp_path, traced):
    # one benchmark pass through the hooks: the row clock unpacks the scan
    # task tuple and times every row that reaches a report
    plan = {"src": str(ROOT / "src"), "cpu": None, "row_cap_s": 60.0,
            "traced": traced, "keep_spans": False, "contexts": [],
            "out_dir": str(tmp_path),
            "calls": [{"argv": argv} for argv, _ in PROBE_CALLS]}
    proc = subprocess.run([sys.executable, str(PROBE)], input=json.dumps(plan),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    layers = set()
    for call, (argv, rows) in zip(res["calls"], PROBE_CALLS):
        assert call["rc"] == 0, (argv, call["error"])
        assert _report_rows(call["report"]) == rows
        assert len(call["row_ms"]) == rows
        for row in call["row_layers"]:
            layers.update(row)
    assert ("criterion.build_T_s" in layers) == traced
