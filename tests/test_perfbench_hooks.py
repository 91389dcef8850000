"""The benchmark's tracer patches package functions by name; keep them there."""

import ast
import importlib
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
    # a stack above the crossover: birkhoff step 1 runs once, in lockstep
    (["enumerate", "5", "--methods", "t,birkhoff"], 15),
)


def _hooks():
    # imports the hooks module without installing it
    spec = importlib.util.spec_from_file_location("perfbench_hooks", HOOKS)
    hooks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(hooks)
    return hooks


def test_every_traced_name_resolves():
    hooks = _hooks()
    missing = [f"{getattr(owner, '__name__', owner)}.{name}"
               for owner, name, *_ in hooks.SPANS if not hasattr(owner, name)]
    assert not missing


def _unused_imports(path: Path) -> set[str]:
    """Names a module imports at module level and never references."""
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name.split(".")[0]
                for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_unused_imports_are_only_traced_names():
    # an import nothing in its module uses is kept only for the tracer to
    # patch by name there; anything else is a leftover
    spans = _hooks().SPANS
    stray = {}
    for path in sorted((ROOT / "src" / "higgsflow").glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = importlib.import_module(f"higgsflow.{path.stem}")
        traced = {name for owner, name, *_ in spans if owner is module}
        extra = _unused_imports(path) - traced
        if extra:
            stray[path.stem] = sorted(extra)
    assert not stray


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
        call_layers = set().union(*call["row_layers"])
        # birkhoff step 1, per row or stacked, is timed through its traced name
        assert ("factorization.step1_s" in call_layers) == traced, argv
        layers |= call_layers
    assert ("criterion.build_T_s" in layers) == traced
