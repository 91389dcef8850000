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
    # one stack of 15 rows: birkhoff step 1 runs once, in lockstep
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


def test_stacked_birkhoff_is_reached_through_its_traced_names(monkeypatch):
    # the tracer times step 2 and the certificate check as
    # factorization.step2 and factorization.verify by wrapping these module
    # attributes; a stacked run must call them there, or both read 0
    from collections import Counter

    from higgsflow import factorization
    from higgsflow.scan import run_enumerate

    calls = Counter()
    for name in ("birkhoff_step2", "verify_certificate"):
        fn = getattr(factorization, name)

        def counted(*args, _name=name, _fn=fn):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(factorization, name, counted)
    report = run_enumerate(5, ("t", "birkhoff"))
    assert len(report.rows) == 15
    assert calls == {"birkhoff_step2": 1, "verify_certificate": 1}


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


def test_private_helpers_are_referenced():
    # a private module-level function or class that no module of the
    # package names is a leftover of a refactor, unless the tracer wraps it
    traced = {(getattr(owner, "__name__", None), name) for owner, name, *_ in _hooks().SPANS}
    defined, referenced = {}, set()
    for path in sorted((ROOT / "src" / "higgsflow").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                defined[node.name] = path.stem
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    orphans = {f"{module}.{name}" for name, module in defined.items()
               if name not in referenced and (f"higgsflow.{module}", name) not in traced}
    assert not orphans


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
        # birkhoff step 1, on every stack, is timed through its traced name
        assert ("factorization.step1_s" in call_layers) == traced, argv
        layers |= call_layers
    assert ("criterion.build_T_s" in layers) == traced
