"""The benchmark's tracer patches package functions by name; keep them there."""

import importlib.util
from pathlib import Path

HOOKS = Path(__file__).resolve().parent.parent / "perfbench" / "hooks.py"


def test_every_traced_name_resolves():
    # imports the hooks module without installing it
    spec = importlib.util.spec_from_file_location("perfbench_hooks", HOOKS)
    hooks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(hooks)
    missing = [f"{getattr(owner, '__name__', owner)}.{name}"
               for owner, name, *_ in hooks.SPANS if not hasattr(owner, name)]
    assert not missing
