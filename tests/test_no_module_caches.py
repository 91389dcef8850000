"""No function of the package keeps a process-lifetime memo.

A ``functools.lru_cache`` or ``functools.cache`` on a module-level function
holds every argument and result for as long as the interpreter runs, and
makes a value's identity depend on call history.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "higgsflow"
CACHES = {"lru_cache", "cache"}


def _cache_decorators(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
            if name in CACHES:
                found.append(f"{node.name} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_is_cached(path):
    assert not _cache_decorators(ast.parse(path.read_text("utf-8")))


def test_detector_sees_both_spellings():
    src = ("import functools\nfrom functools import cache\n"
           "@functools.lru_cache(maxsize=None)\ndef f(x): return x\n"
           "@cache\ndef g(x): return x\n")
    assert _cache_decorators(ast.parse(src)) == ["f (line 4)", "g (line 6)"]
