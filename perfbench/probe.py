"""One benchmark pass in a fresh interpreter: set up, make the calls, report.

Reads a plan (JSON) on stdin and prints one JSON line on stdout.  Each pass
runs in its own interpreter, so module-level caches of the package
(``criterion._t_cache``, ``make_context``'s cache, the catalog cache, the
extension fields of each context) start cold, as they do for every CLI
invocation.  Set-up is the interpreter start, the package import, the
catalog load and the contexts the pass's reference rows touch; it ends at
``t_ready``, a ``perf_counter`` stamp the parent compares with its own.
The processor's speed is measured (``machine.calibrate``) before each call
and after the last.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter


def _load_package(src: str):
    sys.path.insert(0, src)
    import higgsflow.cli
    where = os.path.realpath(higgsflow.cli.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"higgsflow imported from {where}, not from {src}")
    return higgsflow


def _call(cli, argv: list[str]) -> tuple[int | None, str | None, float]:
    """Run one CLI call; any failure comes back as data, never raised."""
    err = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        error = err.getvalue().strip() or None
    except Exception as exc:  # noqa: BLE001 - the boundary records every failure
        rc = None
        error = "; ".join([f"{type(exc).__name__}: {exc}", *getattr(exc, "__notes__", ())])
        if type(exc).__name__ != "RowTimeout":
            error += "\n" + traceback.format_exc(limit=3)
    return rc, error, perf_counter() - t0


def main() -> int:
    plan = json.load(sys.stdin)
    if plan["cpu"] is not None:
        os.sched_setaffinity(0, {plan["cpu"]})
    _load_package(plan["src"])
    import hooks
    from higgsflow import cli, fields, lambdas
    from machine import calibrate

    import numpy
    clock, tracer = hooks.install(plan["row_cap_s"], plan["traced"], plan["keep_spans"])
    lambdas.beauville_catalog()
    for p, d in plan["contexts"]:
        fields.make_context(p, d)
    t_ready = perf_counter()
    setup_layers = tracer.take() if tracer else {}

    cal_s = []
    calls = []
    for k, call in enumerate(plan["calls"]):
        cal_s.append(calibrate())
        out = os.path.join(plan["out_dir"], f"report{k}")
        clock.reports.clear()
        rc, error, wall = _call(cli, call["argv"] + ["--out", out])
        timed = [r for rep in clock.reports for r in rep.rows if hasattr(r, "bench")]
        rows = [r.bench for r in timed]
        try:
            with open(out, "rb") as fh:
                data = fh.read()
            os.remove(out)
        except FileNotFoundError:
            data = None
        calls.append({
            "rc": rc, "error": error, "wall_s": wall,
            "report": data.decode("utf-8") if data is not None else None,
            "row_ms": [r["ms"] for r in rows],
            "row_keys": [r.bench["key"] for r in timed if r.bad_reason is None],
            "row_pids": [r["pid"] for r in rows],
            "row_layers": [r.get("layers", {}) for r in rows],
            "call_layers": tracer.take() if tracer else {},
        })

    ru_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ru_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {"t_ready": t_ready, "pid": os.getpid(), "calls": calls,
              "cal_s": cal_s + [calibrate()],
              "setup_layers": setup_layers,
              "peak_rss_kb": ru_self + ru_children,
              "numpy": numpy.__version__}
    if tracer is not None and plan["keep_spans"]:
        result["spans"] = tracer.spans
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
