"""The higgsflow benchmark: one workload, one seed, a fixed measuring time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

A run repeats passes (see ``workloads.py``) one at a time, each in a fresh
interpreter (``probe.py``), until the next pass would overrun ``--seconds``;
it makes at least ``MIN_PASSES`` passes.  Every report is checked against the
reference recorded at the parent commit (``references.json``, written by
``record.py``) and every good row for agreement of its methods.

``--trace 0`` prints the end-to-end metrics: each call's and each row's best
time across the passes, scaled to a reference processor speed (see
``end_to_end``).
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of the traced ones (median self times, exact counts),
with the trace's coverage and its overhead: the scaled best wall time of
the traced passes minus that of the untraced ones.

The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` rows and ``metrics``.  A full record of the run
(machine, load, every pass, every failure) goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from machine import fastest_cpu  # noqa: E402
from report import check_rows, digest, rows_of  # noqa: E402

MIN_PASSES = 3          # untraced run; a traced run needs one pass of each kind
ROW_CAP_S = 30.0        # per-row time cap, far above the slowest row (~3 s)
CAL_REF_S = 4.5e-3      # machine.calibrate on a 2-vCPU Xeon host in a fast phase
HARD_STOP_S = 170.0     # no pass may run past this point of the run
PROBE = os.path.join(HERE, "probe.py")


class BenchError(Exception):
    """The benchmark cannot run here: no result is printed."""


def _median(xs):
    return statistics.median(xs) if xs else None


def _p90(xs):
    """90th percentile, interpolated inside the observed range."""
    return statistics.quantiles(xs, n=10, method="inclusive")[8] if len(xs) > 1 else xs[0]


def _loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _commit(root: str):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def load_inputs(root: str, name: str, seed: int):
    """Spec, calls and references for a run; BenchError if any is missing."""
    if not os.path.isfile(os.path.join(root, "src", "higgsflow", "cli.py")):
        raise BenchError("no higgsflow source under ./src: run from a checkout root")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "references.json")) as fh:
        refs = json.load(fh)
    if name not in workloads.NAMES:
        raise BenchError(f"unknown workload {name!r}")
    calls = workloads.pass_calls(name, seed)
    for call in calls:
        ref = refs.get(call["ref"])
        if ref is None:
            raise BenchError(f"no reference for {call['ref']!r}: run perfbench/record.py")
        prefix = workloads.GOLDEN.get(call["ref"])
        if prefix and not ref["sha256"].startswith(prefix):
            raise BenchError(f"reference for {call['ref']!r} is not the golden {prefix}")
    return spec, calls, refs


def run_pass(root: str, plan: dict, timeout: float) -> dict:
    """One pass in a fresh interpreter; never raises for a failing pass.

    A pass whose calls run in one process is pinned to the processor that
    is fastest when it starts (see ``machine.py``); a pass with a worker
    pool may use every processor.
    """
    speeds = None
    if plan["jobs"] == 1:
        plan["cpu"], speeds = fastest_cpu()
    env = dict(os.environ, PYTHONPATH=plan["src"])
    env.pop("HIGGSFLOW_JOBS", None)
    t_spawn = perf_counter()
    proc = subprocess.Popen([sys.executable, PROBE], cwd=root, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(json.dumps(plan), timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": "timeout", "pass_s": perf_counter() - t_spawn}
    pass_s = perf_counter() - t_spawn
    try:
        os.killpg(proc.pid, signal.SIGKILL)   # stray pool workers, if any
    except ProcessLookupError:
        pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"probe exit {proc.returncode}: {err.strip()[-2000:]}", "pass_s": pass_s}
    res = json.loads(lines[-1])
    res["setup_s"] = res["t_ready"] - t_spawn
    res["pass_s"] = pass_s
    res["cpu_speeds"] = speeds
    return res


def evaluate(res: dict, calls: list[dict], refs: dict, seed: int) -> dict:
    """Row accounting and the correctness gate for one pass."""
    ev = {"attempted": 0, "failed": 0, "good": 0, "mismatch": 0, "failures": [],
          "emit_bytes": 0, "wall_s": None}
    for k, call in enumerate(calls):
        ref = refs[call["ref"]]
        ev["attempted"] += ref["rows"]
        c = res["calls"][k] if "calls" in res else None
        if c is None or c["report"] is None or c["rc"] not in (0, 3):
            error = res.get("error") if c is None else (c["error"] or f"exit {c['rc']}")
            kind = "timeout" if error == "timeout" or error.startswith("RowTimeout") else error
            ev["failed"] += ref["rows"]
            ev["mismatch"] += 1
            ev["failures"].append({"call": call["argv"], "rows": ref["rows"], "error": kind,
                                   "detail": error})
            continue
        data = c["report"].encode("utf-8")
        ev["emit_bytes"] += len(data)
        if digest(data, seed) != ref["sha256"]:
            ev["mismatch"] += 1
            ev["failures"].append({"call": call["argv"], "error": "report differs from reference"})
        good, disagree = check_rows(rows_of(data))
        ev["good"] += good - len(disagree)
        ev["failed"] += len(disagree)
        for lam, p, place in disagree:
            ev["failures"].append({"call": call["argv"], "error": "disagreement",
                                   "lambda": lam, "p": p, "place": place})
    if "calls" in res and not ev["failures"]:
        ev["wall_s"] = sum(c["wall_s"] for c in res["calls"])
    return ev


def layer_totals(res: dict) -> tuple[dict, float]:
    """Per-metric sums of one traced pass, and the self time of its own process."""
    tot: dict = {}
    own = 0.0

    def add(layers, own_process):
        nonlocal own
        for k, v in layers.items():
            tot[k] = tot.get(k, 0) + v
            if own_process and k.endswith("_s"):
                own += v
    add(res["setup_layers"], False)
    for c in res["calls"]:
        add(c["call_layers"], True)
        for layers, pid in zip(c["row_layers"], c["row_pids"]):
            add(layers, pid == res["pid"])
    return tot, own


def _speed_scale(passes: list) -> float:
    """Factor that brings a run's times to the reference processor speed."""
    return CAL_REF_S / min(c for r, _ in passes for c in r["cal_s"])


def _best_wall(passes: list) -> float:
    """Each call's fastest wall time across the passes, summed."""
    return sum(min(c["wall_s"] for c in calls)
               for calls in zip(*(r["calls"] for r, _ in passes)))


def end_to_end(untraced: list, jobs: int) -> dict:
    """End-to-end metrics of the untraced passes.

    The host's processors are shared.  Their speed changes within seconds
    (a slow phase makes a pass 1.7x slower) and drifts over tens of minutes
    (the same run 25% slower half an hour later).  Slow phases only add
    time, so a run reports its best: the wall time is each call's fastest
    time across the passes, summed, and each row's time is its fastest
    across the passes (every pass makes the same calls and computes the same
    rows in the same order), with the row percentiles over those.  The drift
    also slows the best, so every time is then scaled by ``CAL_REF_S`` over
    the fastest the fixed loop of ``machine.calibrate`` ran in the passes.
    The loop is the benchmark's own code: a change to the program moves the
    scaled times as it moves the raw ones.  Set-up time (scaled) and memory
    are medians over the passes; raw values go to the run record.
    """
    ok = [(r, ev) for r, ev in untraced if ev["wall_s"]]
    if not ok:
        return {"_raw": {}, "_rows_per_pass": 0, "_pool_efficiency": None}
    scale = _speed_scale(ok)
    per_pass = [[ms for c in r["calls"] for ms in c["row_ms"]] for r, _ in ok]
    best_rows = [min(ms) * scale for ms in zip(*per_pass)]
    wall = _best_wall(ok) * scale
    return {
        "setup_s": statistics.median(r["setup_s"] for r, _ in ok) * scale,
        "wall_s": wall,
        "rows_per_s": ok[0][1]["good"] / wall,
        "row_ms_p50": statistics.median(best_rows),
        "row_ms_p90": _p90(best_rows),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024 for r, _ in ok),
        "_raw": {"setup_s": statistics.median(r["setup_s"] for r, _ in ok),
                 "wall_s": wall / scale, "speed_scale": scale},
        "_rows_per_pass": len(best_rows),
        "_pool_efficiency": _median([sum(ms) / 1e3 / (jobs * ev["wall_s"])
                                     for ms, (_, ev) in zip(per_pass, ok)]),
    }


def per_layer(traced: list, e2e: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced passes; notes on counts that moved."""
    ok = [(r, ev) for r, ev in traced if ev["wall_s"]]
    notes = []
    if not ok:
        return {}, ["no traced pass completed"]
    totals = [layer_totals(r) for r, _ in ok]
    keys = sorted({k for t, _ in totals for k in t})
    out = {}
    for k in keys:
        vals = [t.get(k, 0) for t, _ in totals]
        if k.endswith("_s"):
            out[k] = statistics.median(vals)
        else:
            out[k] = vals[0]
            if len(set(vals)) > 1:
                notes.append(f"count {k} differs between traced passes: {vals}")
    first, first_ev = ok[0]
    keys_seen = [json.dumps(k) for c in first["calls"] for k in c["row_keys"]]
    t_elims = out.get("elims.t", 0)
    out["factorization.rank_rescan_ratio"] = out.get("elims.step1", 0) / t_elims if t_elims else 0.0
    out["scan.distinct_ratio"] = len(set(keys_seen)) / len(keys_seen) if keys_seen else 0.0
    out["scan.emit_bytes"] = first_ev["emit_bytes"]
    out["scan.pool_efficiency"] = e2e["_pool_efficiency"]
    traced_wall = _best_wall(ok) * _speed_scale(ok)
    out["trace.coverage"] = statistics.median(own / ev["wall_s"]
                                              for (_, own), (_, ev) in zip(totals, ok))
    out["trace.overhead_s"] = traced_wall - e2e["wall_s"] if e2e.get("wall_s") else 0.0
    return out, notes


def measure(root: str, name: str, seed: int, seconds: float, traced: bool) -> dict:
    spec, calls, refs = load_inputs(root, name, seed)
    contexts = sorted({tuple(pd) for c in calls for pd in refs[c["ref"]]["contexts"]})
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
              "commit": _commit(root), "nproc": os.cpu_count(), "cpu": _cpu_model(),
              "python": platform.python_version(), "loadavg_before": _loadavg()}
    results_dir = os.path.join(HERE, "results")
    os.makedirs(results_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="reports-", dir=results_dir)
    start = perf_counter()
    untraced, traced_passes, spans = [], [], None
    durations = {False: [], True: []}
    try:
        k = 0
        while True:
            kind = traced and k % 2 == 1
            elapsed = perf_counter() - start
            enough = bool(untraced and traced_passes) if traced \
                else len(untraced) >= MIN_PASSES
            guess = max(durations[kind]) if durations[kind] else 0.0
            if enough and elapsed + guess > seconds:
                break
            remaining = HARD_STOP_S - elapsed
            if remaining < 10:
                break
            plan = {"src": os.path.join(root, "src"), "calls": calls,
                    "jobs": workloads.jobs(name), "cpu": None,
                    "contexts": contexts, "traced": kind,
                    "keep_spans": kind and spans is None,
                    "row_cap_s": ROW_CAP_S, "out_dir": tmp}
            res = run_pass(root, plan, timeout=remaining)
            durations[kind].append(res["pass_s"])
            ev = evaluate(res, calls, refs, seed)
            (traced_passes if kind else untraced).append((res, ev))
            if kind and spans is None and "spans" in res:
                spans = res.pop("spans")
            k += 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    record["loadavg_after"] = _loadavg()

    passes = untraced + traced_passes
    attempted = sum(ev["attempted"] for _, ev in passes)
    failed = sum(ev["failed"] for _, ev in passes)
    mismatch = sum(ev["mismatch"] for _, ev in passes)
    numpy_v = next((r["numpy"] for r, _ in passes if "numpy" in r), None)
    record["numpy"] = numpy_v
    e2e = end_to_end(untraced, workloads.jobs(name))
    layers, notes = per_layer(traced_passes, e2e) if traced else ({}, [])
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    source = layers if traced else e2e
    metrics = {}
    for m in wanted:
        value = source.get(m["name"])
        if value is None:
            value = 0 if traced else None
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    record.update({
        "passes": {"untraced": len(untraced), "traced": len(traced_passes)},
        "rows_per_pass": e2e["_rows_per_pass"],
        "raw": e2e["_raw"],
        "failed_ratio": failed / attempted if attempted else 1.0,
        "report_mismatch": mismatch,
        "failures": [f for _, ev in passes for f in ev["failures"]],
        "notes": notes, "metrics": metrics, "layers": layers,
        "pass_detail": [{"traced": i >= len(untraced),
                         "setup_s": r.get("setup_s"), "wall_s": ev["wall_s"],
                         "pass_s": r.get("pass_s"), "error": r.get("error"),
                         "cal_s": r.get("cal_s"), "cpu_speeds": r.get("cpu_speeds"),
                         "row_ms": [ms for c in r.get("calls", []) for ms in c["row_ms"]]}
                        for i, (r, ev) in enumerate(passes)],
    })
    stem = f"{name}-seed{seed}-trace{int(traced)}"
    with open(os.path.join(results_dir, stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if spans is not None:
        with open(os.path.join(results_dir, stem + "-spans.jsonl"), "w") as fh:
            for s in spans:
                if s is not None:
                    fh.write(json.dumps({"name": s[0], "start": s[1], "end": s[2],
                                         "parent": s[3], "row": [name, *s[4]] if s[4] else None})
                             + "\n")
    correct = mismatch == 0 and failed == 0 and all(
        v["value"] is not None for v in metrics.values())
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "record": record}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    try:
        out = measure(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rec = out["record"]
    print(f"workload {args.workload} seed {args.seed}: {rec['passes']['untraced']} untraced "
          f"and {rec['passes']['traced']} traced passes; best call and row times "
          f"scaled to the reference speed, row percentiles over {rec['rows_per_pass']} rows")
    for name, m in out["metrics"].items():
        print(f"  {name:34s} {m['value']!s:>24} {m['unit']}")
    print(f"  {'failed_ratio':34s} {rec['failed_ratio']:>24} ({out['failed']} of "
          f"{out['attempted']} rows)")
    print(f"  {'report_mismatch':34s} {rec['report_mismatch']:>24} reports")
    for f in rec["failures"][:20]:
        print(f"  failure: {json.dumps(f)}")
    for note in rec["notes"]:
        print(f"  note: {note}")
    print(json.dumps({k: out[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
