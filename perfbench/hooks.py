"""Outside-in instrumentation of the higgsflow package for one benchmark pass.

Nothing here edits the package: every hook replaces a module attribute with
a wrapper, at each name a caller looks the function up by.  The package
imports with ``from .x import y``, so a function is patched in every module
that holds its own reference to it (``scan.splitting_from_T``,
``factorization.verify_certificate``, ``sections.mat_rank``, ...).

Two kinds of hooks exist:

* The row clock (always installed).  ``scan.ScanRow`` is replaced by
  ``TimedRow``, which notes the time since the previous row, or since the
  row-producing call began, when it is constructed.  A per-row time cap is
  armed with ``SIGALRM`` while rows are computed; a row that exceeds it
  raises ``RowTimeout``.  Rows computed in pool workers carry their timing
  back to the parent inside the pickled row.  Emitted reports are kept so
  the pass can read those timings.
* The tracer (traced passes only).  Each wrapped function records a span
  (name, start, end, parent span, row id).  A span's self time is its
  duration minus the time its child spans cover.  Self times and counts are
  summed per layer metric and attached to the row that was being computed,
  so worker-side work reaches the parent the same way as row timings.
"""

from __future__ import annotations

import os
import signal
from time import perf_counter

from higgsflow import (cli, criterion, factorization, fields, lambdas, linalg,
                       polys, scan, sections)

# (owner, attribute, layer metric, call-count metric or None).  An owner is
# a module (patched at that module's global) or a class (patched on the
# class, which covers every caller).
SPANS = (
    (cli, "main", "cli.main", None),
    (cli, "parse_lambda_spec", "lambdas.reduce", None),
    (cli, "run_scan", "scan.self", None),
    (cli, "run_verify_beauville", "scan.self", None),
    (cli, "run_enumerate", "scan.self", None),
    (cli, "_emit_report", "scan.emit", None),
    (scan, "run_scan", "scan.self", None),
    (scan, "_scan_prime_task", "scan.self", None),
    (scan, "_row_from_datum", "scan.self", None),
    (scan, "beauville_catalog", "lambdas.reduce", None),
    (scan, "reduce_at_prime", "lambdas.reduce", None),
    (scan, "witt_compose", "fields.witt", None),
    (lambdas, "beauville_catalog", "lambdas.reduce", None),
    (lambdas, "make_context", "fields.context", None),
    (scan, "make_context", "fields.context", None),
    (fields.ReductionContext, "extension", "fields.context", None),
    (scan, "splitting_from_T", "criterion.rank_scan", None),
    (criterion, "build_T", "criterion.build_T", None),
    (factorization, "remainder_system", "criterion.remainder", None),
    (criterion, "mat_rank", "linalg.rank", None),
    (sections, "mat_rank", "linalg.rank", None),
    (linalg, "_rank_mod_p", "linalg.rank", "linalg.rank_calls"),
    (factorization, "_rank_mod_p", "linalg.rank", "linalg.rank_calls"),
    (factorization, "left_nullspace_vecs", "linalg.nullspace", None),
    (scan, "splitting_from_birkhoff", "factorization.pipeline", None),
    (factorization, "factorization_certificate", "factorization.pipeline", None),
    (factorization, "birkhoff_step1", "factorization.step1", None),
    (factorization, "birkhoff_step2", "factorization.step2", None),
    (factorization, "verify_certificate", "factorization.verify", None),
    (factorization, "build_A_primitive", "cocycle.build_A", None),
    (sections, "build_A_primitive", "cocycle.build_A", None),
    (factorization, "build_transition", "cocycle.transition", None),
    (sections, "build_transition", "cocycle.transition", None),
    (scan, "splitting_from_cech", "sections.cech", None),
    (sections, "h0_of_twist", "sections.h0", "sections.h0_calls"),
    (polys.Poly, "__mul__", "polys.mul", "polys.mul_calls"),
    (factorization, "poly_divrem", "polys.divrem", None),
    (factorization, "poly_divexact", "polys.divrem", None),
    (factorization, "poly_ext_gcd", "polys.ext_gcd", None),
)

# Eliminations are attributed to the nearest enclosing span of these layers,
# which gives the step-1 re-scan of what the t method already eliminated.
_ELIM_OWNERS = {"factorization.step1": "elims.step1", "criterion.rank_scan": "elims.t"}


class RowTimeout(Exception):
    """A row ran past the per-row time cap."""


class Tracer:
    """Span stack of one process; sums self time and counts per metric."""

    def __init__(self, keep_spans: bool):
        self.pid = os.getpid()
        self.stack: list[list] = []      # [metric, start, child_time, span_id]
        self.pending: dict[str, float] = {}
        self.keep_spans = keep_spans
        self.spans: list[list] = []      # [name, start, end, parent_id, row_id]
        self.row_start = 0               # first span not yet given a row id

    def enter_worker(self) -> None:
        """Drop what a forked pool worker inherited from its parent.

        The parent's open spans and pending sums are the parent's to
        report; a worker keeps no raw spans, only per-row sums.
        """
        if os.getpid() != self.pid:
            self.__init__(keep_spans=False)

    def enter(self, metric: str) -> None:
        self.stack.append([metric, perf_counter(), 0.0, len(self.spans)])
        if self.keep_spans:
            self.spans.append(None)

    def leave(self) -> None:
        end = perf_counter()
        metric, start, child, span_id = self.stack.pop()
        dur = end - start
        if self.stack:
            self.stack[-1][2] += dur
        key = metric + "_s"
        self.pending[key] = self.pending.get(key, 0.0) + dur - child
        if self.keep_spans:
            parent = self.stack[-1][3] if self.stack else None
            self.spans[span_id] = [metric, start, end, parent, None]

    def count(self, metric: str, n: int = 1) -> None:
        self.pending[metric] = self.pending.get(metric, 0) + n

    def owner(self, names) -> str | None:
        for frame in reversed(self.stack):
            if frame[0] in names:
                return frame[0]
        return None

    def take(self, row_id=None) -> dict:
        """Hand over what accrued since the last call; label the spans."""
        out, self.pending = self.pending, {}
        if self.keep_spans:
            for span in self.spans[self.row_start:]:
                if span is not None and span[4] is None:
                    span[4] = row_id
            self.row_start = len(self.spans)
        return out


class RowClock:
    """Per-row wall time and the per-row cap, in whichever process computes rows."""

    def __init__(self, cap_s: float, tracer: Tracer | None):
        self.cap_s = cap_s
        self.tracer = tracer
        self.last = perf_counter()
        self.minpoly = None              # of the scan task being computed
        self.marked = 0                  # rows finished since the task began
        self.reports: list = []          # reports emitted by this process

    def _arm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, self.cap_s)

    def begin(self, minpoly) -> None:
        self.minpoly = minpoly
        self.marked = 0
        self.last = perf_counter()
        self._arm()

    def end(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.minpoly = None

    def mark(self, row) -> None:
        """Time the row just built; the key (minpoly or label, p, place) says
        which rows are the same computation."""
        now = perf_counter()
        bench = {"ms": (now - self.last) * 1e3, "pid": os.getpid(),
                 "key": [self.minpoly or row.lambda_label, row.p, row.place]}
        if self.tracer is not None:
            bench["layers"] = self.tracer.take(
                [row.lambda_label, row.p, row.place])
        object.__setattr__(row, "bench", bench)
        self.marked += 1
        self.last = now
        self._arm()

    def on_alarm(self, signum, frame):
        raise RowTimeout(f"a row exceeded {self.cap_s:g} s")


_clock: RowClock | None = None


class TimedRow(scan.ScanRow):
    """ScanRow that reports to the row clock when it is built."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        _clock.mark(self)


def _merge(into: dict, extra: dict) -> None:
    for k, v in extra.items():
        into[k] = into.get(k, 0) + v


def _patch(owner, name: str, wrapper) -> None:
    wrapper.__wrapped__ = getattr(owner, name)
    for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
        setattr(wrapper, attr, getattr(wrapper.__wrapped__, attr, None))
    setattr(owner, name, wrapper)


def _span_wrapper(fn, tracer: Tracer, metric: str, calls: str | None):
    def wrapper(*args, **kwargs):
        tracer.enter(metric)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.leave()
            if calls:
                tracer.count(calls)
    return wrapper


def _install_counters(tracer: Tracer) -> None:
    mul = polys.Poly.__mul__

    def counted_mul(self, other):
        if isinstance(other, polys.Poly):
            tracer.count("polys.mul_coeff_products", len(self.v) * len(other.v))
        return mul(self, other)
    _patch(polys.Poly, "__mul__", counted_mul)

    rref = linalg._rref_mod_p

    def counted_rref(mat, p):
        out = rref(mat, p)
        rows, cols = mat.shape
        tracer.count("linalg.elim_ops", rows * cols * len(out[1]))
        owner = tracer.owner(_ELIM_OWNERS)
        if owner is not None:
            tracer.count(_ELIM_OWNERS[owner])
        return out
    _patch(linalg, "_rref_mod_p", counted_rref)


def _install_row_clock(clock: RowClock, tracer: Tracer | None) -> None:
    task = scan._scan_prime_task

    def timed_task(args):
        minpoly, label, _selector, p = args[:4]
        if tracer is not None:
            tracer.enter_worker()
        clock.begin(list(minpoly))
        try:
            rows = task(args)
        except BaseException as exc:
            exc.add_note(f"in the row task for lambda {label} at p={p}")
            raise
        finally:
            clock.end()
        if tracer is not None and rows:
            # self time of this task span lands after its last row: ship it
            # with that row so worker-side time reaches the parent
            _merge(rows[-1].bench.setdefault("layers", {}), tracer.take())
        return rows
    _patch(scan, "_scan_prime_task", timed_task)

    enumerate_ = cli.run_enumerate

    def timed_enumerate(p, *args, **kwargs):
        clock.begin(None)
        try:
            return enumerate_(p, *args, **kwargs)
        except BaseException as exc:
            exc.add_note(f"in enumerate at p={p}, after {clock.marked} rows")
            raise
        finally:
            clock.end()
    _patch(cli, "run_enumerate", timed_enumerate)

    emit = cli._emit_report

    def kept_emit(report, fmt, out):
        clock.reports.append(report)
        return emit(report, fmt, out)
    _patch(cli, "_emit_report", kept_emit)
    scan.ScanRow = TimedRow


def install(row_cap_s: float, traced: bool, keep_spans: bool = False):
    """Install the hooks for this process; returns (clock, tracer or None).

    The row clock wraps ``scan._scan_prime_task`` and ``cli.run_enumerate``
    outside their span wrappers, so a task span has ended, and its self
    time is known, when the clock ships it with the task's last row.
    """
    global _clock
    tracer = Tracer(keep_spans) if traced else None
    _clock = RowClock(row_cap_s, tracer)
    signal.signal(signal.SIGALRM, _clock.on_alarm)
    if tracer is not None:
        _install_counters(tracer)
        for owner, name, metric, calls in SPANS:
            fn = getattr(owner, name)
            _patch(owner, name, _span_wrapper(fn, tracer, metric, calls))
    _install_row_clock(_clock, tracer)
    return _clock, tracer
