"""Prime sweeps, enumeration, self-tests, and bit-exact report emission.

A report is a header, a canonically ordered list of rows, and a summary.
Every row is computed by `_rows_from_data` from one reduction datum, a
lifted parameter at (prime, place), whichever command asks for it: scan,
beauville, enumerate or the method-agreement self-test.  It builds each
row's cocycle once, from the characteristic-p² primitive, and every method
reads that one cocycle.  It takes all the data a call has at one prime, and
every method takes each field's rows together: t and cech each eliminate
them in one stacked elimination, and birkhoff runs step 1 on them in
lockstep, and step 2 and its check on all of them at once, on step 1's
arrays; a row keeps only its n, read from the checked stack.
Scans and catalog sweeps hand one task per prime to one runner, serial
or one process pool, and sort the rows once before emission, so the
output never depends on scheduling.  A catalog task holds every distinct
minimal polynomial, so all of its rows over one field at that prime form
one stack; catalog entries that share a minimal polynomial share its
rows, computed once and relabelled.  No row depends on randomness:
certificates are checked exactly, so reports are byte-identical for
identical flags, and the seed, echoed in the JSON meta, only draws the
certificate cases of the self-test.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field, replace

from . import __version__, factorization
from .cocycle import build_A_closed, build_A_primitive, build_transition
from .criterion import det_T0_in_lam1, splittings_from_T, t_r_first_mismatch
from .errors import CertificateCheckFailed, InvalidRange, MethodUnavailable
from .factorization import assemble_certificate, factorization_certificate, verify_certificate
from .fields import (WittParameter, WittRingElement, check_residue, is_prime,
                     make_context, teichmuller, witt_compose, witt_decompose)
from .lambdas import LambdaSpec, ReductionDatum, beauville_catalog, reduce_at_prime
from .polys import Poly
from .sections import splittings_from_cech
# unused here; kept because perfbench/hooks.py patches them by name in this module
from .criterion import splitting_from_T  # noqa: F401
from .factorization import splitting_from_birkhoff  # noqa: F401
from .sections import splitting_from_cech  # noqa: F401

CSV_COLUMNS = ("lambda", "p", "place", "d", "lambda0", "lambda1",
               "n_t", "n_birkhoff", "n_cech", "periodic", "agree", "bad_reason")

KNOWN_METHODS = ("t", "birkhoff", "cech")
CECH_MAX_PRIME = 31
SCAN_MAX_PRIME = 10000
ENUM_MAX_PRIME = 31
SELFTEST_MAX_P = 13
GENERATOR_SYMBOL = "u"


@dataclass(frozen=True)
class ScanRow:
    lambda_label: str
    p: int
    place: int
    d: int
    lambda0: str = ""
    lambda1: str = ""
    n_t: int | None = None
    n_birkhoff: int | None = None
    n_cech: int | None = None
    periodic: bool | None = None
    agree: bool | None = None
    bad_reason: str | None = None

    def sort_key(self):
        return (self.lambda_label, self.p, self.place)

    def record(self) -> dict:
        return {
            "lambda": self.lambda_label, "p": self.p, "place": self.place,
            "d": self.d, "lambda0": self.lambda0, "lambda1": self.lambda1,
            "n_t": self.n_t, "n_birkhoff": self.n_birkhoff, "n_cech": self.n_cech,
            "periodic": self.periodic, "agree": self.agree,
            "bad_reason": self.bad_reason,
        }


@dataclass
class ScanReport:
    meta: dict
    rows: list[ScanRow]
    summary: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        def cell(v):
            if v is None:
                return ""
            if isinstance(v, bool):
                return "true" if v else "false"
            return str(v)

        lines = [",".join(CSV_COLUMNS)]
        for row in self.rows:
            rec = row.record()
            lines.append(",".join(cell(rec[c]) for c in CSV_COLUMNS))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {"meta": self.meta, "rows": [r.record() for r in self.rows],
               "summary": self.summary}
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _check_methods(methods, max_p: int) -> tuple[str, ...]:
    out = tuple(methods)
    for m in out:
        if m not in KNOWN_METHODS:
            raise MethodUnavailable(f"unknown method {m!r}")
    if not out:
        raise MethodUnavailable("at least one method is required")
    if "cech" in out and max_p > CECH_MAX_PRIME:
        raise MethodUnavailable(
            f"the section-space oracle is limited to p <= {CECH_MAX_PRIME}")
    return out


def _rows_from_data(items: list[tuple[str, ReductionDatum]], methods) -> list[ScanRow]:
    """One row per (label, datum) of items, in order.

    Each good datum's cocycle is built once, by the primitive, so its exact
    divisibility check runs on every row, and every method reads it.  The
    t method and the cech oracle each take every good datum at once, one
    stacked elimination per field, since their matrices at one (p, d)
    share their shapes.  Birkhoff takes each field's stack at once too,
    whatever its number of rows: step 1 in one lockstep Euclid, step 2 and
    its certificate check on the arrays step 1 returns, each row's
    n = p - c read from the checked ``CertificateStack``, and no
    certificate of polynomials built.  Only birkhoff builds the gluing
    matrix.  A certificate that fails its check raises
    with a note naming its row's label, p and place.  A row's time is read
    when it is built, so the cocycles and the stacked work land on the
    first row built after them.  Step 1 and step 2 are called through the
    ``factorization`` module, where ``perfbench/hooks.py`` wraps them.
    """
    values: dict[int, dict] = {}
    cocycles = {}
    by_field: dict = {}
    for i, (_, datum) in enumerate(items):
        if not datum.is_bad:
            values[i] = {}
            lam = datum.witt.witt
            cocycles[i] = build_A_primitive(lam.ctx, lam)
            by_field.setdefault(lam.ctx, []).append(i)
    for ctx, rows in by_field.items():
        stack = [cocycles[i] for i in rows]
        if "t" in methods:
            for i, st in zip(rows, splittings_from_T(stack)):
                values[i]["n_t"] = st.n
        if "cech" in methods:
            for i, st in zip(rows, splittings_from_cech(stack)):
                values[i]["n_cech"] = st.n
        if "birkhoff" in methods:
            try:
                step1 = factorization.birkhoff_step1(ctx, [c.A for c in stack])
                checked = factorization.birkhoff_step2(ctx, stack, *step1)
            except CertificateCheckFailed as exc:
                label, datum = items[rows[exc.rows[0]]]
                exc.add_note(f"in the certificate of lambda {label} at p={datum.p}, "
                             f"place {datum.place}")
                raise
            for i, c in zip(rows, checked.c.tolist()):
                values[i]["n_birkhoff"] = ctx.p - c
    out = []
    for i, (label, datum) in enumerate(items):
        if datum.is_bad:
            out.append(ScanRow(lambda_label=label, p=datum.p, place=datum.place,
                               d=datum.d, bad_reason=datum.bad_reason))
            continue
        row = values[i]
        wp = datum.witt
        present = list(row.values())
        agree = len(set(present)) == 1
        out.append(ScanRow(lambda_label=label, p=datum.p, place=datum.place, d=datum.d,
                           lambda0=wp.lam0.to_string(GENERATOR_SYMBOL),
                           lambda1=wp.lam1.to_string(GENERATOR_SYMBOL),
                           n_t=row.get("n_t"), n_birkhoff=row.get("n_birkhoff"),
                           n_cech=row.get("n_cech"),
                           periodic=(present[0] == 1) if agree else None, agree=agree))
    return out


def _row_from_datum(label: str, datum: ReductionDatum, methods) -> ScanRow:
    """``_rows_from_data`` of one datum; ``perfbench/hooks.py`` wraps this name."""
    return _rows_from_data([(label, datum)], methods)[0]


def _scan_prime_task(args) -> list[ScanRow]:
    """Rows of every target of a sweep at one prime, once per label.

    args is (minpolys, labels, both_embeddings, p, methods), where
    labels[k] holds every label of minpolys[k].  The targets are reduced
    at p over one context per field, and all their data go to one
    ``_rows_from_data`` call, so each field's rows stack across targets.
    A target's rows are computed under its first label; every further
    label (a catalog entry with the same minimal polynomial) gets a
    relabelled copy.
    """
    minpolys, labels, both, p, methods = args
    contexts: dict = {}
    items, more_labels = [], []
    for minpoly, names in zip(minpolys, labels):
        spec = LambdaSpec(minpoly=minpoly, label=names[0])
        for datum in reduce_at_prime(spec, p, both_embeddings=both, contexts=contexts):
            items.append((names[0], datum))
            more_labels.append(names[1:])
    rows = _rows_from_data(items, methods)
    return rows + [replace(r, lambda_label=label)
                   for r, names in zip(rows, more_labels) for label in names]


def _run_tasks(tasks: list[tuple], jobs: int) -> list[ScanRow]:
    """Run the row tasks serially or on one process pool; rows sorted."""
    if jobs < 1:
        raise InvalidRange(f"jobs must be at least 1, got {jobs}")
    rows: list[ScanRow] = []
    if jobs > 1 and len(tasks) > 1:
        # imported here: the pool's modules cost a serial run start-up time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for chunk in pool.map(_scan_prime_task, tasks):
                rows.extend(chunk)
    else:
        for t in tasks:
            rows.extend(_scan_prime_task(t))
    rows.sort(key=ScanRow.sort_key)
    return rows


def _summarize(rows: list[ScanRow]) -> dict:
    good = [r for r in rows if r.bad_reason is None]
    mism = [r for r in rows if r.agree is False]
    exceptional = sorted({r.p for r in good if r.agree and not r.periodic})
    return {
        "rows": len(rows),
        "good": len(good),
        "bad": len(rows) - len(good),
        "periodic": sum(1 for r in good if r.periodic),
        "exceptional_primes": exceptional,
        "mismatches": [[r.lambda_label, r.p, r.place] for r in mism],
    }


def _primes_between(lo: int, hi: int) -> list[int]:
    return [p for p in range(max(lo, 2), hi + 1) if is_prime(p)]


def run_scan(spec: LambdaSpec, p_range: tuple[int, int],
             methods=("t", "birkhoff"), both_embeddings: bool = False,
             seed: int = 0, jobs: int = 1) -> ScanReport:
    """One row per (prime, place) of the reduction of the scan target."""
    lo, hi = p_range
    if not (3 <= lo <= hi <= SCAN_MAX_PRIME):
        raise InvalidRange(f"prime range must sit inside 3..{SCAN_MAX_PRIME}")
    methods = _check_methods(methods, hi)
    tasks = [((spec.minpoly,), ((spec.label,),), both_embeddings, p, methods)
             for p in _primes_between(lo, hi)]
    rows = _run_tasks(tasks, jobs)
    meta = {"version": __version__, "convention": "twisted", "seed": seed}
    return ScanReport(meta=meta, rows=rows, summary=_summarize(rows))


def run_enumerate(p: int, methods=("t",), seed: int = 0) -> ScanReport:
    """All pairs (lam0, lam1) in F_p x F_p with lam0 outside {0, 1}."""
    if not (is_prime(p) and 3 <= p <= ENUM_MAX_PRIME):
        raise InvalidRange(f"enumeration needs a prime in 3..{ENUM_MAX_PRIME}")
    methods = _check_methods(methods, p)
    ctx = make_context(p, 1)
    items = []
    for a in range(2, p):
        lam0 = ctx.f_from_int(a)
        check_residue(lam0)
        tau = teichmuller(lam0).vec
        for b in range(p):
            lam1 = ctx.f_from_int(b)
            # witt_compose(lam0, lam1), with tau(lam0) lifted once per lam0
            lam = ctx.wadd(tau, ctx.w_times_p(lam1.frobenius().vec))
            wp = WittParameter(WittRingElement(ctx, lam), lam0, lam1)
            items.append((f"{a};{b}", ReductionDatum(p=p, place=0, d=1, witt=wp)))
    rows = _rows_from_data(items, methods)
    rows.sort(key=ScanRow.sort_key)
    periodic = Counter(r.lambda0 for r in rows if r.periodic)
    # d = 1, where the Witt conventions coincide; the field keeps its bytes
    meta = {"version": __version__, "convention": "standard", "seed": seed}
    summary = _summarize(rows)
    summary["periodic_pairs"] = [[r.lambda0, r.lambda1] for r in rows if r.periodic]
    summary["periodic_per_lambda0"] = {str(a): periodic[str(a)] for a in range(2, p)}
    summary["lambda1_count_bound"] = p
    return ScanReport(meta=meta, rows=rows, summary=summary)


def run_verify_beauville(p_range: tuple[int, int] = (5, 97),
                         methods=("t", "birkhoff"), seed: int = 0,
                         jobs: int = 1) -> ScanReport:
    """Sweep every catalog entry; tabulate evidence, assert nothing.

    The summary carries, per entry, the good-prime pass rate and the
    explicit list of exceptional primes (good primes where the splitting
    integer is not 1).  Finitely many exceptional primes per entry are
    expected; the report records them rather than judging them.  Each
    prime is one task, largest prime first, over every distinct minimal
    polynomial of the catalog: each (minpoly, p) is computed once, and its
    rows stack with the other entries' rows over the same field.
    """
    lo, hi = p_range
    if not (3 <= lo <= hi <= 1000):
        raise InvalidRange("catalog sweeps support prime ranges inside 3..1000")
    methods = _check_methods(methods, hi)
    catalog = beauville_catalog()
    labels_of: dict[tuple[int, ...], list[str]] = {}
    for entry in catalog:
        labels_of.setdefault(entry.spec.minpoly, []).append(entry.spec.label)
    minpolys = tuple(labels_of)
    labels = tuple(tuple(names) for names in labels_of.values())
    tasks = [(minpolys, labels, False, p, methods)
             for p in reversed(_primes_between(lo, hi))]
    rows = _run_tasks(tasks, jobs)
    per_entry = {}
    for entry in catalog:
        s = _summarize([r for r in rows if r.lambda_label == entry.spec.label])
        per_entry[entry.spec.label] = {
            "good": s["good"], "bad": s["bad"], "periodic": s["periodic"],
            "pass_rate": (s["periodic"] / s["good"]) if s["good"] else None,
            "exceptional_primes": s["exceptional_primes"],
            "mismatches": s["mismatches"],
        }
    meta = {"version": __version__, "convention": "twisted", "seed": seed}
    summary = _summarize(rows)
    summary["per_entry"] = per_entry
    return ScanReport(meta=meta, rows=rows, summary=summary)


# ---------------------------------------------------------------------------
# self-test suites


def _suite(passed: bool, cases: int, counterexample: str | None = None,
           note: str | None = None) -> dict:
    out = {"passed": passed, "cases": cases}
    if counterexample:
        out["counterexample"] = counterexample
    if note:
        out["note"] = note
    return out


def _valid_witt_elements(ctx):
    for w in ctx.witt_elements():
        r = w.residue()
        if r.is_zero() or r == ctx.one:
            continue
        yield w


def _suite_witt_roundtrip(primes) -> dict:
    cases = 0
    for p in primes:
        if p > 7:
            continue
        for d in (1, 2):
            ctx = make_context(p, d)
            taus = {a.index(): teichmuller(a) for a in ctx.field_elements()}
            for a in ctx.field_elements():
                for b in ctx.field_elements():
                    cases += 1
                    if taus[a.index()] * taus[b.index()] != taus[(a * b).index()]:
                        return _suite(False, cases, f"tau not multiplicative at p={p} d={d}")
                    if taus[a.index()].residue() != a:
                        return _suite(False, cases, f"tau not a section at p={p} d={d}")
            for w in _valid_witt_elements(ctx):
                cases += 1
                wp = witt_decompose(w)
                if witt_compose(wp.lam0, wp.lam1) != w:
                    return _suite(False, cases, f"decompose/compose broken at p={p} d={d}")
    return _suite(True, cases)


def _suite_cocycle_equality(primes) -> dict:
    cases = 0
    note = "closed form read in twisted lambda1"
    for p in primes:
        for d in (1, 2):
            if d == 2 and p > 5:
                continue
            ctx = make_context(p, d)
            for w in _valid_witt_elements(ctx):
                cases += 1
                wp = witt_decompose(w)
                if build_A_closed(ctx, wp.lam0, wp.lam1).A != build_A_primitive(ctx, w).A:
                    return _suite(False, cases, f"p={p} d={d} lam={w.to_string()}",
                                  note=note)
    return _suite(True, cases, note=note)


def _suite_t_r(primes) -> dict:
    cases = 0
    for p in primes:
        for d in (1, 2):
            if d == 2 and p > 3:
                continue
            ctx = make_context(p, d)
            for lam0 in ctx.field_elements():
                if lam0.is_zero() or lam0 == ctx.one:
                    continue
                for lam1 in ctx.field_elements():
                    cases += 1
                    bad = t_r_first_mismatch(ctx, lam0, lam1)
                    if bad is not None:
                        return _suite(False, cases,
                                      f"p={p} d={d} lam0={lam0.to_string()} "
                                      f"lam1={lam1.to_string()}: {bad}")
    return _suite(True, cases)


def _suite_agreement(primes) -> dict:
    cases = 0
    for p in primes:
        for d in (1, 2):
            if d == 2 and p > 3:
                continue
            ctx = make_context(p, d)
            lifts = list(_valid_witt_elements(ctx))
            items = [("selftest", ReductionDatum(p=p, place=0, d=d, witt=witt_decompose(w)))
                     for w in lifts]
            for w, row in zip(lifts, _rows_from_data(items, KNOWN_METHODS)):
                cases += 1
                if not row.agree:
                    return _suite(False, cases,
                                  f"p={p} d={d} lam={w.to_string()}: t={row.n_t} "
                                  f"birkhoff={row.n_birkhoff} cech={row.n_cech}")
    return _suite(True, cases)


def _suite_certificates(max_p: int, seed: int, cases: int = 30) -> dict:
    rng = random.Random(seed)
    primes = [p for p in (3, 5, 7, 11, 13) if p <= max(max_p, 5)]
    done = 0
    for k in range(cases):
        p = primes[rng.randrange(len(primes))]
        d = 1 if p > 7 else rng.choice((1, 2))
        ctx = make_context(p, d)
        while True:
            n = rng.randrange(ctx.q * ctx.q)
            digits, m = [], n
            for _ in range(d):
                m, r = divmod(m, ctx.p2)
                digits.append(r)
            w = ctx.w_from_coeffs(digits)
            rv = w.residue()
            if not (rv.is_zero() or rv == ctx.one):
                break
        try:
            cocycle = build_A_primitive(ctx, w)
            cert = factorization_certificate(cocycle)
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            return _suite(False, done, f"certificate failed at p={p} d={d}: {exc}")
        done += 1
        if k % 6 == 0:
            trans = build_transition(cocycle)
            # moving the Bezout partner by k*(f, -g) keeps every identity
            # but the degree bounds, which make Q regular at infinity
            k = Poly.monomial(ctx, 3 * p)
            shifted = assemble_certificate(
                cocycle, cert.f, cert.g, cert.h, cert.beta_prime + k * cert.f,
                cert.gamma_prime - k * cert.g, cert.alpha - k * cert.h)
            for bad in (replace(cert, f=cert.f + Poly.one(ctx)), shifted):
                if verify_certificate([trans], [bad]):
                    return _suite(False, done, f"perturbed certificate accepted at p={p}")
    return _suite(True, done)


def _suite_monic_det(primes) -> dict:
    cases = 0
    for p in primes:
        if p > 11:
            continue
        ctx = make_context(p, 1)
        for a in range(2, p):
            cases += 1
            poly = det_T0_in_lam1(ctx, ctx.f_from_int(a))
            if poly.degree != p or poly.lead() != poly.ctx.one:
                return _suite(False, cases, f"det T0 not monic degree p at p={p} lam0={a}")
    return _suite(True, cases)


def run_selftest(max_p: int = 7, seed: int = 42) -> dict:
    """Cross-validation suites; failures are report content, not errors."""
    if not 3 <= max_p <= SELFTEST_MAX_P:
        raise InvalidRange(f"selftest supports max_p in 3..{SELFTEST_MAX_P}")
    primes = _primes_between(3, max_p)
    suites = {
        "witt_roundtrip": _suite_witt_roundtrip(primes),
        "cocycle_equality": _suite_cocycle_equality(primes),
        "t_r_identity": _suite_t_r(primes),
        "method_agreement": _suite_agreement(primes),
        "certificates": _suite_certificates(max_p, seed),
        "monic_determinant": _suite_monic_det(primes),
    }
    return {
        "meta": {"version": __version__, "max_p": max_p, "seed": seed},
        "suites": suites,
        "passed": all(s["passed"] for s in suites.values()),
    }
