"""Command-line interface: scan, enumerate, selftest, beauville.

Exit codes: 0 success, 2 bad input, 3 cross-method mismatch, a failed
self-test suite, or an internal error (an invariant that holds for every
valid input broke, or a ``ValueError`` escaped, reported as "internal
error: ...").  Every bad-input path raises a ``HiggsflowError``.  The formulas under
test are treated as claims: a mismatch between methods is reportable data
plus a nonzero exit, never a silent drop.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import HiggsflowError, InternalError
from .lambdas import parse_lambda_spec
from .scan import ScanReport, run_enumerate, run_scan, run_selftest, run_verify_beauville

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_MISMATCH = 3
EXIT_INTERNAL = 3


def _parse_prime_range(text: str) -> tuple[int, int]:
    try:
        lo_s, hi_s = text.split(":")
        return int(lo_s), int(hi_s)
    except ValueError as exc:
        raise HiggsflowError(f"prime range must look like MIN:MAX, got {text!r}") from exc


def _parse_methods(text: str) -> tuple[str, ...]:
    return tuple(m.strip() for m in text.split(",") if m.strip())


def _join_target_values(argv: list[str]) -> list[str]:
    """Attach a value like -1/8 or -9,1 to its --rational/--minpoly flag.

    argparse takes a token that starts with "-" for an option unless it
    reads as a plain number, so ``--rational -1/8`` would lack its value.
    """
    out: list[str] = []
    for tok in argv:
        if (out and out[-1] in ("--rational", "--minpoly")
                and tok[:1] == "-" and tok[1:2].isdigit()):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _emit(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        # bad input; caught here only, so no other OSError passes for it
        raise HiggsflowError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _emit_report(report: ScanReport, fmt: str, out: str) -> None:
    _emit(report.to_csv() if fmt == "csv" else report.to_json(), out)


def _add_common(sp: argparse.ArgumentParser, default_range: str) -> None:
    sp.add_argument("--prime-range", default=default_range, metavar="MIN:MAX")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", default="-", metavar="PATH|-")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--jobs", type=int, default=1, metavar="N")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="higgsflow",
        description="periodicity tester for the uniformizing rank-2 bundle "
                    "on the four-punctured projective line in characteristic p")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="sweep one algebraic number over primes")
    target = scan.add_mutually_exclusive_group(required=True)
    target.add_argument("--rational", metavar="A/B",
                        help="rational target, e.g. -1 or 9/8")
    target.add_argument("--minpoly", metavar="C0,C1[,C2]",
                        help="integer minimal polynomial, constant term first")
    scan.add_argument("--methods", default="t,birkhoff", metavar="LIST")
    scan.add_argument("--both-embeddings", action="store_true",
                      help="scan both Frobenius-conjugate embeddings at inert primes")
    _add_common(scan, "3:97")

    enum = sub.add_parser("enumerate", help="all (lam0, lam1) pairs over F_p")
    enum.add_argument("p", type=int)
    enum.add_argument("--methods", default="t", metavar="LIST")
    enum.add_argument("--format", choices=("csv", "json"), default="csv")
    enum.add_argument("--out", default="-", metavar="PATH|-")
    enum.add_argument("--seed", type=int, default=0)

    selftest = sub.add_parser("selftest", help="run the cross-validation suites")
    selftest.add_argument("--max-p", type=int, default=7)
    selftest.add_argument("--seed", type=int, default=42)
    selftest.add_argument("--format", choices=("text", "json"), default="text")
    selftest.add_argument("--out", default="-", metavar="PATH|-")

    beau = sub.add_parser("beauville", help="evidence sweep over the 17 catalog numbers")
    beau.add_argument("--methods", default="t,birkhoff", metavar="LIST")
    _add_common(beau, "5:97")
    return parser


def _run_scan(args) -> int:
    spec = parse_lambda_spec(args.rational if args.rational is not None else args.minpoly)
    report = run_scan(spec, _parse_prime_range(args.prime_range),
                      methods=_parse_methods(args.methods),
                      both_embeddings=args.both_embeddings,
                      seed=args.seed, jobs=args.jobs)
    _emit_report(report, args.format, args.out)
    return EXIT_MISMATCH if report.summary["mismatches"] else EXIT_OK


def _run_enumerate(args) -> int:
    report = run_enumerate(args.p, methods=_parse_methods(args.methods), seed=args.seed)
    _emit_report(report, args.format, args.out)
    return EXIT_MISMATCH if report.summary["mismatches"] else EXIT_OK


def _run_selftest(args) -> int:
    result = run_selftest(max_p=args.max_p, seed=args.seed)
    if args.format == "json":
        _emit(json.dumps(result, sort_keys=True, indent=2) + "\n", args.out)
    else:
        lines = []
        for name, suite in result["suites"].items():
            status = "PASS" if suite["passed"] else "FAIL"
            extra = f" [{suite['counterexample']}]" if not suite["passed"] else ""
            note = f" ({suite['note']})" if "note" in suite else ""
            lines.append(f"{status} {name}: {suite['cases']} cases{note}{extra}")
        lines.append("all suites passed" if result["passed"] else "SELFTEST FAILED")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if result["passed"] else EXIT_MISMATCH


def _run_beauville(args) -> int:
    report = run_verify_beauville(_parse_prime_range(args.prime_range),
                                  methods=_parse_methods(args.methods),
                                  seed=args.seed, jobs=args.jobs)
    _emit_report(report, args.format, args.out)
    return EXIT_MISMATCH if report.summary["mismatches"] else EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_target_values(sys.argv[1:] if argv is None else argv))
    handlers = {"scan": _run_scan, "enumerate": _run_enumerate,
                "selftest": _run_selftest, "beauville": _run_beauville}
    try:
        return handlers[args.command](args)
    except (InternalError, ValueError) as exc:
        # bad input arrives as a HiggsflowError; a ValueError is a fault in
        # the program, such as mismatched array shapes
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except HiggsflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
