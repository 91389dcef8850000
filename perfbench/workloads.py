"""The benchmark's workloads: which CLI calls one pass makes, per seed.

Every pass of a run makes the same calls, so every count the trace takes
repeats exactly for a given seed.  ``--seed`` goes to every call, where it
sets the certificate sample points; on ``large_p`` it also picks the primes.

* ``catalog``: the catalog evidence sweep, ``beauville`` over 5..23 with
  t and birkhoff at ``--jobs 1``.  17 entries, d=1 and d=2 rows, small p:
  per-call overhead dominates, and 4 entries repeat an earlier minpoly, so
  duplicate work exists here and only here.
* ``large_p``: one ``scan`` call per row, one row from each of two bands:
  lambda = -1 (d=1) at a prime in 389..421, and minpoly 1,-1,1 at an inert
  prime (p = 2 mod 3, d=2) in 167..179.  Per-coefficient arithmetic
  dominates; this is where the p ~ 400 ceiling lives.  Row cost grows
  roughly as p^2.5, so the bands are narrow (each row costs 2.0-2.6 s on a
  2-core Xeon) and the seed draws the d=1 prime and the d=2 prime from
  opposite ends of their bands: a pass costs about the same for every seed.
* ``oracle``: ``enumerate 7`` with t, birkhoff and cech.  The cech oracle's
  rank solves on tiny polynomials dominate, and every row is checked for
  three-method agreement.  Its flags equal a golden command, so its
  reference must match the golden hash prefix.
* ``catalog_pool``: ``catalog`` at ``--jobs 2``, the only workload that runs
  the process-pool path of ``scan``.  It is not in ``BENCHMARK.json``: with
  three workloads each run can measure for longer, and the longer runs are
  what keeps the others' spread inside their bounds on a noisy shared host.
  It stays runnable by hand, like every workload here.
"""

from __future__ import annotations

import random

CATALOG = ["beauville", "--prime-range", "5:23", "--methods", "t,birkhoff",
           "--format", "json"]
ORACLE = ["enumerate", "7", "--methods", "t,birkhoff,cech"]


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % k for k in range(2, int(n ** 0.5) + 1))


D1_BAND = [p for p in range(389, 422) if _is_prime(p)]
D2_BAND = [p for p in range(167, 180) if _is_prime(p) and p % 3 == 2]

# Golden output hashes from the roadmap: where a workload's call equals one
# of these commands, its recorded reference must start with the prefix.
GOLDEN = {
    "beauville --prime-range 5:97 --format json": "2e564801c885c21a",
    "scan --rational -1 --prime-range 3:97": "73634d9cd8efb2167e",
    "scan --minpoly 1,-1,1 --prime-range 5:97 --both-embeddings --format json":
        "fc489551ae2eda2e63",
    "enumerate 7 --methods t,birkhoff,cech": "0c751d96c0b05a0f16",
}

NAMES = ("catalog", "large_p", "oracle", "catalog_pool")


def _scan_row(target: list[str], p: int) -> list[str]:
    return ["scan", *target, "--prime-range", f"{p}:{p}", "--methods", "t,birkhoff"]


def large_p_rows(i: int) -> list[list[str]]:
    """The two rows of draw i: d=1 at D1_BAND[i], d=2 at the opposite end."""
    j = round((len(D1_BAND) - 1 - i) * (len(D2_BAND) - 1) / (len(D1_BAND) - 1))
    return [_scan_row(["--rational", "-1"], D1_BAND[i]),
            _scan_row(["--minpoly", "1,-1,1"], D2_BAND[j])]


def base_calls(name: str, seed: int) -> list[list[str]]:
    """The calls of one pass, without ``--seed`` and ``--jobs``."""
    if name in ("catalog", "catalog_pool"):
        return [list(CATALOG)]
    if name == "oracle":
        return [list(ORACLE)]
    if name == "large_p":
        return large_p_rows(random.Random(seed).randrange(len(D1_BAND)))
    raise KeyError(name)


def all_base_calls() -> list[list[str]]:
    """Every call any seed can make: what the references must cover."""
    calls = [list(CATALOG), list(ORACLE)]
    for i in range(len(D1_BAND)):
        calls += [c for c in large_p_rows(i) if c not in calls]
    return calls


def jobs(name: str) -> int:
    return 2 if name == "catalog_pool" else 1


def pass_calls(name: str, seed: int) -> list[dict]:
    """The calls of one pass: full argv plus the key of its reference."""
    extra = ["--seed", str(seed)]
    if name in ("catalog", "catalog_pool"):
        extra += ["--jobs", str(jobs(name))]
    return [{"argv": base + extra, "ref": ref_key(base)}
            for base in base_calls(name, seed)]


def ref_key(base: list[str]) -> str:
    return " ".join(base)
