"""Record the reference of every call the benchmark can make.

Run from the root of a checkout of the commit whose reports are the
reference (the parent of any change being measured):

    python3 perfbench/record.py

For each call it stores the sha256 of the report at seed 0 (see
``report.digest``), the row count and the (p, d) contexts of its good rows,
in ``perfbench/references.json``.  A call equal to a golden command must
reproduce the golden hash prefix, or nothing is written.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads  # noqa: E402
from report import check_rows, digest, rows_of  # noqa: E402


def main() -> int:
    from higgsflow import cli
    refs = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report")
        for base in workloads.all_base_calls():
            key = workloads.ref_key(base)
            rc = cli.main(base + ["--seed", "0", "--out", out])
            with open(out, "rb") as fh:
                data = fh.read()
            rows = rows_of(data)
            good, disagree = check_rows(rows)
            if rc != 0 or disagree:
                print(f"error: {key} exits {rc} with disagreements {disagree}", file=sys.stderr)
                return 1
            sha = digest(data, 0)
            prefix = workloads.GOLDEN.get(key)
            if prefix and not sha.startswith(prefix):
                print(f"error: {key} gives {sha}, not the golden {prefix}", file=sys.stderr)
                return 1
            contexts = sorted({(r["p"], r["d"]) for r in rows if r["bad_reason"] is None})
            refs[key] = {"sha256": sha, "rows": len(rows), "good": good,
                         "contexts": contexts}
            print(f"{sha[:16]} {len(rows):4d} rows  {key}", flush=True)
    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
