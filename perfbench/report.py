"""Report digests and row checks shared by the benchmark and its recorder."""

from __future__ import annotations

import csv
import hashlib
import io
import json


def digest(data: bytes, seed: int) -> str:
    """sha256 of a report, with a JSON report's meta seed written as 0.

    The seed moves only the certificate sample points, which no report
    shows; JSON reports echo it in ``meta``.  Normalising that one field lets
    a reference recorded at seed 0 stand for every seed.  A CSV report does
    not carry the seed and is hashed as it is.
    """
    if data.startswith(b"{"):
        field = b'\n    "seed": %d,\n' % seed
        if data.count(field) == 1:
            data = data.replace(field, b'\n    "seed": 0,\n')
    return hashlib.sha256(data).hexdigest()


def _cell(value: str):
    if value == "":
        return None
    if value in ("true", "false"):
        return value == "true"
    try:
        return int(value)
    except ValueError:
        return value


def rows_of(data: bytes) -> list[dict]:
    """The rows of a CSV or JSON report as dicts of typed values."""
    text = data.decode("utf-8")
    if text.startswith("{"):
        return json.loads(text)["rows"]
    return [{k: _cell(v) for k, v in r.items()} for r in csv.DictReader(io.StringIO(text))]


def check_rows(rows: list[dict]) -> tuple[int, list[list]]:
    """Count the good rows; list the good rows whose methods disagree.

    A good row (no ``bad_reason``) must carry at least one method's n, every
    method's n must be the same, and the row must say ``agree``.
    """
    good, disagree = 0, []
    for r in rows:
        if r["bad_reason"] is not None:
            continue
        good += 1
        ns = {r[k] for k in ("n_t", "n_birkhoff", "n_cech") if r[k] is not None}
        if len(ns) != 1 or r["agree"] is not True:
            disagree.append([r["lambda"], r["p"], r["place"]])
    return good, disagree
