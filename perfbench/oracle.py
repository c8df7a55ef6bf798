"""DuckDB oracle for the benchmark's outputs.

The expected per-(sink, status) counts come from the repo's own
``sink_counts`` oracle query (built on ``pipelines.oracles.parsed_cte``),
pointed at the benchmark's input files instead of the fixed test corpus.
The query re-derives every field from the raw text, independently of the
engine's decoders.
"""

from __future__ import annotations

import json
import os

from skewer_ray.pipelines import oracles

_TAG = "perfbench_inputs"


def sink_counts_sql(input_dir: str) -> str:
    sql = oracles.oracle_sql_for(_TAG)["sink_counts"]
    fixed = oracles._tpath(_TAG)
    if fixed not in sql:
        raise RuntimeError("oracle query no longer reads the corpus path")
    return sql.replace(fixed, os.path.join(input_dir, "part-*.parquet"))


def expected_counts(input_dir: str) -> dict[tuple[str, str], int]:
    """(sink, status) -> rows, as the oracle computes them."""
    import duckdb
    con = duckdb.connect()
    try:
        rows = con.execute(sink_counts_sql(input_dir)).fetchall()
    finally:
        con.close()
    return {(s, st): int(n) for s, st, n in rows if n}


def written_counts(out_dir: str) -> dict[tuple[str, str], int]:
    """(sink, status) -> rows from the job's ``metrics/sink_counts.json``
    (either run path; per-route rows are summed)."""
    with open(os.path.join(out_dir, "metrics", "sink_counts.json")) as fh:
        recs = json.load(fh)
    out: dict[tuple[str, str], int] = {}
    for r in recs:
        key = (r["sink"], r["status"])
        out[key] = out.get(key, 0) + int(r["n"])
    return {k: n for k, n in out.items() if n}


def mismatches(expected: dict, got: dict) -> list[str]:
    """Human-readable differences; empty when the counts agree."""
    return [f"{k}: expected {expected.get(k, 0)}, got {got.get(k, 0)}"
            for k in sorted(set(expected) | set(got))
            if expected.get(k, 0) != got.get(k, 0)]


def rejected(expected: dict) -> int:
    """Turns the default filter rejects (counted once, not per sink)."""
    return expected.get(("kafka", "rejected"), 0)
