"""Per-operator Ray Data stats audit for any driver query.

Runs one `queries()` entry, consumes the result, and prints the
streaming executor's per-operator breakdown (`Dataset.stats()`), plus
the end-to-end wall time — the "measure, don't guess" loop for finding
which stage dominates a pipeline before touching it.

Usage: python tools/stats_audit.py <query_name> [sf_dir] [--cpus N]

Notes
-----
- Driver-combined queries return a pyarrow.Table (no Dataset stats);
  the tool still reports wall time and row count for those.
- Stats lines are trimmed to the operator summaries; pass --full for
  the raw dump.
"""

from __future__ import annotations

import argparse
import re
import sys
import time

from _checkout import use_checkout


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("query")
    ap.add_argument("sf_dir", nargs="?", default="/root/testdata/sf0.01")
    ap.add_argument("--cpus", type=int, default=8)
    ap.add_argument("--full", action="store_true")
    args = ap.parse_args()
    use_checkout()

    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.cpus,
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entry
    queries = entry.queries()
    if args.query not in queries:
        near = [q for q in queries if args.query in q]
        print(f"unknown query {args.query!r}; near matches: {near}")
        return 2

    t0 = time.perf_counter()
    res = queries[args.query](args.sf_dir)
    if hasattr(res, "iter_batches"):          # ray Dataset
        n = 0
        for b in res.iter_batches(batch_format="pyarrow"):
            n += b.num_rows
        wall = time.perf_counter() - t0
        print(f"{args.query}: {n} rows in {wall:.2f}s\n")
        stats = res.stats()
        if args.full:
            print(stats)
        else:
            # operator headers + their wall-time summary lines
            keep = re.compile(
                r"^(Operator|\* Remote wall time|\* Output rows|"
                r"Dataset throughput|\* Total time)")
            for line in stats.splitlines():
                if keep.match(line.strip()) or line.startswith("Operator"):
                    print(line)
    else:                                     # pyarrow.Table / DataFrame
        wall = time.perf_counter() - t0
        n = res.num_rows if hasattr(res, "num_rows") else len(res)
        print(f"{args.query}: {n} rows in {wall:.2f}s "
              "(driver-combined result; no Dataset stats)")
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
