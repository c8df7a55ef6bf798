"""Local stand-in for the driver's correctness gate.

Runs every queries() entry (Ray) and its oracle_sql() (DuckDB) over the
same sf dir and compares row count, sorted column names, and an
order-insensitive value hash. Usage:

    python tools/check_correctness.py [sf_dir] [query ...]
"""

from __future__ import annotations

import hashlib
import os
import sys

import duckdb
import pandas as pd

from _checkout import use_checkout


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if str(df[c].dtype).startswith("datetime"):
            df[c] = df[c].astype("datetime64[us]")
        elif df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif str(df[c].dtype).startswith(("int", "uint", "Int")):
            df[c] = df[c].astype("int64")
        elif str(df[c].dtype).startswith("float"):
            df[c] = df[c].round(6)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def value_hash(df: pd.DataFrame) -> str:
    return hashlib.md5(
        df.to_csv(index=False, float_format="%.6f").encode()).hexdigest()


def to_pandas(obj) -> pd.DataFrame:
    import pyarrow as pa
    if isinstance(obj, pd.DataFrame):
        return obj
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj.to_pandas()  # ray Dataset


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    only = set(sys.argv[2:])
    use_checkout()

    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entry

    queries = entry.queries()
    oracles = entry.oracle_sql()

    sf_name = os.path.basename(os.path.normpath(sf_dir))
    if sf_name != "sf0.01":
        from skewer_ray.pipelines.oracles import oracle_sql_for
        try:
            alt = oracle_sql_for(sf_name)
            oracles = {**oracles, **alt}
        except Exception:
            pass
        if hasattr(entry, "oracle_sql_for_sf"):
            oracles = entry.oracle_sql_for_sf(sf_name)

    con = duckdb.connect()
    for name in ("region", "nation", "customer", "supplier", "part",
                 "orders", "lineitem", "events", "documents", "embeddings"):
        con.sql(f"CREATE VIEW {name} AS SELECT * FROM "
                f"read_parquet('{sf_dir}/{name}.parquet')")

    n_pass = n_fail = n_rowsonly = 0
    for name, fn in queries.items():
        if only and name not in only:
            continue
        try:
            ours = normalize(to_pandas(fn(sf_dir)))
        except Exception as e:
            print(f"FAIL  {name}: query raised {type(e).__name__}: {e}")
            n_fail += 1
            continue
        sql = oracles.get(name)
        if sql is None:
            print(f"rows  {name}: {len(ours)} rows (no oracle)")
            n_rowsonly += 1
            continue
        try:
            theirs = normalize(con.sql(sql).df())
        except Exception as e:
            print(f"FAIL  {name}: oracle raised {type(e).__name__}: {e}")
            n_fail += 1
            continue
        problems = []
        if len(ours) != len(theirs):
            problems.append(f"rows {len(ours)} vs {len(theirs)}")
        if list(ours.columns) != list(theirs.columns):
            problems.append(f"cols {list(ours.columns)} vs {list(theirs.columns)}")
        elif value_hash(ours) != value_hash(theirs):
            problems.append("value hash mismatch")
            merged = ours.merge(theirs, how="outer", indicator=True)
            diff = merged[merged["_merge"] != "both"]
            if len(diff):
                problems.append("first diffs:\n" + diff.head(6).to_string())
        if problems:
            print(f"FAIL  {name}: " + "; ".join(problems))
            n_fail += 1
        else:
            print(f"ok    {name}: {len(ours)} rows")
            n_pass += 1
    print(f"\n{n_pass} ok, {n_rowsonly} rows-only, {n_fail} FAIL")
    ray.shutdown()
    return 1 if n_fail else 0


if __name__ == "__main__":
    raise SystemExit(main())
