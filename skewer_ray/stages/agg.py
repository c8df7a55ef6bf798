"""Partial (combiner) aggregation helpers.

Ray Data's ``groupby(...).count()`` sort-shuffles EVERY row; at 10^12-turn
scale (and already at sf0.1) that all-to-all exchange dominates the job.
Counters in the reference are cheap in-process increments
(services/base/metrics.go:16-47, store/store.go:77-123) — the Ray-native
equivalent is a per-batch pyarrow ``group_by`` combine inside
``map_batches`` (thousands of rows → a handful of partial-count rows)
followed by a tiny global ``groupby().sum()``. Only partials shuffle.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc


def partial_count_fn(keys: list[str], pre=None):
    """Per-batch combiner: (optional row-level pre-transform) → group_by
    count over ``keys`` → tiny table (keys..., n)."""

    def fn(batch: pa.Table) -> pa.Table:
        if pre is not None:
            batch = pre(batch)
        if batch.num_rows == 0:
            return pa.table(
                {**{k: pa.array([], batch.schema.field(k).type) for k in keys},
                 "n": pa.array([], pa.int64())})
        g = batch.select(keys).group_by(keys).aggregate([([], "count_all")])
        return pa.table({**{k: g[k] for k in keys},
                         "n": pc.cast(g["count_all"], pa.int64())})

    return fn


def grouped_stats(ds, key, specs: list[tuple[str, str]], pre=None,
                  combine: str = "shuffle"):
    """Distributed associative aggregate GROUP BY ``key`` with map-side
    combine — the skew-safe shape for hot keys (a conversation owning
    half the corpus contributes ONE partial row per batch it appears in,
    so the final shuffle sees #batches rows for it, not #rows).

    specs: [(column, agg)] with agg ∈ {sum, min, max, count}. Output
    columns are named ``f"{agg}_{column}"`` (count → ``n``). ``key`` may
    be one column name or a list (composite grouping key).

    combine="driver" pulls the partials to the driver and combines
    locally (see grouped_count) — use when key cardinality is small;
    "shuffle" (default) keeps the final combine distributed for keys
    that scale with the data.
    """
    keys = [key] if isinstance(key, str) else list(key)
    def out_name(col, agg):
        return "n" if agg == "count" else f"{agg}_{col}"

    def partial(batch: pa.Table) -> pa.Table:
        if pre is not None:
            batch = pre(batch)
        aggs = [([], "count_all")] + [(c, a) for c, a in specs
                                      if a != "count"]
        g = batch.group_by(keys).aggregate(aggs)
        cols = {k: g[k] for k in keys}
        for c, a in specs:
            if a == "count":
                cols["n"] = pc.cast(g["count_all"], pa.int64())
            else:
                cols[out_name(c, a)] = g[f"{c}_{a}"]
        return pa.table(cols)

    partials = ds.map_batches(partial, batch_format="pyarrow")

    # combine partials: sum-of-sums / min-of-mins / max-of-maxes /
    # sum-of-counts — associative, so two-phase is exact
    def combine_fn(batch: pa.Table) -> pa.Table:
        aggs = []
        for c, a in specs:
            if a == "count":
                aggs.append(("n", "sum"))
            else:
                aggs.append((out_name(c, a), a if a != "sum" else "sum"))
        g = batch.group_by(keys).aggregate(aggs)
        cols = {k: g[k] for k in keys}
        for c, a in specs:
            if a == "count":
                cols["n"] = pc.cast(g["n_sum"], pa.int64())
            else:
                n = out_name(c, a)
                cols[n] = g[f"{n}_{a if a != 'sum' else 'sum'}"]
        return pa.table(cols)

    if combine == "driver":
        t = _collect_partials(partials)
        return combine_fn(t) if t.num_rows else t
    # combine_fn re-groups by the real keys inside each call, so the
    # exchange can key on a crc hash BUCKET of the keys (stages/buckets)
    # — co-location preserved, one vectorized call per bucket instead
    # of one Python call per key group (the measured 30k-group sink)
    from .buckets import grouped_by_bucket
    return grouped_by_bucket(partials, combine_fn, key=keys)


def _collect_partials(partials) -> pa.Table:
    """Drain a tiny-partials Dataset to one local Arrow table (schema
    survives the empty case via arrow refs)."""
    import ray
    tables = [t for t in ray.get(partials.to_arrow_refs())]
    return pa.concat_tables(tables) if tables else pa.table({})


def grouped_count(ds, keys: list[str], pre=None, combine: str = "driver"):
    """Distributed COUNT(*) GROUP BY ``keys`` with map-side combine.

    combine="driver" (default): the per-batch partials — a handful of
    rows each — are pulled to the driver and combined locally, returning
    a pyarrow.Table. This keeps Ray's sort-based Aggregate operator out
    of the plan entirely (measured: it throttles upstream map
    parallelism badly at small CPU counts). Correct whenever the GROUP
    BY cardinality is small (counters, topics, statuses).

    combine="shuffle": Ray groupby over the partials, returning a
    Dataset — for keys whose cardinality itself scales with the data
    (e.g. conv_id).
    """
    partials = ds.map_batches(partial_count_fn(keys, pre),
                              batch_format="pyarrow")
    if combine == "driver":
        t = _collect_partials(partials)
        if t.num_rows == 0:
            return t
        g = t.group_by(keys).aggregate([("n", "sum")])
        return pa.table({**{k: g[k] for k in keys},
                         "n": pc.cast(g["n_sum"], pa.int64())})

    agg = partials.groupby(keys).sum("n")

    def rename(b: pa.Table) -> pa.Table:
        return pa.table({**{k: b[k] for k in keys},
                         "n": pc.cast(b["sum(n)"], pa.int64())})

    return agg.map_batches(rename, batch_format="pyarrow")


N_SALTS = 64


def salted_distinct_count(ds, key: str, value_col: str):
    """Exact COUNT(DISTINCT value) GROUP BY key via SALTED
    repartitioning — the north rule's hot-key treatment for the one
    aggregate a map-side combiner canNOT bound: distinct-counting
    keeps per-group SET state proportional to the value domain, so a
    whale key would concentrate its entire domain in one task.

    Salt = crc32(value) % N_SALTS: round 1 shuffles by (key, salt), so
    a whale key's values split across ``N_SALTS`` independent groups —
    and the split is EXACT, because equal values always hash to the
    same salt, so no value is double-counted across groups. Each group
    emits one (key, n_distinct_partial) row; round 2 is a tiny keyed
    sum. Both exchanges run over hash buckets of their keys
    (stages/buckets) with vectorized pandas dedup inside."""
    import zlib

    from .buckets import grouped_by_bucket

    def add_salt(b: pa.Table) -> pa.Table:
        vals = b[value_col].to_pylist()
        salt = pa.array(
            [zlib.crc32(str(v).encode()) % N_SALTS for v in vals],
            pa.int32())
        return pa.table({key: b[key], value_col: b[value_col],
                         "salt": salt})

    def partial(b: pa.Table) -> pa.Table:
        import pandas as pd
        df = pd.DataFrame({
            key: b[key].to_pylist(),
            "salt": b["salt"].to_numpy(zero_copy_only=False),
            "v": b[value_col].to_pylist()})
        g = df.groupby([key, "salt"])["v"].nunique().reset_index()
        return pa.table({
            key: pa.array(g[key].tolist()),
            "nd": pa.array(g["v"].to_numpy(), pa.int64())})

    partials = grouped_by_bucket(
        ds.map_batches(add_salt, batch_format="pyarrow"),
        partial, key=[key, "salt"])

    def total(b: pa.Table) -> pa.Table:
        g = b.group_by(key).aggregate([("nd", "sum")])
        return pa.table({key: g[key],
                         "n_distinct": pc.cast(g["nd_sum"], pa.int64())})

    return grouped_by_bucket(partials, total, key=key, coalesce=False)
