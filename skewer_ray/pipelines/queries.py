"""Driver-facing query implementations (one per SURVEY.md §2 operator).

Each ``q_*(sf_dir)`` returns a ray.data.Dataset / pandas.DataFrame /
pyarrow.Table. Column names and types are contractually shared with
``skewer_ray.pipelines.oracles`` (the DuckDB oracle SQL) — name every
computed column identically on both sides.

Transcript queries run the real pipeline stages (parse/route/fanout) over
the deterministic synthetic transcripts for the requested scale factor.
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..stages.agg import grouped_count
from ..stages.parse import family_array
from .flagship import (build_fanout, build_parsed, build_routed,
                       read_transcripts)

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _tr_us(col):
    """time_reported UnixNano int64 → timestamp[us]."""
    return pc.cast(pc.divide(col, 1000), pa.timestamp("us"))


def _fam_mask(batch: pa.Table, fams) -> np.ndarray:
    return np.isin(family_array(batch["conv_id"]), fams)


def _keep_families(fams):
    def fn(batch: pa.Table) -> pa.Table:
        mask = _fam_mask(batch, fams)
        mask &= np.asarray(batch["parse_ok"].to_pylist(), dtype=bool)
        return batch.filter(pa.array(mask))
    return fn


_BASE_COLS = ["conv_id", "turn_idx"]
_SYSLOG_COLS = ["priority", "facility", "severity", "version",
                "hostname", "appname", "procid", "msgid", "message"]


def _std_projection(batch: pa.Table, cols) -> pa.Table:
    out = {}
    for c in _BASE_COLS:
        out[c] = batch[c]
    for c in cols:
        out[c] = _tr_us(batch[c]) if c == "time_reported" else batch[c]
    return pa.table(out)


def _make_parse_query(fams, cols):
    def q(sf_dir: str):
        ds = build_parsed(read_transcripts(sf_dir))
        keep = _keep_families(fams)

        def proj(batch: pa.Table) -> pa.Table:
            return _std_projection(keep(batch), cols)
        return ds.map_batches(proj, batch_format="pyarrow")
    return q


# ---------------------------------------------------------------------------
# transcript parse queries (per decoder family)
# ---------------------------------------------------------------------------

q_parse_rfc5424 = _make_parse_query(
    [0, 1], _SYSLOG_COLS + ["time_reported"])
q_parse_rfc3164 = _make_parse_query(
    [2, 3], ["priority", "facility", "severity", "hostname", "appname",
             "procid", "message", "time_reported"])
q_parse_degenerate = _make_parse_query(
    [4], ["priority", "facility", "severity", "hostname", "appname",
          "message"])
q_parse_json = _make_parse_query(
    [5], _SYSLOG_COLS + ["time_reported"])
q_parse_rsyslogjson = _make_parse_query(
    [6], _SYSLOG_COLS + ["time_reported"])
q_parse_gelf = _make_parse_query(
    [7], _SYSLOG_COLS + ["time_reported"])
q_parse_ltsv = _make_parse_query(
    [10], ["hostname", "appname", "message", "time_reported"])
q_parse_custom = _make_parse_query(
    [11], ["priority", "facility", "severity", "appname", "message"])


def q_parse_influx(sf_dir: str):
    """Influx line protocol fields surfaced as typed columns (the decoder
    stores them in properties influxdb_tags/influxdb_fields)."""
    ds = build_parsed(read_transcripts(sf_dir))
    keep = _keep_families([8])

    def proj(batch: pa.Table) -> pa.Table:
        batch = keep(batch)
        props = [json.loads(p) for p in batch["properties"].to_pylist()]
        usage = [float(p.get("influxdb_fields", {}).get("usage_idle_float", "nan"))
                 for p in props]
        cnt = [int(p.get("influxdb_fields", {}).get("count_integer", "0"))
               for p in props]
        region = [p.get("influxdb_tags", {}).get("region", "") for p in props]
        out = _std_projection(
            batch, ["hostname", "appname", "facility", "severity", "version",
                    "message", "time_reported"])
        return (out.append_column("usage_idle", pa.array(usage, pa.float64()))
                   .append_column("count_val", pa.array(cnt, pa.int64()))
                   .append_column("region", pa.array(region, pa.string())))
    return ds.map_batches(proj, batch_format="pyarrow")


def q_parse_w3c(sf_dir: str):
    ds = build_parsed(read_transcripts(sf_dir))
    keep = _keep_families([9])

    def proj(batch: pa.Table) -> pa.Table:
        batch = keep(batch)
        props = [json.loads(p).get("w3c", {})
                 for p in batch["properties"].to_pylist()]
        out = {c: batch[c] for c in _BASE_COLS}
        for name, key in (("cs_method", "cs-method"), ("cs_uri", "cs-uri"),
                          ("sc_status", "sc-status")):
            out[name] = pa.array([p.get(key, "") for p in props], pa.string())
        return pa.table(out)
    return ds.map_batches(proj, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# routing / filter / sink queries
# ---------------------------------------------------------------------------


def q_route_topics(sf_dir: str):
    """Topic per parsed message (forwarder's routing decision) → counts."""
    ds = build_routed(read_transcripts(sf_dir))

    def proj(batch: pa.Table) -> pa.Table:
        mask = pa.array(np.asarray(batch["parse_ok"].to_pylist(), dtype=bool))
        return batch.filter(mask).select(["topic"])
    return grouped_count(ds, ["topic"], pre=proj)


def q_route_partition_keys(sf_dir: str):
    ds = build_routed(read_transcripts(sf_dir))

    def proj(batch: pa.Table) -> pa.Table:
        mask = pa.array(np.asarray(batch["parse_ok"].to_pylist(), dtype=bool))
        return batch.filter(mask).select(["partition_key"])
    return grouped_count(ds, ["partition_key"], pre=proj)


def q_filter_results(sf_dir: str):
    """Per-message filter outcome counts (store/forwarder.go:192-208)."""
    ds = build_routed(read_transcripts(sf_dir))
    return grouped_count(ds, ["filter_status"])


def q_sink_counts(sf_dir: str):
    """Per-(sink,status) counts after destination fan-out."""
    ds = build_fanout(read_transcripts(sf_dir))
    return grouped_count(ds, ["sink", "status"])


def q_es_bulk_acks(sf_dir: str):
    """Elasticsearch destination per-item bulk-ack outcomes
    (store/dests/elasticsearch.go:169-268): every message renders its
    index name from the sink template, ships as one bulk item keyed by
    uid, and the bulk response acks/nacks each item individually — here
    the simulated response fails exactly the items whose index name
    violates ES naming rules (stages/esbulk.py). The template
    deliberately includes the filter-uppercased msgid so families that
    carry a msgid produce invalid (uppercase) names → per-item NACK,
    while msgid-less families produce valid ones → ACK."""
    import dataclasses

    from ..config import SinkConfig, default_config
    cfg = dataclasses.replace(default_config(), sinks=(
        SinkConfig(name="es", kind="es", encoder="json",
                   filename_tmpl="logs-{msgid}-{hostname}"),))
    ds = build_fanout(read_transcripts(sf_dir), config=cfg)

    def proj(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch["sink"], "es")) \
                    .select(["status"])
    return grouped_count(ds, ["status"], pre=proj)


def q_file_sink_routes(sf_dir: str):
    """File-dest filename-template partitions (filedest.go:218-235) → counts."""
    ds = build_fanout(read_transcripts(sf_dir))

    def proj(batch: pa.Table) -> pa.Table:
        mask = pc.and_(pc.equal(batch["sink"], "file"),
                       pc.equal(batch["status"], "passing"))
        return batch.filter(mask).select(["route"])
    return grouped_count(ds, ["route"], pre=proj)


def q_encode_rfc5424(sf_dir: str):
    """Byte-equality surface: canonical RFC5424 re-encode of family-0 rows
    (their generated text is already canonical, so encode(decode(x)) == x
    modulo the filter hook's msgid uppercase mutation)."""
    ds = build_fanout(read_transcripts(sf_dir))

    def proj(batch: pa.Table) -> pa.Table:
        fam = family_array(batch["conv_id"])
        mask = (fam == 0) & np.asarray(
            pc.and_(pc.equal(batch["sink"], "kafka"),
                    pc.equal(batch["status"], "passing")).to_pylist(), dtype=bool)
        batch = batch.filter(pa.array(mask))
        return pa.table({"conv_id": batch["conv_id"],
                         "turn_idx": batch["turn_idx"],
                         "text_out": batch["encoded"]})
    return ds.map_batches(proj, batch_format="pyarrow")


def q_encode_rfc3164(sf_dir: str):
    """Same byte-equality surface for the rfc3164 encoder on family-2 rows."""
    from ..encoders import encode_rfc3164
    ds = build_routed(read_transcripts(sf_dir))

    def proj(batch: pa.Table) -> pa.Table:
        fam = family_array(batch["conv_id"])
        mask = (fam == 2) & np.asarray(
            pc.equal(batch["filter_status"], "passing").to_pylist(), dtype=bool)
        batch = batch.filter(pa.array(mask))
        recs = batch.select(["priority", "time_reported", "hostname",
                             "appname", "procid", "message"]).to_pylist()
        enc = [encode_rfc3164(r) for r in recs]
        return pa.table({"conv_id": batch["conv_id"],
                         "turn_idx": batch["turn_idx"],
                         "text_out": pa.array(enc, pa.string())})
    return ds.map_batches(proj, batch_format="pyarrow")


def q_enrich_groups(sf_dir: str):
    """Lookup-enrichment join → per-(role_class, tool_category) counts."""
    ds = build_routed(read_transcripts(sf_dir))
    return grouped_count(ds, ["role_class", "tool_category"])


def q_metrics_incoming(sf_dir: str):
    """Incoming/parse-error counters per format family
    (services/base/metrics.go:16-47)."""
    from ..gen import FAMILY_NAMES
    ds = build_parsed(read_transcripts(sf_dir))

    def proj(batch: pa.Table) -> pa.Table:
        fam = family_array(batch["conv_id"])
        names = [FAMILY_NAMES[f] for f in fam]
        return pa.table({"format": pa.array(names, pa.string()),
                         "parse_ok": batch["parse_ok"]})
    return grouped_count(ds, ["format", "parse_ok"], pre=proj)


def q_conv_stats(sf_dir: str):
    """Per-conversation session stats (turn count, ts range, text bytes)
    via the skew-safe two-phase combiner (stages/agg.grouped_stats): a
    hot conversation holding half the corpus still only ships one
    partial row per batch into the shuffle."""
    from ..stages.agg import grouped_stats
    ds = read_transcripts(sf_dir)

    def pre(batch: pa.Table) -> pa.Table:
        return pa.table({
            "conv_id": batch["conv_id"],
            "ts": pc.cast(batch["ts"], pa.int64()),
            "chars": pc.utf8_length(batch["text"]),
        })

    out = grouped_stats(ds, "conv_id",
                        [("ts", "count"), ("ts", "min"), ("ts", "max"),
                         ("chars", "sum")], pre=pre)
    return out.map_batches(
        lambda b: pa.table({
            "conv_id": b["conv_id"],
            "n_turns": b["n"],
            "first_ts": pc.cast(b["min_ts"], pa.timestamp("us")),
            "last_ts": pc.cast(b["max_ts"], pa.timestamp("us")),
            "n_chars": pc.cast(b["sum_chars"], pa.int64()),
        }), batch_format="pyarrow")


def q_incremental_conv_stats(sf_dir: str):
    """Incremental (checkpointed) aggregation: conv_stats state from an
    earlier ingest persisted as MERGEABLE partials (count/min/max/sum
    parquet), then a later ingest aggregates only ITS turns and merges
    with the saved state through the same associative combine — the
    ingestion pattern that extends per-partition lineage resume
    (state/manifest) to aggregate state: history is never recomputed,
    only its partial rows are re-read. The two ingests here split each
    conversation mid-stream (turn_idx < 10 vs ≥), so the merge
    exercises per-key count-sum / min-of-mins / max-of-maxes across
    checkpoints. Oracle = the full-table SQL: incremental ≡ recompute.
    """
    import os
    import shutil

    from ..stages.agg import grouped_stats
    ds = read_transcripts(sf_dir)

    def pre(batch: pa.Table) -> pa.Table:
        return pa.table({
            "conv_id": batch["conv_id"],
            "ts": pc.cast(batch["ts"], pa.int64()),
            "chars": pc.utf8_length(batch["text"]),
        })

    def half(ds_, old: bool):
        def f(b: pa.Table) -> pa.Table:
            m = pc.less(b["turn_idx"], 10)
            return b.filter(m if old else pc.invert(m))
        return ds_.map_batches(f, batch_format="pyarrow")

    specs = [("ts", "count"), ("ts", "min"), ("ts", "max"),
             ("chars", "sum")]
    # per-invocation checkpoint dir: corpus identity by abspath hash,
    # uniqueness by uuid so concurrent invocations (bench + correctness)
    # never race each other's state
    import hashlib
    import uuid
    state_dir = os.path.join(
        "/tmp/skewer_ray_incr",
        hashlib.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:12]
        + "-" + uuid.uuid4().hex[:8])
    # ingest #1: aggregate the old half and CHECKPOINT the partials
    shutil.rmtree(state_dir, ignore_errors=True)
    grouped_stats(half(ds, True), "conv_id", specs, pre=pre) \
        .write_parquet(state_dir)
    # ingest #2: aggregate only the new turns, merge with saved state
    state = rd.read_parquet(state_dir)
    new = grouped_stats(half(ds, False), "conv_id", specs, pre=pre)

    def repartial(b: pa.Table) -> pa.Table:
        g = b.group_by("conv_id").aggregate(
            [("n", "sum"), ("min_ts", "min"), ("max_ts", "max"),
             ("sum_chars", "sum")])
        return pa.table({
            "conv_id": g["conv_id"],
            "n_turns": pc.cast(g["n_sum"], pa.int64()),
            "first_ts": pc.cast(g["min_ts_min"], pa.timestamp("us")),
            "last_ts": pc.cast(g["max_ts_max"], pa.timestamp("us")),
            "n_chars": pc.cast(g["sum_chars_sum"], pa.int64())})

    from ..stages.buckets import grouped_by_bucket
    # repartial re-groups by conv_id internally, so the exchange keys
    # on a hash bucket (one vectorized call per bucket, not per conv)
    return grouped_by_bucket(state.union(new), repartial, key="conv_id")


def q_conv_text(sf_dir: str):
    """Ordered session reconstruction: per conversation, the turns
    concatenated in (turn_idx) order as "role: text" lines — the one
    transcript aggregate that genuinely needs all of a conversation
    co-located AND ordered (the RELP in-order semantics applied to
    output). Bucket grouping (stages/buckets) provides the same
    co-location as groupby(conv_id) while one UDF call assembles
    hundreds of conversations; the sort is one lexsort over the
    bucket, and run boundaries slice it into conversations."""
    from ..stages.buckets import grouped_by_bucket, run_starts
    ds = read_transcripts(sf_dir)

    def assemble(batch: pa.Table) -> pa.Table:
        conv = np.asarray(batch["conv_id"].to_pylist(), dtype=object)
        turn = batch["turn_idx"].to_numpy(zero_copy_only=False)
        roles = batch["role"].to_pylist()
        texts = batch["text"].to_pylist()
        order = np.lexsort((turn, conv))
        conv_s = conv[order]
        starts = np.flatnonzero(run_starts(conv_s))
        ends = np.append(starts[1:], len(conv_s))
        lines = [f"{roles[i]}: {texts[i]}" for i in order]
        return pa.table({
            "conv_id": pa.array([conv_s[s] for s in starts], pa.string()),
            "n_turns": pa.array(ends - starts, pa.int64()),
            "session_text": pa.array(
                ["\n".join(lines[s:e]) for s, e in zip(starts, ends)],
                pa.string()),
        })

    return grouped_by_bucket(ds, assemble)


def q_role_transitions(sf_dir: str):
    """Role-transition bigram counts across conversations (the LAG OVER
    (PARTITION BY conv ORDER BY turn) shape): narrow 3-column
    projection into ONE bucket-keyed shuffle (stages/buckets —
    conversation co-location, hundreds of conversations per vectorized
    UDF call), in-group boundary-masked bigram count via a pandas C
    groupby, then map-side partial merge of the tiny (from, to) domain
    on the driver."""
    from collections import Counter

    from ..stages.buckets import grouped_by_bucket
    ds = read_transcripts(sf_dir)

    def per_bucket(batch: pa.Table) -> pa.Table:
        conv = np.asarray(batch["conv_id"].to_pylist(), dtype=object)
        turn = batch["turn_idx"].to_numpy(zero_copy_only=False)
        roles = np.asarray(batch["role"].to_pylist(), dtype=object)
        order = np.lexsort((turn, conv))
        conv_s, roles_s = conv[order], roles[order]
        same = conv_s[1:] == conv_s[:-1]
        c = Counter(zip(roles_s[:-1][same], roles_s[1:][same]))
        ks = sorted(c)
        return pa.table({
            "from_role": pa.array([k[0] for k in ks], pa.string()),
            "to_role": pa.array([k[1] for k in ks], pa.string()),
            "n": pa.array([c[k] for k in ks], pa.int64()),
        })

    cells = grouped_by_bucket(
        ds.map_batches(lambda b: b.select(["conv_id", "turn_idx",
                                           "role"]),
                       batch_format="pyarrow"), per_bucket)

    def partial(b: pa.Table) -> pa.Table:
        return b.group_by(["from_role", "to_role"]).aggregate(
            [("n", "sum")])

    acc: dict[tuple, int] = {}
    for b in cells.map_batches(partial, batch_format="pyarrow") \
                  .iter_batches(batch_format="pyarrow"):
        for r in b.to_pylist():
            k = (r["from_role"], r["to_role"])
            acc[k] = acc.get(k, 0) + r["n_sum"]
    ks = sorted(acc)
    return pa.table({
        "from_role": pa.array([k[0] for k in ks], pa.string()),
        "to_role": pa.array([k[1] for k in ks], pa.string()),
        "n": pa.array([acc[k] for k in ks], pa.int64()),
    })


def _conv_gaps(batch: pa.Table, with_roles: bool = False):
    """THE shared LAG(ts)-over-(conv, turn) kernel: sort a bucket's
    rows by (conv_id, turn_idx), mask pairs at conversation boundaries,
    and return the int64-µs gaps between consecutive turns — plus, when
    asked, the (from_role, to_role) arrays aligned with them. One
    implementation so every gap-based operator tracks the oracle's
    `LAG ... OVER (PARTITION BY conv_id ORDER BY turn_idx)` identically
    (review: this scaffold had been duplicated per query)."""
    conv = np.asarray(batch["conv_id"].to_pylist(), dtype=object)
    turn = batch["turn_idx"].to_numpy(zero_copy_only=False)
    us = batch["us"].to_numpy(zero_copy_only=False)
    order = np.lexsort((turn, conv))
    conv_s, us_s = conv[order], us[order]
    same = conv_s[1:] == conv_s[:-1]
    g = (us_s[1:] - us_s[:-1])[same]
    if not with_roles:
        return g
    roles_s = np.asarray(batch["role"].to_pylist(), dtype=object)[order]
    return g, roles_s[:-1][same], roles_s[1:][same]


def q_turn_latency(sf_dir: str):
    """Turn-latency stats per role transition: for each (from_role →
    to_role) pair, the count, mean and max time gap between consecutive
    turns — the LAG(ts) OVER (PARTITION BY conv ORDER BY turn) shape,
    reduced to a tiny role-pair domain. ONE bucket-keyed shuffle of a
    narrow projection (stages/buckets: conversation co-location,
    hundreds of conversations per vectorized UDF call); in-group gaps
    are an int64-µs diff masked at conversation boundaries, reduced
    by a pandas C groupby; partial (n, sum_µs, max_µs) rows combine
    map-side so the driver merge touches role-pairs, not turns. All
    sums are exact integers end-to-end: the mean is emitted as
    floor-divided integer microseconds, so no float rounding mode can
    diverge between engines."""
    from ..stages.buckets import grouped_by_bucket
    ds = read_transcripts(sf_dir)

    def prune(b: pa.Table) -> pa.Table:
        return pa.table({"conv_id": b["conv_id"],
                         "turn_idx": b["turn_idx"],
                         "role": b["role"],
                         "us": pc.cast(b["ts"], pa.int64())})
    def per_bucket(batch: pa.Table) -> pa.Table:
        import pandas as pd
        g, from_r, to_r = _conv_gaps(batch, with_roles=True)
        df = pd.DataFrame({"f": from_r, "t": to_r, "g": g})
        if df.empty:
            return pa.table({
                "from_role": pa.array([], pa.string()),
                "to_role": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
                "s": pa.array([], pa.int64()),
                "m": pa.array([], pa.int64())})
        agg = df.groupby(["f", "t"])["g"].agg(["count", "sum", "max"])
        return pa.table({
            "from_role": pa.array([k[0] for k in agg.index], pa.string()),
            "to_role": pa.array([k[1] for k in agg.index], pa.string()),
            "n": pa.array(agg["count"].to_numpy(), pa.int64()),
            "s": pa.array(agg["sum"].to_numpy(), pa.int64()),
            "m": pa.array(agg["max"].to_numpy(), pa.int64())})

    cells = grouped_by_bucket(
        ds.map_batches(prune, batch_format="pyarrow"), per_bucket)

    def partial(b: pa.Table) -> pa.Table:
        return b.group_by(["from_role", "to_role"]).aggregate(
            [("n", "sum"), ("s", "sum"), ("m", "max")])

    acc: dict[tuple, list] = {}
    for b in cells.map_batches(partial, batch_format="pyarrow") \
                  .iter_batches(batch_format="pyarrow"):
        for r in b.to_pylist():
            k = (r["from_role"], r["to_role"])
            a = acc.setdefault(k, [0, 0, 0])
            a[0] += r["n_sum"]
            a[1] += r["s_sum"]
            a[2] = max(a[2], r["m_max"])
    ks = sorted(acc)
    return pa.table({
        "from_role": pa.array([k[0] for k in ks], pa.string()),
        "to_role": pa.array([k[1] for k in ks], pa.string()),
        "n": pa.array([acc[k][0] for k in ks], pa.int64()),
        "avg_gap_us": pa.array([acc[k][1] // acc[k][0] for k in ks],
                               pa.int64()),
        "max_gap_us": pa.array([acc[k][2] for k in ks], pa.int64())})


def q_gap_hist(sf_dir: str):
    """HDR-style log₂-bucketed latency histogram: turn-gap microseconds
    binned by bit length (bin = #{j : 2^j ≤ gap}, 0 for gap ≤ 0) — the
    bounded-cell histogram shape for an UNBOUNDED value domain, where a
    fixed-width histogram (events_histogram) or exact counting sort
    (events_quantiles) would need data-dependent cells. Binning is
    exact integer end-to-end: the engine takes the bit length from
    ``np.frexp``'s exponent (exact for gaps < 2^53 µs ≈ 285 years), the
    oracle counts powers of two below the gap — no float log2 at either
    engine. ONE conv-keyed bucket exchange; per-bin partials (≤ 64
    cells) combine map-side."""
    import pandas as pd

    from ..stages.buckets import grouped_by_bucket
    ds = read_transcripts(sf_dir)

    def prune(b: pa.Table) -> pa.Table:
        return pa.table({"conv_id": b["conv_id"],
                         "turn_idx": b["turn_idx"],
                         "us": pc.cast(b["ts"], pa.int64())})

    def per_bucket(batch: pa.Table) -> pa.Table:
        g = _conv_gaps(batch)
        bins = np.where(g > 0, np.frexp(g.astype(np.float64))[1], 0) \
            .astype(np.int64)
        agg = (pd.DataFrame({"bin": bins, "g": g})
               .groupby("bin")["g"].agg(["count", "min", "max"]))
        return pa.table({
            "bin": pa.array(agg.index.to_numpy().astype(np.int64),
                            pa.int64()),
            "n": pa.array(agg["count"].to_numpy().astype(np.int64),
                          pa.int64()),
            "mn": pa.array(agg["min"].to_numpy().astype(np.int64),
                           pa.int64()),
            "mx": pa.array(agg["max"].to_numpy().astype(np.int64),
                           pa.int64())})

    acc: dict[int, list[int]] = {}
    for b in grouped_by_bucket(
            ds.map_batches(prune, batch_format="pyarrow"), per_bucket) \
            .iter_batches(batch_format="pyarrow"):
        for r in b.to_pylist():
            a = acc.setdefault(r["bin"], [0, None, None])
            a[0] += r["n"]
            a[1] = r["mn"] if a[1] is None else min(a[1], r["mn"])
            a[2] = r["mx"] if a[2] is None else max(a[2], r["mx"])
    ks = sorted(acc)
    return pa.table({
        "bin": pa.array(ks, pa.int64()),
        "n": pa.array([acc[k][0] for k in ks], pa.int64()),
        "min_gap_us": pa.array([acc[k][1] for k in ks], pa.int64()),
        "max_gap_us": pa.array([acc[k][2] for k in ks], pa.int64())})


def q_tool_cooccurrence(sf_dir: str):
    """Market-basket affinity: for every unordered tool pair, the
    number of conversations that used BOTH. ONE conv-keyed bucket
    exchange of the distinct (conv, tool) projection; the in-bucket
    pair expansion is a segmented numpy sweep (bounded by outdeg ≤ 15
    per conversation), and partials live on the ≤ C(15,2) pair domain,
    so the driver merge is tiny at any corpus size."""
    from ..functions.graph import prune_tool_edges
    from ..stages.buckets import grouped_by_bucket, run_starts
    ds = read_transcripts(sf_dir)

    empty = pa.table({"tool_a": pa.array([], pa.string()),
                      "tool_b": pa.array([], pa.string()),
                      "n": pa.array([], pa.int64())})

    def per_bucket(batch: pa.Table) -> pa.Table:
        # distinct (conv, tool), sorted so convs form runs and tools
        # are ascending within a run — all Arrow/numpy, no pandas
        d = batch.group_by(["conv_id", "tool"]).aggregate([])
        d = d.take(pc.sort_indices(
            d, sort_keys=[("conv_id", "ascending"), ("tool", "ascending")]))
        n = d.num_rows
        if n == 0:
            return empty
        conv = d["conv_id"].to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(run_starts(conv))
        cnt = np.diff(np.append(starts, n))
        # row i pairs with the (cnt-1-local_i) later rows of its run
        local = np.arange(n) - np.repeat(starts, cnt)
        partners = np.repeat(cnt, cnt) - 1 - local
        total = int(partners.sum())
        if total == 0:
            return empty
        left = np.repeat(np.arange(n), partners)
        seg0 = np.cumsum(partners) - partners  # pair-seg starts per row
        right = left + 1 + np.arange(total) - np.repeat(seg0, partners)
        tools = d["tool"].combine_chunks()
        pairs = pa.table({"tool_a": tools.take(pa.array(left)),
                          "tool_b": tools.take(pa.array(right))})
        agg = pairs.group_by(["tool_a", "tool_b"]).aggregate(
            [([], "count_all")])
        return pa.table({"tool_a": agg["tool_a"],
                         "tool_b": agg["tool_b"],
                         "n": pc.cast(agg["count_all"], pa.int64())})

    acc: dict[tuple, int] = {}
    for b in grouped_by_bucket(
            ds.map_batches(prune_tool_edges, batch_format="pyarrow"),
            per_bucket) \
            .iter_batches(batch_format="pyarrow"):
        for r in b.to_pylist():
            k = (r["tool_a"], r["tool_b"])
            acc[k] = acc.get(k, 0) + r["n"]
    ks = sorted(acc)
    return pa.table({
        "tool_a": pa.array([k[0] for k in ks], pa.string()),
        "tool_b": pa.array([k[1] for k in ks], pa.string()),
        "n": pa.array([acc[k] for k in ks], pa.int64())})


def q_conv_skew(sf_dir: str):
    """Key-skew diagnostics for the partitioning key: the
    conversation-length distribution reduced to one row — count, total,
    min/max/median length and an EXACT integer Gini coefficient
    (emitted as floor-ppm) computed from the bounded length histogram,
    so no sort of the per-key sizes ever happens. The shuffle sees one
    (conv, n) partial per batch per conv (grouped_count combine), then
    ≤ max-length histogram cells; Gini over a histogram is a
    closed-form integer sum over cumulative counts."""
    from ..functions.curation import _hist_quantile
    from ..stages.agg import grouped_count
    ds = read_transcripts(sf_dir).select_columns(["conv_id"])
    lens = grouped_count(ds, ["conv_id"], combine="shuffle")

    def hist(b: pa.Table) -> pa.Table:
        t = pa.table({"len": b["n"],
                      "c": pa.array(np.ones(b.num_rows, np.int64))})
        return t.group_by("len").aggregate([("c", "sum")])

    acc: dict[int, int] = {}
    for b in lens.map_batches(hist, batch_format="pyarrow") \
                 .iter_batches(batch_format="pyarrow"):
        for r in b.to_pylist():
            acc[r["len"]] = acc.get(r["len"], 0) + r["c_sum"]
    n = sum(acc.values())
    total = sum(ln * c for ln, c in acc.items())
    # Gini numerator Σ_i (2i − n − 1)·x_i over ascending sizes, folded
    # per histogram cell: L·(2·c·cum + c(c+1) − c(n+1)); exact ints
    num, cum = 0, 0
    for ln in sorted(acc):
        c = acc[ln]
        num += ln * (2 * c * cum + c * (c + 1) - c * (n + 1))
        cum += c
    gini_ppm = (10**6 * num) // (n * total) if n and total else 0
    return pa.table({
        "n_convs": pa.array([n], pa.int64()),
        "total_turns": pa.array([total], pa.int64()),
        "min_len": pa.array([min(acc) if acc else 0], pa.int64()),
        "max_len": pa.array([max(acc) if acc else 0], pa.int64()),
        "median_len": pa.array([_hist_quantile(acc, 0.5)], pa.int64()),
        "gini_ppm": pa.array([gini_ppm], pa.int64()),
    })


WIN_TURNS = 8       # turns per training window
WIN_STRIDE = 4      # window stride (turns)


def q_conv_windows(sf_dir: str):
    """Training-sample construction: each conversation expands to
    overlapping windows of ``WIN_TURNS`` consecutive turns at stride
    ``WIN_STRIDE`` (1→N), each window assembled as ordered "role: text"
    lines — how long-context samples are actually cut from dialogue
    corpora. ONE bucket-keyed shuffle (conversation co-location); the
    window slicing is an in-bucket loop over window starts, bounded by
    turns/stride per conversation."""
    from ..stages.buckets import grouped_by_bucket, run_starts
    ds = read_transcripts(sf_dir)

    def windows(batch: pa.Table) -> pa.Table:
        conv = np.asarray(batch["conv_id"].to_pylist(), dtype=object)
        turn = batch["turn_idx"].to_numpy(zero_copy_only=False)
        order = np.lexsort((turn, conv))
        conv_s = conv[order]
        roles = batch["role"].to_pylist()
        texts = batch["text"].to_pylist()
        lines = [f"{roles[i]}: {texts[i]}" for i in order]
        starts = np.flatnonzero(run_starts(conv_s))
        ends = np.append(starts[1:], len(conv_s))
        out_conv, out_w, out_n, out_text = [], [], [], []
        for s, e in zip(starts, ends):
            n = e - s
            for w, off in enumerate(range(0, n, WIN_STRIDE)):
                chunk = lines[s + off:s + min(off + WIN_TURNS, n)]
                out_conv.append(conv_s[s])
                out_w.append(w)
                out_n.append(len(chunk))
                out_text.append("\n".join(chunk))
        return pa.table({
            "conv_id": pa.array(out_conv, pa.string()),
            "win_idx": pa.array(out_w, pa.int64()),
            "n_turns": pa.array(out_n, pa.int64()),
            "window_text": pa.array(out_text, pa.string())})

    return grouped_by_bucket(ds, windows)


SPLIT_TRAIN = 244   # md5(conv_id)[0] < 244 → train (244/256)
SPLIT_VAL = 250     # < 250 → val (6/256); rest → test


def q_holdout_split(sf_dir: str):
    """Leakage-free train/val/test split at CONVERSATION granularity:
    split = f(md5(conv_id)[0]), so every turn of a conversation lands
    in the same split (no cross-split leakage of shared context) and
    the assignment is a pure function — reproducible across engines,
    partitionings and reruns. Reports per-split conversation and turn
    totals. Shape: map-only split tag + (split, conv) keyed combine
    (exchange bounded by #convs), then a 3-row driver rollup."""
    import hashlib
    ds = read_transcripts(sf_dir)

    def tag(b: pa.Table) -> pa.Table:
        convs = b["conv_id"].to_pylist()
        splits = []
        for c in convs:
            h = hashlib.md5(c.encode()).digest()[0]
            splits.append("train" if h < SPLIT_TRAIN
                          else "val" if h < SPLIT_VAL else "test")
        return pa.table({"split": pa.array(splits, pa.string()),
                         "conv_id": b["conv_id"]})

    per_conv = grouped_count(ds.map_batches(tag, batch_format="pyarrow"),
                             ["split", "conv_id"], combine="shuffle")

    acc: dict[str, list] = {}
    for b in per_conv.iter_batches(batch_format="pyarrow"):
        t = b.group_by("split").aggregate([([], "count_all"),
                                           ("n", "sum")])
        for r in t.to_pylist():
            a = acc.setdefault(r["split"], [0, 0])
            a[0] += r["count_all"]
            a[1] += r["n_sum"]
    ks = sorted(acc)
    return pa.table({
        "split": pa.array(ks, pa.string()),
        "n_convs": pa.array([acc[k][0] for k in ks], pa.int64()),
        "n_turns": pa.array([acc[k][1] for k in ks], pa.int64())})


WJS_CAP = 32  # weight cap ≈ the generator's max turns/conv (30)


def q_weighted_join_sample(sf_dir: str):
    """Weighted sampling over a JOIN without materializing the join
    (the shape of "Streaming Weighted Sampling over Join Queries",
    EDBT 2023): each turn is kept with probability proportional to its
    conversation's turn count w — i.e. a weighted sample of
    turns ⋈ conv-aggregate, where the aggregate side never exists as a
    dataset. ONE conv-keyed bucketed exchange computes w INSIDE each
    co-located group and flips a deterministic per-row md5 coin:
    keep iff h60(conv:turn) · CAP < min(w, CAP) · 2⁶⁰ (exact integer
    compare — h60 = first 15 md5 hex digits, CAP = 32 ≳ the corpus max
    turns/conv, so keep probability is w/CAP). Membership is a pure
    function of the row key: reproducible across engines,
    partitionings and reruns. Output (conv_id, turn_idx, w_conv)."""
    import hashlib

    from ..stages.buckets import grouped_by_bucket, run_starts

    ds = read_transcripts(sf_dir).select_columns(["conv_id", "turn_idx"])

    def per_bucket(batch: pa.Table) -> pa.Table:
        idx = pc.sort_indices(batch, sort_keys=[
            ("conv_id", "ascending"), ("turn_idx", "ascending")])
        t = batch.take(idx)
        cd = pc.dictionary_encode(t["conv_id"].combine_chunks())
        if isinstance(cd, pa.ChunkedArray):
            cd = cd.combine_chunks()
        codes = cd.indices.to_numpy(zero_copy_only=False)
        run_id = np.cumsum(run_starts(codes)) - 1
        w = np.minimum(np.bincount(run_id)[run_id], WJS_CAP).astype(
            np.int64)
        convs = t["conv_id"].to_pylist()
        turns = t["turn_idx"].to_numpy(zero_copy_only=False)
        rhs = (w.astype(object) << 60)  # exact Python ints, no overflow
        keep = np.fromiter(
            (int(hashlib.md5(f"{c}:{ti}".encode()).hexdigest()[:15], 16)
             * WJS_CAP < r
             for c, ti, r in zip(convs, turns, rhs)),
            dtype=bool, count=len(convs))
        out = pa.table({
            "conv_id": t["conv_id"],
            "turn_idx": pc.cast(t["turn_idx"], pa.int64()),
            "w_conv": pa.array(np.bincount(run_id)[run_id].astype(
                np.int64), pa.int64())})
        return out.filter(pa.array(keep))

    return grouped_by_bucket(ds, per_bucket, key="conv_id")


TRIM_BUDGET = 64  # tokens kept per conversation (suffix window)


def q_trim_context(sf_dir: str):
    """Per-conversation context-window truncation: keep the longest
    SUFFIX of turns (most recent first) whose total canonical word
    count fits the token budget — chat-history trimming for model
    context limits. ONE bucket-keyed shuffle (stages/buckets:
    conversation co-location with ~convs/512 conversations per UDF
    call instead of one — the per-group Python overhead was the
    measured wall-time sink at 30k groups); in-group the suffix cumsum
    is a vectorized SEGMENTED scan across all of the bucket's
    conversations at once. A turn that alone exceeds the budget drops
    its whole conversation's tail, same as the SQL window frame."""
    from ..stages.buckets import (grouped_by_bucket, run_starts,
                                  segmented_cumsum)
    ds = read_transcripts(sf_dir)

    def prune(b: pa.Table) -> pa.Table:
        from ..functions.curation import _word_counts
        return pa.table({
            "conv_id": b["conv_id"], "turn_idx": b["turn_idx"],
            "toks": pc.cast(_word_counts(b), pa.int64())})

    def per_bucket(batch: pa.Table) -> pa.Table:
        conv = np.asarray(batch["conv_id"].to_pylist(), dtype=object)
        turn = batch["turn_idx"].to_numpy(zero_copy_only=False)
        toks = batch["toks"].to_numpy(zero_copy_only=False)
        order = np.lexsort((-turn, conv))     # conv asc, turn DESC
        suffix = segmented_cumsum(toks[order], run_starts(conv[order]))
        keep = order[suffix <= TRIM_BUDGET]
        return batch.take(pa.array(np.sort(keep)))

    return grouped_by_bucket(
        ds.map_batches(prune, batch_format="pyarrow"), per_bucket)


def q_conv_pattern_dedup(sf_dir: str):
    """Conversation-level dedup by interaction pattern: conversations
    with the same ordered role sequence collapse onto a canonical
    conversation (min conv_id of the group). Exact-dedup at
    conversation granularity — the sub-document analog of
    ``dedup_exact``: phase 1 hashes each conversation's ordered pattern
    (one conv-keyed exchange, one tiny row out per conversation),
    phase 2 is a keyed groupby over the hash whose cardinality is the
    number of DISTINCT patterns, not conversations."""
    import hashlib

    from ..stages.buckets import grouped_by_bucket, run_starts
    ds = read_transcripts(sf_dir)

    def hash_bucket(batch: pa.Table) -> pa.Table:
        conv = np.asarray(batch["conv_id"].to_pylist(), dtype=object)
        turn = batch["turn_idx"].to_numpy(zero_copy_only=False)
        roles = np.asarray(batch["role"].to_pylist(), dtype=object)
        order = np.lexsort((turn, conv))
        conv_s, roles_s = conv[order], roles[order]
        starts = np.flatnonzero(run_starts(conv_s))
        ends = np.append(starts[1:], len(conv_s))
        return pa.table({
            "conv_id": pa.array([conv_s[s] for s in starts], pa.string()),
            "pattern_hash": pa.array(
                [hashlib.md5("\n".join(roles_s[s:e]).encode()).hexdigest()
                 for s, e in zip(starts, ends)], pa.string())})

    hashes = grouped_by_bucket(
        ds.map_batches(lambda b: b.select(["conv_id", "turn_idx",
                                           "role"]),
                       batch_format="pyarrow"), hash_bucket)

    def canon(batch: pa.Table) -> pa.Table:
        # many pattern groups per call (the hash domain ≈ #convs, so
        # per-group map_groups would dispatch once per distinct
        # pattern): sort by (hash, conv), segment, repeat the run head
        ph = np.asarray(batch["pattern_hash"].to_pylist())
        cid = np.asarray(batch["conv_id"].to_pylist())
        order = np.lexsort((cid, ph))
        ph_s, cid_s = ph[order], cid[order]
        sidx = np.flatnonzero(run_starts(ph_s))
        counts = np.diff(np.append(sidx, len(ph_s)))
        return pa.table({
            "conv_id": pa.array(cid_s, pa.string()),
            "pattern_hash": pa.array(ph_s, pa.string()),
            "canonical_conv": pa.array(np.repeat(cid_s[sidx], counts),
                                       pa.string()),
            "group_size": pa.array(np.repeat(counts, counts), pa.int64())})

    return grouped_by_bucket(hashes, canon, key="pattern_hash",
                             coalesce=False)


def q_repeat_reduce(sf_dir: str):
    """syslogd "last message repeated N times" suppression: consecutive
    identical messages per stream collapse to (first_idx, n_repeats)
    rows — gaps-and-islands under ONE stream-bucket exchange
    (functions/multiline.repeat_reduce)."""
    from ..functions.multiline import repeat_reduce
    ds = read_transcripts(sf_dir).map_batches(
        lambda b: b.select(["conv_id", "turn_idx", "text"]),
        batch_format="pyarrow")
    return repeat_reduce(ds)


def q_merge_multiline(sf_dir: str):
    """Multiline log-record reassembly (stack-trace gluing): lines not
    opening with a syslog PRI are continuations of the record above
    them in their stream — gaps-and-islands via per-conversation
    co-location + vectorized cumsum (functions/multiline.py). Input is
    pruned to the three needed columns before the exchange."""
    from ..functions.multiline import merge_multiline
    ds = read_transcripts(sf_dir).map_batches(
        lambda b: b.select(["conv_id", "turn_idx", "text"]),
        batch_format="pyarrow")
    return merge_multiline(ds)


def q_storage_profile(sf_dir: str):
    """Footer-only storage-layout audit of the transcript files
    (functions/storage.storage_profile — the small-file/compression
    health scan; no data pages read)."""
    import glob as _glob

    from ..functions.storage import storage_profile
    from ..gen import ensure_transcripts
    path = ensure_transcripts(sf_dir)
    return storage_profile(sorted(_glob.glob(f"{path}/*.parquet")))


def q_trending_terms(sf_dir: str):
    """Per-day top-5 terms over the transcript text (the trending
    board; functions/textstats.trending_terms — (day, term)-keyed
    combine, per-block exact top-k partials, bounded driver merge)."""
    from ..functions.textstats import trending_terms
    ds = read_transcripts(sf_dir).map_batches(
        lambda b: b.select(["text", "ts"]), batch_format="pyarrow")
    return trending_terms(ds)


def q_template_novelty(sf_dir: str):
    """New-template alarm: per day, distinct templates and first-seen
    templates (functions/templates.template_novelty — one bounded
    (template, day) exchange; the drift monitor over mined templates)."""
    from ..functions.templates import template_novelty
    ds = read_transcripts(sf_dir).map_batches(
        lambda b: b.select(["text", "ts"]), batch_format="pyarrow")
    return template_novelty(ds)


def q_log_templates(sf_dir: str):
    """Drain-style log template mining over the raw transcript text:
    vectorized RE2 mask chain → (template, n) with map-side combine
    (functions/templates.py; oracle = same chain as DuckDB
    regexp_replace)."""
    from ..functions.templates import log_templates
    return log_templates(read_transcripts(sf_dir))


GROK_5424 = ("^<%{INT:pri}>%{INT:ver} %{TIMESTAMP_ISO8601:gts} "
             "%{NOTSPACE:host} %{NOTSPACE:app} %{NOTSPACE:procid} "
             "%{NOTSPACE:msgid} \\[%{DATA:sd}\\] %{GREEDYDATA:msg}$")


def q_grok_transcripts(sf_dir: str):
    """User-composable grok extraction (functions/grok.py): one
    vectorized RE2 pass pulls 9 named fields out of every RFC5424-shaped
    line; other families simply don't match and are dropped. The oracle
    runs the IDENTICAL expanded regex in DuckDB (also RE2), extracting
    by capture-group index."""
    from ..functions.grok import grok_extract
    from ..gen import ensure_transcripts
    path = ensure_transcripts(sf_dir)
    ds = rd.read_parquet(path, columns=["conv_id", "turn_idx", "text"])
    return grok_extract(ds, GROK_5424, keep=["conv_id", "turn_idx"],
                        types={"pri": "int64", "ver": "int64"})


def q_anonymize_hosts(sf_dir: str):
    """GDPR-ish sanitization over the syslog families: deterministic
    host pseudonyms + vectorized PII scrub chain
    (functions/anonymize.py; oracle = same chain in DuckDB)."""
    from ..functions.anonymize import anonymize_hosts
    return anonymize_hosts(build_parsed(read_transcripts(sf_dir)))


def q_routed_rows_kafka(sf_dir: str):
    """Routed-row set equality surface: uids delivered to the kafka sink."""
    ds = build_fanout(read_transcripts(sf_dir))

    def proj(batch: pa.Table) -> pa.Table:
        mask = pc.and_(pc.equal(batch["sink"], "kafka"),
                       pc.equal(batch["status"], "passing"))
        return batch.filter(mask).select(["uid", "topic", "partition_key"])
    return ds.map_batches(proj, batch_format="pyarrow")


def q_conv_loglik(sf_dir: str):
    """Markov anomaly scoring per conversation: the sum over the conv's
    role transitions of round(ln P(to|from) * 1e6), P = Laplace-smoothed
    GLOBAL transition probability (c+1)/(c_from+R), R = distinct roles.
    The shape skewer lacks but an anomalous-session detector needs on
    top of the role_transitions bigram model.

    Scale: pass 1 reuses the role_transitions global counts (bounded
    R^2 domain, merged map-side) plus a tiny distinct-role aggregate;
    pass 2 is ONE conv-keyed bucket exchange that scores every
    conversation against the broadcast term matrix (<= R^2 int64
    entries shipped once in the task closure). Term-wise int64 rounding
    makes each conv's sum order-independent — exact equality with the
    DuckDB oracle, no float accumulation across rows."""
    import math

    from ..stages.buckets import grouped_by_bucket

    # pass 1: global bigram counts + distinct roles (both tiny)
    g = q_role_transitions(sf_dir)
    counts = {(a, b): n for a, b, n in
              zip(g["from_role"].to_pylist(), g["to_role"].to_pylist(),
                  g["n"].to_pylist())}
    roles_ds = read_transcripts(sf_dir).map_batches(
        lambda b: pa.table({"role": pc.unique(b["role"])}),
        batch_format="pyarrow")
    all_roles = sorted({r["role"] for r in roles_ds.take_all()})
    r_n = len(all_roles)
    from_tot: dict[str, int] = {}
    for (a, _b), n in counts.items():
        from_tot[a] = from_tot.get(a, 0) + n
    idx = {r: i for i, r in enumerate(all_roles)}
    term = np.zeros((r_n, r_n), dtype=np.int64)
    seen = np.zeros((r_n, r_n), dtype=bool)
    for (a, b), c in counts.items():
        term[idx[a], idx[b]] = int(np.rint(
            math.log((c + 1) / float(from_tot[a] + r_n)) * 1_000_000))
        seen[idx[a], idx[b]] = True
    roles_arr = np.asarray(all_roles, dtype=object)

    # pass 2: score each conversation (conv-keyed bucket exchange)
    def per_bucket(batch: pa.Table) -> pa.Table:
        import pandas as pd
        conv = np.asarray(batch["conv_id"].to_pylist(), dtype=object)
        turn = batch["turn_idx"].to_numpy(zero_copy_only=False)
        roles = np.asarray(batch["role"].to_pylist(), dtype=object)
        order = np.lexsort((turn, conv))
        conv_s, roles_s = conv[order], roles[order]
        same = conv_s[1:] == conv_s[:-1]
        f, t = roles_s[:-1][same], roles_s[1:][same]
        cs = conv_s[1:][same]
        fi = np.searchsorted(roles_arr, f)
        ti = np.searchsorted(roles_arr, t)
        lm = term[fi, ti]
        df = pd.DataFrame({"conv_id": cs, "lm": lm})
        gg = df.groupby("conv_id", sort=True)["lm"].agg(["count", "sum"])
        return pa.table({
            "conv_id": pa.array(gg.index.to_numpy(dtype=object),
                                pa.string()),
            "n_trans": pa.array(gg["count"].to_numpy(np.int64)),
            "loglik_micro": pa.array(gg["sum"].to_numpy(np.int64)),
        })

    proj = read_transcripts(sf_dir).map_batches(
        lambda b: b.select(["conv_id", "turn_idx", "role"]),
        batch_format="pyarrow")
    return grouped_by_bucket(proj, per_bucket)


def q_frequent_sequences(sf_dir: str):
    """Sequential-pattern mining: counts of every length-3 TOOL
    subsequence (consecutive tool turns within a conversation, ordered
    by turn_idx, non-tool turns skipped) — the PrefixSpan-lite workload
    a tool-usage analytics pipeline runs over agent transcripts.

    Scale: ONE conv-keyed bucket exchange on a 3-column projection;
    the trigram domain is bounded (|tools|^3) so per-bucket Counter
    cells merge map-side and the driver folds only the tiny summary."""
    from collections import Counter

    from ..stages.buckets import grouped_by_bucket
    ds = read_transcripts(sf_dir)

    def per_bucket(batch: pa.Table) -> pa.Table:
        mask = pc.and_(batch["tool"].combine_chunks().is_valid(),
                       pc.not_equal(batch["tool"], ""))
        b = batch.filter(mask)
        conv = np.asarray(b["conv_id"].to_pylist(), dtype=object)
        turn = b["turn_idx"].to_numpy(zero_copy_only=False)
        tools = np.asarray(b["tool"].to_pylist(), dtype=object)
        order = np.lexsort((turn, conv))
        conv_s, tools_s = conv[order], tools[order]
        if len(conv_s) < 3:
            same3 = np.zeros(0, dtype=bool)
        else:
            same3 = ((conv_s[:-2] == conv_s[1:-1])
                     & (conv_s[1:-1] == conv_s[2:]))
        c = Counter(zip(tools_s[:-2][same3], tools_s[1:-1][same3],
                        tools_s[2:][same3]))
        ks = sorted(c)
        return pa.table({
            "t1": pa.array([k[0] for k in ks], pa.string()),
            "t2": pa.array([k[1] for k in ks], pa.string()),
            "t3": pa.array([k[2] for k in ks], pa.string()),
            "n": pa.array([c[k] for k in ks], pa.int64()),
        })

    cells = grouped_by_bucket(
        ds.map_batches(lambda b: b.select(["conv_id", "turn_idx",
                                           "tool"]),
                       batch_format="pyarrow"), per_bucket)

    def partial(b: pa.Table) -> pa.Table:
        return b.group_by(["t1", "t2", "t3"]).aggregate([("n", "sum")])

    acc: dict[tuple, int] = {}
    for b in cells.map_batches(partial, batch_format="pyarrow") \
                  .iter_batches(batch_format="pyarrow"):
        for r in b.to_pylist():
            k = (r["t1"], r["t2"], r["t3"])
            acc[k] = acc.get(k, 0) + r["n_sum"]
    ks = sorted(acc)
    return pa.table({
        "t1": pa.array([k[0] for k in ks], pa.string()),
        "t2": pa.array([k[1] for k in ks], pa.string()),
        "t3": pa.array([k[2] for k in ks], pa.string()),
        "n": pa.array([acc[k] for k in ks], pa.int64()),
    })


def q_ks_lengths(sf_dir: str):
    """Two-sample Kolmogorov–Smirnov statistic between the USER and
    ASSISTANT text-length distributions — the drift/2-sample test a
    data-quality monitor runs between segments. Reported exactly: the
    integer numerator D_num = max_v |F_user(v)·n_a − F_asst(v)·n_u|
    plus its micro-rounded ratio (D_num / (n_u·n_a)).

    Scale: bounded (role, length) count histograms combine map-side;
    the driver folds only the value domain (distinct lengths), never
    rows. The int64 numerator is exact up to ~3·10⁹ rows per side
    (n_u·n_a < 2⁶³); past that the micro ratio is the scale-stable
    form. Exact SQL mirror: "ks_lengths"."""
    ds = read_transcripts(sf_dir)

    def hist(b: pa.Table) -> pa.Table:
        mask = pc.is_in(b["role"],
                        value_set=pa.array(["user", "assistant"]))
        t = b.filter(mask)
        return pa.table({
            "role": t["role"],
            "v": pc.cast(pc.utf8_length(t["text"]), pa.int64()),
            "n": pa.array(np.ones(len(t), np.int64)),
        }).group_by(["role", "v"]).aggregate([("n", "sum")])

    acc: dict[tuple[str, int], int] = {}
    for b in ds.map_batches(
            lambda t: t.select(["role", "text"]),
            batch_format="pyarrow") \
            .map_batches(hist, batch_format="pyarrow") \
            .iter_batches(batch_format="pyarrow"):
        for r in b.to_pylist():
            k = (r["role"], r["v"])
            acc[k] = acc.get(k, 0) + r["n_sum"]
    vals = sorted({v for (_r, v) in acc})
    c1 = np.array([acc.get(("user", v), 0) for v in vals], np.int64)
    c2 = np.array([acc.get(("assistant", v), 0) for v in vals],
                  np.int64)
    f1, f2 = np.cumsum(c1), np.cumsum(c2)
    n1, n2 = int(c1.sum()), int(c2.sum())
    d_num = int(np.abs(f1 * n2 - f2 * n1).max()) if vals else 0
    # half-up integer rounding — float-free, same expression as the SQL
    d_micro = (d_num * 2_000_000 + n1 * n2) // (2 * n1 * n2) \
        if n1 and n2 else 0
    return pa.table({
        "n1": pa.array([n1], pa.int64()),
        "n2": pa.array([n2], pa.int64()),
        "d_num": pa.array([d_num], pa.int64()),
        "d_micro": pa.array([d_micro], pa.int64()),
    })


def q_triangle_count(sf_dir: str):
    """Graph triangles over the tool co-occurrence graph: tools are
    nodes, an edge joins two tools whose co-occurrence count (distinct
    convs containing both) reaches the p75 of all edge weights — the
    community/motif primitive on top of the tool_cooccurrence
    market-basket table. Output: every triangle (t1 < t2 < t3).

    Scale: the edge domain is bounded (|tools|² pairs) so the pair
    counts merge map-side exactly like tool_cooccurrence; the p75
    threshold uses the shared ``_hist_quantile`` rule (≡ DuckDB
    quantile_disc) over edge WEIGHTS (≤ |tools|² values), and the
    triangle enumeration runs on the ≤ |tools|² surviving edges —
    never on rows. The relative threshold makes the op
    scale-invariant. Exact SQL mirror: "triangle_count"."""
    from ..functions.curation import _hist_quantile

    pairs = q_tool_cooccurrence(sf_dir)
    ta = pairs["tool_a"].to_pylist()
    tb = pairs["tool_b"].to_pylist()
    ns = pairs["n"].to_pylist()
    whist: dict[int, int] = {}
    for n in ns:
        whist[n] = whist.get(n, 0) + 1
    thr = _hist_quantile(whist, 0.75)
    edges = {(a, b) for a, b, n in zip(ta, tb, ns) if n >= thr}
    nbrs: dict[str, set] = {}
    for a, b in edges:
        nbrs.setdefault(a, set()).add(b)
    tris = sorted(
        (a, b, c)
        for a, b in edges
        for c in nbrs.get(b, ()) if (a, c) in edges)
    return pa.table({
        "t1": pa.array([t[0] for t in tris], pa.string()),
        "t2": pa.array([t[1] for t in tris], pa.string()),
        "t3": pa.array([t[2] for t in tris], pa.string()),
    })


def q_tool_entropy(sf_dir: str):
    """Shannon entropy of each conversation's tool-usage distribution —
    the diversity score a curation pass uses to find single-tool loops
    vs varied agent sessions. Per (conv, tool) term −p·ln p is rounded
    to int64 micro-units BEFORE the per-conv sum (order-independent,
    exact equality with the SQL mirror "tool_entropy"). Output:
    (conv_id, n_tool_turns, entropy_micro).

    Scale: map-side (conv, tool) count partials collapse the exchange,
    then ONE conv-keyed bucket exchange folds each conversation's
    bounded ≤|tools| cells."""
    from ..stages.buckets import grouped_by_bucket
    ds = read_transcripts(sf_dir)

    def pre(batch: pa.Table) -> pa.Table:
        m = pc.and_(batch["tool"].combine_chunks().is_valid(),
                    pc.not_equal(batch["tool"], ""))
        t = batch.filter(m)
        return pa.table({
            "conv_id": t["conv_id"],
            "tool": t["tool"],
            "c": pa.array(np.ones(len(t), np.int64)),
        }).group_by(["conv_id", "tool"]).aggregate([("c", "sum")])

    def per_bucket(tbl: pa.Table) -> pa.Table:
        import pandas as pd
        df = pd.DataFrame({
            "conv_id": tbl["conv_id"].to_pylist(),
            "tool": tbl["tool"].to_pylist(),
            "c": tbl["c_sum"].to_numpy(zero_copy_only=False),
        })
        g = df.groupby(["conv_id", "tool"], sort=True)["c"].sum() \
              .reset_index()
        tot = g.groupby("conv_id")["c"].transform("sum") \
               .to_numpy(np.float64)
        c = g["c"].to_numpy(np.float64)
        p = c / tot
        g["lm"] = np.rint(-p * np.log(p) * 1_000_000).astype(np.int64)
        out = g.groupby("conv_id", sort=True).agg(
            n_tool_turns=("c", "sum"), entropy_micro=("lm", "sum"))
        return pa.table({
            "conv_id": pa.array(out.index.to_numpy(dtype=object),
                                pa.string()),
            "n_tool_turns": pa.array(
                out["n_tool_turns"].to_numpy(np.int64)),
            "entropy_micro": pa.array(
                out["entropy_micro"].to_numpy(np.int64)),
        })

    proj = ds.map_batches(
        lambda b: b.select(["conv_id", "tool"]),
        batch_format="pyarrow").map_batches(pre, batch_format="pyarrow")
    return grouped_by_bucket(proj, per_bucket, coalesce=False)


def q_tool_next_accuracy(sf_dir: str):
    """Top-1 next-tool prediction accuracy of the global bigram tool
    model: for each from-tool, the predicted next tool is the argmax
    transition count (ties → lexicographically smallest), and the
    accuracy is how often that prediction matches the actual next tool
    — the self-evaluation a tool-routing model gets from transcripts.
    Output: (from_tool, predicted, n_total, n_correct, acc_micro) with
    float-free half-up micro rounding.

    Scale: consecutive tool-turn bigram counts through ONE conv-keyed
    bucket exchange (bounded |tools|² domain merged map-side, exactly
    the frequent_sequences shape); the argmax/accuracy fold touches
    only the tiny count table. Exact SQL mirror:
    "tool_next_accuracy"."""
    from collections import Counter

    from ..stages.buckets import grouped_by_bucket
    ds = read_transcripts(sf_dir)

    def per_bucket(batch: pa.Table) -> pa.Table:
        mask = pc.and_(batch["tool"].combine_chunks().is_valid(),
                       pc.not_equal(batch["tool"], ""))
        b = batch.filter(mask)
        conv = np.asarray(b["conv_id"].to_pylist(), dtype=object)
        turn = b["turn_idx"].to_numpy(zero_copy_only=False)
        tools = np.asarray(b["tool"].to_pylist(), dtype=object)
        order = np.lexsort((turn, conv))
        conv_s, tools_s = conv[order], tools[order]
        same = conv_s[1:] == conv_s[:-1]
        c = Counter(zip(tools_s[:-1][same], tools_s[1:][same]))
        ks = sorted(c)
        return pa.table({
            "f": pa.array([k[0] for k in ks], pa.string()),
            "t": pa.array([k[1] for k in ks], pa.string()),
            "n": pa.array([c[k] for k in ks], pa.int64()),
        })

    cells = grouped_by_bucket(
        ds.map_batches(lambda b: b.select(["conv_id", "turn_idx",
                                           "tool"]),
                       batch_format="pyarrow"), per_bucket)
    acc: dict[tuple, int] = {}
    for b in cells.map_batches(
            lambda t: t.group_by(["f", "t"]).aggregate([("n", "sum")]),
            batch_format="pyarrow").iter_batches(batch_format="pyarrow"):
        for r in b.to_pylist():
            k = (r["f"], r["t"])
            acc[k] = acc.get(k, 0) + r["n_sum"]
    by_f: dict[str, dict[str, int]] = {}
    for (f, t), n in acc.items():
        by_f.setdefault(f, {})[t] = n
    fs, preds, tots, cors, accs = [], [], [], [], []
    for f in sorted(by_f):
        d = by_f[f]
        # argmax count, ties → lexicographically smallest tool
        pred = min(d, key=lambda t: (-d[t], t))
        tot = sum(d.values())
        cor = d[pred]
        fs.append(f)
        preds.append(pred)
        tots.append(tot)
        cors.append(cor)
        accs.append((cor * 2_000_000 + tot) // (2 * tot))
    return pa.table({
        "from_tool": pa.array(fs, pa.string()),
        "predicted": pa.array(preds, pa.string()),
        "n_total": pa.array(tots, pa.int64()),
        "n_correct": pa.array(cors, pa.int64()),
        "acc_micro": pa.array(accs, pa.int64()),
    })


def q_response_ratio(sf_dir: str):
    """Assistant-to-user verbosity ratio per conversation: total
    assistant chars over total user chars (half-up micro units) — the
    imbalance screen a transcript-curation pass runs before packing.
    Convs lacking either role are omitted (undefined ratio). Output:
    (conv_id, user_chars, asst_chars, ratio_micro).

    Scale: map-side per-(conv, role) char-sum partials, ONE conv-keyed
    bucket exchange folding ≤2 cells per conversation. Exact SQL
    mirror: "response_ratio"."""
    from ..stages.buckets import grouped_by_bucket
    ds = read_transcripts(sf_dir)

    def pre(batch: pa.Table) -> pa.Table:
        m = pc.is_in(batch["role"],
                     value_set=pa.array(["user", "assistant"]))
        t = batch.filter(m)
        return pa.table({
            "conv_id": t["conv_id"],
            "role": t["role"],
            "ch": pc.cast(pc.utf8_length(t["text"]), pa.int64()),
        }).group_by(["conv_id", "role"]).aggregate([("ch", "sum")])

    def per_bucket(tbl: pa.Table) -> pa.Table:
        import pandas as pd
        df = pd.DataFrame({
            "conv_id": tbl["conv_id"].to_pylist(),
            "role": tbl["role"].to_pylist(),
            "ch": tbl["ch_sum"].to_numpy(zero_copy_only=False),
        })
        p = df.pivot_table(index="conv_id", columns="role",
                           values="ch", aggfunc="sum")
        if "user" not in p or "assistant" not in p:
            return pa.table({
                "conv_id": pa.array([], pa.string()),
                "user_chars": pa.array([], pa.int64()),
                "asst_chars": pa.array([], pa.int64()),
                "ratio_micro": pa.array([], pa.int64()),
            })
        p = p.dropna(subset=["user", "assistant"])
        p = p[p["user"] > 0]
        u = p["user"].to_numpy(np.int64)
        a = p["assistant"].to_numpy(np.int64)
        ratio = (a * 2_000_000 + u) // (2 * u)
        return pa.table({
            "conv_id": pa.array(p.index.tolist(), pa.string()),
            "user_chars": pa.array(u, pa.int64()),
            "asst_chars": pa.array(a, pa.int64()),
            "ratio_micro": pa.array(ratio, pa.int64()),
        })

    proj = ds.map_batches(
        lambda b: b.select(["conv_id", "role", "text"]),
        batch_format="pyarrow").map_batches(pre, batch_format="pyarrow")
    return grouped_by_bucket(proj, per_bucket, coalesce=False)


def q_sft_pairs(sf_dir: str):
    """SFT training-pair extraction: every (user turn → immediately
    following assistant turn) within a conversation becomes a
    (prompt, response) example — THE conversion step from raw agent
    transcripts to supervised fine-tuning data. Adjacency is sequence
    order (next row by turn_idx), matching LEAD() OVER (PARTITION BY
    conv ORDER BY turn). Output: (conv_id, turn_idx, prompt, response).

    Scale: ONE conv-keyed bucket exchange of the 4-column projection;
    in-bucket adjacency is a vectorized boundary-masked shift, no
    per-row Python. Exact SQL mirror: "sft_pairs"."""
    from ..stages.buckets import grouped_by_bucket
    ds = read_transcripts(sf_dir)

    def per_bucket(batch: pa.Table) -> pa.Table:
        conv = np.asarray(batch["conv_id"].to_pylist(), dtype=object)
        turn = batch["turn_idx"].to_numpy(zero_copy_only=False)
        roles = np.asarray(batch["role"].to_pylist(), dtype=object)
        texts = np.asarray(batch["text"].to_pylist(), dtype=object)
        order = np.lexsort((turn, conv))
        conv_s = conv[order]
        turn_s = turn[order]
        roles_s = roles[order]
        texts_s = texts[order]
        same = conv_s[1:] == conv_s[:-1]
        m = same & (roles_s[:-1] == "user") \
            & (roles_s[1:] == "assistant")
        return pa.table({
            "conv_id": pa.array(conv_s[:-1][m].tolist(), pa.string()),
            "turn_idx": pa.array(turn_s[:-1][m], pa.int32()),
            "prompt": pa.array(texts_s[:-1][m].tolist(), pa.string()),
            "response": pa.array(texts_s[1:][m].tolist(), pa.string()),
        })

    proj = ds.map_batches(
        lambda b: b.select(["conv_id", "turn_idx", "role", "text"]),
        batch_format="pyarrow")
    return grouped_by_bucket(proj, per_bucket)
