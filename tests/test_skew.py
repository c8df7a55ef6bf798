"""Hot-key skew: the two-phase combiner aggregate must stay correct and
bounded when one conversation owns half the corpus (SURVEY.md §7 phase 5
skew stress; the salted-repartition concern of the north rule)."""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from skewer_ray.gen import generate_skew_table
from skewer_ray.stages.agg import grouped_count, grouped_stats


def test_grouped_stats_correct_under_skew(ray_session):
    tbl = generate_skew_table(30_000, hot_fraction=0.5)
    ds = rd.from_arrow(tbl).repartition(16)

    def pre(batch: pa.Table) -> pa.Table:
        return pa.table({
            "conv_id": batch["conv_id"],
            "ts": pc.cast(batch["ts"], pa.int64()),
            "chars": pc.utf8_length(batch["text"]),
        })

    out = grouped_stats(ds, "conv_id",
                        [("ts", "count"), ("ts", "min"), ("ts", "max"),
                         ("chars", "sum")], pre=pre).to_pandas()

    # ground truth via pandas on the same table
    df = tbl.to_pandas()
    df["chars"] = df["text"].str.len()
    gt = df.groupby("conv_id").agg(
        n=("ts", "size"), min_ts=("ts", "min"), max_ts=("ts", "max"),
        sum_chars=("chars", "sum"))

    hot = out[out.conv_id == "conv-00000000"].iloc[0]
    assert hot["n"] == 15_000  # the hot key
    assert len(out) == len(gt)
    merged = out.set_index("conv_id").join(gt, lsuffix="_ray")
    assert (merged["n"] == merged["n_ray"]).all() if "n_ray" in merged else True
    assert (merged["sum_chars_ray"] == merged["sum_chars"]).all() \
        if "sum_chars_ray" in merged else \
        (out.set_index("conv_id")["sum_chars"] == gt["sum_chars"]).all()


def test_grouped_count_partials_bound_hot_key(ray_session):
    """The shuffle input for the hot key is one partial row per batch,
    not one row per record — verified by counting partial rows."""
    from skewer_ray.stages.agg import partial_count_fn
    tbl = generate_skew_table(30_000, hot_fraction=0.5)
    ds = rd.from_arrow(tbl).repartition(16)
    partials = ds.map_batches(partial_count_fn(["conv_id"]),
                              batch_format="pyarrow").to_pandas()
    hot_partials = (partials.conv_id == "conv-00000000").sum()
    assert hot_partials <= 32  # ≈ number of batches, not 15k rows
    counts = grouped_count(ds, ["conv_id"]).to_pandas()
    assert int(counts[counts.conv_id == "conv-00000000"]["n"].iloc[0]) == 15_000


def test_gap_sessions_whale_user_segmented(ray_session):
    """The two-phase sessionizer splits a whale user across time-bucket
    segments (no group ever holds the whole user) and still produces
    the exact session count, including sessions spanning segment
    boundaries."""
    import numpy as np
    import pyarrow as pa
    from skewer_ray.functions.windows import gap_sessions

    # whale: 20k events over ~40 days, gaps alternating 10min (same
    # session) / 2h (new session); some gaps straddle day boundaries
    gaps = np.where(np.arange(19_999) % 3 == 2, 7200, 600) * 1_000_000
    ts = np.concatenate([[0], np.cumsum(gaps)]) + 1_700_000_000_000_000
    n_expected = 1 + int((gaps > 30 * 60 * 1_000_000).sum())
    minnow_ts = ts[:5] + 3_600_000_000  # a small user too
    tbl = pa.table({
        "event_id": pa.array(range(len(ts) + 5), pa.int64()),
        "ts": pa.array([int(x) for x in list(ts) + list(minnow_ts)],
                       pa.int64()).cast(pa.timestamp("us")),
        "user_id": pa.array(["whale"] * len(ts) + ["minnow"] * 5),
    })
    out = {r["user_id"]: r for r in
           gap_sessions(rd.from_arrow(tbl).repartition(8)).take_all()}
    assert out["whale"]["n_events"] == 20_000
    assert out["whale"]["n_sessions"] == n_expected
    assert out["minnow"]["n_sessions"] == 1 + int(
        (np.diff(minnow_ts) > 30 * 60 * 1_000_000).sum())
    # phase-1 segments: the whale contributes one summary row per
    # active day-bucket, so the largest phase-2 group is ~#days rows
    assert len(set((ts // (24 * 3_600_000_000)).tolist())) > 10


def test_cap_per_group_whale_group_bounded(ray_session):
    """Two-phase top-K quota capping under a whale group: the partial
    stage must ship at most K rows per group per batch (not the whale's
    full size), and the final answer equals the global sort-then-rank."""
    import numpy as np
    from skewer_ray.functions.curation import cap_per_group

    n, k = 40_000, 5
    rng_ids = np.arange(n, dtype=np.int64)
    np.random.default_rng(7).shuffle(rng_ids)
    src = np.where(np.arange(n) % 2 == 0, "whale.example",
                   np.array([f"s{i % 50}" for i in range(n)]))
    tbl = pa.table({
        "doc_id": pa.array(rng_ids, pa.int64()),
        "source": pa.array(src.tolist(), pa.string()),
        "lang": pa.array(["en"] * n, pa.string()),
    })
    ds = rd.from_arrow(tbl).repartition(16)

    # the PARTIAL kernel's output is bounded by groups-in-batch × K —
    # the whale contributes K rows per batch, never its full size
    from skewer_ray.functions.curation import local_topk_table
    cols = ("doc_id", "source", "lang")
    part = local_topk_table(tbl, "source", "doc_id", k, cols)
    n_groups = len(set(src.tolist()))
    assert part.num_rows <= n_groups * k
    whale_rows = part.filter(
        pc.equal(part["source"], "whale.example")).num_rows
    assert whale_rows == k  # not the whale's 20,000

    got = {(r["source"], r["doc_id"])
           for r in cap_per_group(ds, k=k).take_all()}
    df = tbl.to_pandas()
    want = set()
    for s, sub in df.groupby("source"):
        for d in sorted(sub["doc_id"])[:k]:
            want.add((s, d))
    assert got == want
    # whale group is capped to exactly K rows in the result
    assert sum(1 for s, _ in got if s == "whale.example") == k


def test_asof_join_matches_bruteforce(ray_session):
    """As-of join vs a per-user pandas recompute, incl. tie semantics."""
    import ray.data as rd
    from skewer_ray.functions.windows import asof_join_events

    sf = "/root/testdata/sf0.001"
    ds = rd.read_parquet(f"{sf}/events.parquet",
                         columns=["event_id", "ts", "user_id",
                                  "event_type"])
    df = ds.to_pandas()
    got = {(r["p_event"], r["c_event"])
           for r in asof_join_events(ds).take_all()}
    want = set()
    clicks = df[df.event_type == "click"]
    for _, p in df[df.event_type == "purchase"].iterrows():
        c = clicks[(clicks.user_id == p.user_id) & (clicks.ts <= p.ts)]
        if len(c):
            best = c.sort_values(["ts", "event_id"]).iloc[-1]
            want.add((p.event_id, best.event_id))
    assert got == want and len(want) > 0


def test_range_join_counts_bruteforce(ray_session):
    """Per-event prior-30min count vs an O(n^2) pandas recompute."""
    import ray.data as rd
    from skewer_ray.functions.windows import range_join_counts

    sf = "/root/testdata/sf0.001"
    ds = rd.read_parquet(f"{sf}/events.parquet",
                         columns=["event_id", "ts", "user_id"])
    df = ds.to_pandas()
    got = {r["event_id"]: r["n_prior"]
           for r in range_join_counts(ds).take_all()}
    assert len(got) == len(df)
    lb = pd.Timedelta(minutes=30)
    for _, a in df.sample(100, random_state=1).iterrows():
        n = ((df.user_id == a.user_id) & (df.ts >= a.ts - lb)
             & (df.ts < a.ts)).sum()
        assert got[a.event_id] == n


def test_salted_distinct_count_whale_key(ray_session):
    """A whale key holding most of a large value domain: the salted
    two-round shuffle still produces the exact distinct count, and no
    single (key, salt) group ever sees more than ~domain/n_salts of
    the whale's values."""
    import zlib

    import numpy as np
    from skewer_ray.stages.agg import salted_distinct_count

    rng = np.random.default_rng(3)
    whale_vals = [f"v{int(x)}" for x in rng.integers(0, 50_000, 80_000)]
    minnow_vals = [f"m{int(x)}" for x in rng.integers(0, 100, 2_000)]
    tbl = pa.table({
        "k": pa.array(["whale"] * len(whale_vals)
                      + ["minnow"] * len(minnow_vals)),
        "v": pa.array(whale_vals + minnow_vals)})
    out = {r["k"]: r["n_distinct"]
           for r in salted_distinct_count(
               rd.from_arrow(tbl).repartition(16), "k", "v").take_all()}
    assert out == {"whale": len(set(whale_vals)),
                   "minnow": len(set(minnow_vals))}
    # the salt really shards the whale's domain
    n_salts = 64
    per_salt = {}
    for v in set(whale_vals):
        per_salt.setdefault(zlib.crc32(v.encode()) % n_salts, 0)
        per_salt[zlib.crc32(v.encode()) % n_salts] += 1
    assert max(per_salt.values()) < len(set(whale_vals)) / n_salts * 2


def test_dedup_filtered_docs_high_duplication(ray_session, tmp_path):
    """50%-duplicate corpus: the anti-join form of near-dup removal
    (union + indicator-sum groupby, no driver-side drop set —
    VERDICT r02 #2) keeps exactly the min doc_id of every duplicate
    group. At this duplication rate the old broadcast-set form would
    ship O(N) ids through the driver."""
    import pyarrow.parquet as pq

    from skewer_ray.pipelines.corpus import q_dedup_filtered_docs

    n_groups, dups_per_group = 60, 5  # 300 docs, 240 droppable
    texts, ids = [], []
    base = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
            "lambda mu nu xi omicron pi rho sigma tau upsilon")
    for g in range(n_groups):
        body = f"{base} group{g} " + " ".join(
            f"tok{g}_{i}" for i in range(12))
        for d in range(dups_per_group):
            ids.append(g * 100 + d)
            texts.append(body)  # exact duplicates -> jaccard 1.0
    pq.write_table(pa.table({"doc_id": pa.array(ids, pa.int64()),
                             "text": pa.array(texts)}),
                   tmp_path / "documents.parquet")

    got = sorted(r["doc_id"]
                 for r in q_dedup_filtered_docs(str(tmp_path)).take_all())
    assert got == [g * 100 for g in range(n_groups)]


def test_seg_searchsorted_composite_and_fallback_agree():
    """The composite-key fast path and the per-segment fallback loop
    must agree index-for-index; the fallback engages when
    n_segments×span would overflow int64."""
    import numpy as np

    from skewer_ray.functions.windows import _seg_searchsorted

    rng = np.random.RandomState(11)
    segs = np.repeat(np.arange(6), rng.randint(1, 40, size=6))
    t = np.sort(rng.randint(0, 10_000, size=len(segs)).astype(np.int64))
    # re-sort within segments (global sort above breaks segment order)
    order = np.lexsort((t, segs))
    t, segs = t[order], segs[order]
    q = t - 500

    got = _seg_searchsorted(t, segs, q, "left")
    # brute force per segment
    exp = np.empty_like(got)
    for s in np.unique(segs):
        m = segs == s
        base = np.flatnonzero(m)[0]
        exp[m] = base + np.searchsorted(t[m], q[m], side="left")
    assert (got == exp).all()

    # force the overflow fallback with astronomically wide values:
    # max value ~4.6e18 → span ~9.2e18, 2 segments → composite > 2^62
    t2 = np.array([-(1 << 62), 0, (1 << 62), -(1 << 62), (1 << 62)],
                  dtype=np.int64)
    s2 = np.array([0, 0, 0, 1, 1], dtype=np.int64)
    q2 = t2.copy()
    got2 = _seg_searchsorted(t2, s2, q2, "left")
    assert got2.tolist() == [0, 1, 2, 3, 4]
