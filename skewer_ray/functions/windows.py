"""Windowed / session operators over event streams — custom operators the
reference lacks (SURVEY.md §2.7), expressed as Ray Data compositions:

- tumbling window = derived window-start key + map-side-combine groupby
  (no shuffle beyond tiny partials);
- gap sessionization = groupby(entity).map_groups over the sorted group
  (the one genuinely order-dependent aggregate; partition key = entity,
  which is the documented co-location assumption).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.agg import grouped_stats
from ..stages.buckets import run_starts

HOUR_US = 3_600_000_000
SESSION_GAP_US = 30 * 60 * 1_000_000  # 30 min
HOP_US = HOUR_US // 2                 # hopping-window step


def tumbling_counts(events_ds):
    """(window_start, event_type, n, sum_value): tumbling-window counts.
    The window start is a derived column, so this is an ordinary
    combiner groupby — the streaming-window shuffle collapses to
    partial rows."""

    def pre(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch["ts"], pa.int64())
        win = pc.multiply(pc.divide(ts, HOUR_US), HOUR_US)
        return pa.table({
            "window_start": pc.cast(win, pa.timestamp("us")),
            "event_type": batch["event_type"],
            "value": batch["value"],
        })

    # window-count cardinality is bounded (time-range / window size), so
    # the final combine happens driver-side — no Ray Aggregate operator
    out = grouped_stats(events_ds, ["window_start", "event_type"],
                        [("value", "count"), ("value", "sum")], pre=pre,
                        combine="driver")
    return pa.table({
        "window_start": out["window_start"],
        "event_type": out["event_type"],
        "n": out["n"],
        "sum_value": pc.round(out["sum_value"], 6),
    })


def hopping_counts(events_ds):
    """(window_start, event_type, n, sum_value): HOPPING (sliding)
    windows — each event lands in ``HOUR_US / HOP_US`` overlapping
    windows. The flat_map-style replication happens inside the same
    combiner pre-transform (rows × overlap factor, then immediate
    partial aggregation), so the shuffle still only carries partial
    rows. Window starts are hop-aligned."""
    overlap = HOUR_US // HOP_US

    def pre(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        # first hop-aligned window containing ts: floor(ts/hop)*hop -
        # (overlap-1) hops ... floor(ts/hop)*hop
        base = (ts // HOP_US) * HOP_US
        n = len(ts)
        k = np.arange(overlap, dtype=np.int64)
        starts = (base[:, None] - (overlap - 1 - k)[None, :] * HOP_US)
        starts = starts.reshape(-1)
        take = pa.array(np.repeat(np.arange(n, dtype=np.int64), overlap))
        return pa.table({
            "window_start": pa.array(starts).cast(pa.timestamp("us")),
            "event_type": pc.take(batch["event_type"], take),
            "value": pc.take(batch["value"], take),
        })

    out = grouped_stats(events_ds, ["window_start", "event_type"],
                        [("value", "count"), ("value", "sum")], pre=pre,
                        combine="driver")
    return pa.table({
        "window_start": out["window_start"],
        "event_type": out["event_type"],
        "n": out["n"],
        "sum_value": pc.round(out["sum_value"], 6),
    })


SESSION_BUCKET_US = 24 * 3_600_000_000  # segment width for the two-phase form
assert SESSION_BUCKET_US >= SESSION_GAP_US  # gap_sessions is exact only then


def gap_sessions(events_ds):
    """(user_id, n_sessions, n_events): gap-based sessionization, WHALE-
    SAFE two-phase form (segmented scan):

    phase 1 — groupby (user_id, time-bucket): per segment, sort the
    segment's events and compute (session count, min ts, max ts,
    n events). A user owning half the corpus now splits across many
    segments, so no single group must hold the whole user.

    phase 2 — groupby user_id over the per-segment SUMMARIES (tiny:
    one row per user per active segment): walk segments in time order
    and subtract one session per adjacent pair whose boundary gap is
    ≤ SESSION_GAP_US (sessions are additive across segments except at merged
    boundaries — exact, because events never cross segment boundaries
    out of order).

    Requires SESSION_BUCKET_US ≥ SESSION_GAP_US so a session can only
    span ADJACENT segments.

    Both phases group by a crc32 hash BUCKET of their key
    (stages/buckets) so one vectorized UDF call processes hundreds of
    segments/users — the per-group Python overhead of plain
    groupby().map_groups was the measured wall-time sink (13.7 s → ~2 s
    at sf0.1). A whale user still splits across phase-1 segments: the
    crc bucket hashes (user, time-bucket), not the user alone."""
    from ..stages.buckets import grouped_by_bucket, run_starts

    def add_bucket(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch["ts"], pa.int64())
        return batch.append_column(
            "seg", pc.cast(pc.divide(ts, SESSION_BUCKET_US), pa.int64()))

    def segment_summaries(batch: pa.Table) -> pa.Table:
        # many (user, seg) segments per call, fully vectorized
        user = batch["user_id"].to_numpy(zero_copy_only=False)
        seg = batch["seg"].to_numpy(zero_copy_only=False)
        ts = pc.cast(batch["ts"], pa.int64()).to_numpy(
            zero_copy_only=False)
        eid = pc.cast(batch["event_id"], pa.int64()).to_numpy(
            zero_copy_only=False)
        order = np.lexsort((eid, ts, seg, user))
        user_s, seg_s, ts_s = user[order], seg[order], ts[order]
        new_seg = np.ones(len(order), dtype=bool)
        if len(order) > 1:
            new_seg[1:] = (user_s[1:] != user_s[:-1]) | \
                          (seg_s[1:] != seg_s[:-1])
        starts = np.flatnonzero(new_seg)
        ends = np.append(starts[1:], len(order))
        breaks = np.zeros(len(order), dtype=bool)
        if len(order) > 1:
            breaks[1:] = (np.diff(ts_s) > SESSION_GAP_US) & ~new_seg[1:]
        cum = np.cumsum(breaks)
        n_sessions = 1 + cum[ends - 1] - cum[starts]
        return pa.table({
            "user_id": pc.take(batch["user_id"],
                               pa.array(order[starts], pa.int64())),
            "seg": pa.array(seg_s[starts], pa.int64()),
            "n_sessions": pa.array(n_sessions, pa.int64()),
            "first_ts": pa.array(ts_s[starts], pa.int64()),
            "last_ts": pa.array(ts_s[ends - 1], pa.int64()),
            "n_events": pa.array(ends - starts, pa.int64()),
        })

    summaries = grouped_by_bucket(
        events_ds.map_batches(add_bucket, batch_format="pyarrow"),
        segment_summaries, key=["user_id", "seg"])

    def merge_users(batch: pa.Table) -> pa.Table:
        # many users per call; segments walked in (user, seg) order
        user = batch["user_id"].to_numpy(zero_copy_only=False)
        seg = batch["seg"].to_numpy(zero_copy_only=False)
        ns = batch["n_sessions"].to_numpy(zero_copy_only=False)
        first = batch["first_ts"].to_numpy(zero_copy_only=False)
        last = batch["last_ts"].to_numpy(zero_copy_only=False)
        nev = batch["n_events"].to_numpy(zero_copy_only=False)
        order = np.lexsort((seg, user))
        user_s = user[order]
        starts = run_starts(user_s)
        sidx = np.flatnonzero(starts)
        eidx = np.append(sidx[1:], len(user_s))
        merged = np.zeros(len(user_s), dtype=bool)
        if len(user_s) > 1:
            merged[1:] = ~starts[1:] & \
                (first[order][1:] - last[order][:-1] <= SESSION_GAP_US)
        cum_ns = np.concatenate(([0], np.cumsum(ns[order])))
        cum_m = np.concatenate(([0], np.cumsum(merged)))
        cum_ev = np.concatenate(([0], np.cumsum(nev[order])))
        total = (cum_ns[eidx] - cum_ns[sidx]) - (cum_m[eidx] - cum_m[sidx])
        return pa.table({
            "user_id": pc.take(batch["user_id"],
                               pa.array(order[sidx], pa.int64())),
            "n_sessions": pa.array(total, pa.int64()),
            "n_events": pa.array(cum_ev[eidx] - cum_ev[sidx], pa.int64()),
        })

    return grouped_by_bucket(summaries, merge_users, key="user_id",
                             coalesce=False)


def asof_join_events(events_ds):
    """As-of join (an operator Ray Data lacks natively): for every
    purchase event, the most recent click event of the
    SAME user with ``r.ts <= l.ts`` — ties on ts broken by the larger
    event_id. Inner semantics: lefts with no prior right are dropped.

    Shape: pre-filter both sides to the two types (column- and
    row-pruned), shuffle ONCE keyed by a crc bucket of user_id
    (stages/buckets: ~100s of users per vectorized UDF call instead of
    one Ray dispatch per user), then a segmented forward-fill over the
    (user, ts, kind, id)-sorted rows: at equal ts the right side sorts
    first, so it is visible to the left row. Partitioning assumption:
    one user's filtered events fit a bucket — the same premise as the
    pre-segmented sessionizer; a whale user would need the
    gap_sessions-style two-phase split.

    Output: (p_event, user_id, p_ts, c_event, c_ts).
    """
    from ..stages.buckets import grouped_by_bucket, run_starts

    def pre(batch: pa.Table) -> pa.Table:
        keep = pc.is_in(batch["event_type"],
                        value_set=pa.array(["purchase", "click"]))
        b = batch.filter(keep)
        return pa.table({
            "user_id": b["user_id"],
            "event_id": b["event_id"],
            "ts": b["ts"],
            "is_left": pc.equal(b["event_type"], "purchase"),
        })

    def sweep(tbl: pa.Table) -> pa.Table:
        # many users per call: per user segment, the "last right seen"
        # of the old per-user loop is a segmented running max over
        # right-row positions (rights encoded sid*n+pos so the fill
        # can't leak across users; lefts carry -1)
        user = pc.cast(tbl["user_id"], pa.int64()).to_numpy(
            zero_copy_only=False)
        ts = pc.cast(tbl["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        eid = pc.cast(tbl["event_id"], pa.int64()).to_numpy(
            zero_copy_only=False)
        is_l = tbl["is_left"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, is_l, ts, user))
        u, t, e, lft = user[order], ts[order], eid[order], is_l[order]
        n = len(order)
        sid = np.cumsum(run_starts(u)) - 1
        pos = np.arange(n, dtype=np.int64)
        key = np.where(~lft, sid * n + pos, np.int64(-1))
        acc = np.maximum.accumulate(key)
        valid = lft & (acc >= 0)
        valid[valid] &= (acc[valid] // n) == sid[valid]
        keep = np.flatnonzero(valid)
        r = acc[keep] % n
        return pa.table({
            "p_event": pa.array(e[keep], pa.int64()),
            "user_id": pa.array(u[keep], pa.int64()),
            "p_ts": pa.array(t[keep], pa.int64()).cast(pa.timestamp("us")),
            "c_event": pa.array(e[r], pa.int64()),
            "c_ts": pa.array(t[r], pa.int64()).cast(pa.timestamp("us")),
        })

    pruned = events_ds.map_batches(pre, batch_format="pyarrow")
    return grouped_by_bucket(pruned, sweep, key="user_id")


def burst_events(events_ds):
    """Burst / velocity alerting (the CEP threshold rule every abuse
    pipeline runs): events preceded by ≥ 3 same-user events in the
    6-hour lookback window. A filter composed over ``range_join_counts`` —
    the shuffle and sweep are shared, the threshold is a vectorized
    post-filter."""
    counts = range_join_counts(events_ds, lookback_us=6 * HOUR_US)

    def keep(b: pa.Table) -> pa.Table:
        return b.filter(pc.greater_equal(b["n_prior"], 3))

    return counts.map_batches(keep, batch_format="pyarrow")


def funnel_conversions(events_ds):
    """Funnel step: per user, how many purchase events had a
    click event at-or-before them within the hour
    (conversion), plus the total. ONE user-BUCKET-keyed shuffle
    (stages/buckets — one vectorized call per ~100s of users, not one
    Ray dispatch per user); inside the call a segmented forward-fill
    over the (user, ts, kind)-sorted rows finds the latest
    at-or-before first-step event per conversion candidate, then
    per-user segmented sums. Output: (user_id, n_then, n_converted)."""
    from ..stages.buckets import grouped_by_bucket, run_starts

    def pre(batch: pa.Table) -> pa.Table:
        keep = pc.is_in(batch["event_type"],
                        value_set=pa.array(["click", "purchase"]))
        b = batch.filter(keep)
        return pa.table({
            "user_id": b["user_id"],
            "ts": b["ts"],
            "is_then": pc.equal(b["event_type"], "purchase"),
        })

    def sweep(tbl: pa.Table) -> pa.Table:
        user = pc.cast(tbl["user_id"], pa.int64()).to_numpy(
            zero_copy_only=False)
        ts = pc.cast(tbl["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        is_t = tbl["is_then"].to_numpy(zero_copy_only=False)
        order = np.lexsort((is_t, ts, user))  # firsts before thens at ==ts
        u, t, it = user[order], ts[order], is_t[order]
        n = len(order)
        starts = run_starts(u)
        sid = np.cumsum(starts) - 1
        pos = np.arange(n, dtype=np.int64)
        # latest first-step at-or-before: segmented running max over
        # first-row positions (same encoding as asof_join_events)
        key = np.where(~it, sid * n + pos, np.int64(-1))
        acc = np.maximum.accumulate(key)
        ok = it & (acc >= 0)
        ok[ok] &= (acc[ok] // n) == sid[ok]
        conv = np.zeros(n, dtype=np.int64)
        hit = np.flatnonzero(ok)
        conv[hit] = (t[hit] - t[acc[hit] % n] <= HOUR_US).astype(np.int64)
        sidx = np.flatnonzero(starts)
        eidx = np.append(sidx[1:], n)
        cum_t = np.concatenate(([0], np.cumsum(it.astype(np.int64))))
        cum_c = np.concatenate(([0], np.cumsum(conv)))
        return pa.table({
            "user_id": pc.take(tbl["user_id"],
                               pa.array(order[sidx], pa.int64())),
            "n_then": pa.array(cum_t[eidx] - cum_t[sidx], pa.int64()),
            "n_converted": pa.array(cum_c[eidx] - cum_c[sidx], pa.int64()),
        })

    pruned = events_ds.map_batches(pre, batch_format="pyarrow")
    out = grouped_by_bucket(pruned, sweep, key="user_id")

    def nonzero(b: pa.Table) -> pa.Table:
        return b.filter(pc.greater(b["n_then"], 0))

    return out.map_batches(nonzero, batch_format="pyarrow")


def running_totals(events_ds):
    """SQL window functions (SUM/LAG OVER (PARTITION BY user ORDER BY
    ts)) as a Ray Data composition: ONE user-BUCKET-keyed shuffle
    (stages/buckets), then a vectorized SEGMENTED cumulative sum over
    the (user, ts, event_id)-sorted events — one UDF call covers ~100s
    of users, with per-user bases subtracted via repeat (sign-safe, no
    per-user Ray dispatch). Value sums are integer cents (exact 2-dp
    readings), so the running total is bit-exact vs any SQL engine —
    no float-order drift.

    Output per event: (event_id, user_id, ts, run_sum [cumulative value
    incl. this event], prev_event [-1 for the first], prev_gap_us [-1
    for the first]). Whale-user caveat as asof_join_events.
    """
    from ..stages.buckets import grouped_by_bucket, run_starts

    def sweep(tbl: pa.Table) -> pa.Table:
        user = pc.cast(tbl["user_id"], pa.int64()).to_numpy(
            zero_copy_only=False)
        ts = pc.cast(tbl["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        eid = pc.cast(tbl["event_id"], pa.int64()).to_numpy(
            zero_copy_only=False)
        cents = pc.cast(pc.round(pc.multiply(tbl["value"], 100)),
                        pa.int64()).to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, user))
        u, ts_s, eid_s = user[order], ts[order], eid[order]
        n = len(order)
        starts = run_starts(u)
        sidx = np.flatnonzero(starts)
        counts = np.diff(np.append(sidx, n))
        cs = np.cumsum(cents[order])
        base = np.repeat(cs[sidx] - cents[order][sidx], counts)
        run = cs - base
        prev_ev = np.empty_like(eid_s)
        prev_ev[0], prev_ev[1:] = -1, eid_s[:-1]
        prev_ev[sidx] = -1
        gap = np.empty_like(ts_s)
        gap[0], gap[1:] = -1, ts_s[1:] - ts_s[:-1]
        gap[sidx] = -1
        return pa.table({
            "event_id": pa.array(eid_s, pa.int64()),
            "user_id": pa.array(u, pa.int64()),
            "ts": pa.array(ts_s, pa.int64()).cast(pa.timestamp("us")),
            "run_sum": pa.array(np.round(run / 100.0, 6), pa.float64()),
            "prev_event": pa.array(prev_ev, pa.int64()),
            "prev_gap_us": pa.array(gap, pa.int64()),
        })

    pruned = events_ds.map_batches(
        lambda b: b.select(["event_id", "ts", "user_id", "value"]),
        batch_format="pyarrow")
    return grouped_by_bucket(pruned, sweep, key="user_id")


TOP_N = 3


def topn_per_group(events_ds):
    """ROW_NUMBER() ≤ n (TOP_N) per group without a global sort: two-phase
    top-N. Phase 1 (map-side): each batch emits at most n candidate
    rows per event_type (value desc, event_id asc). Phase 2 (driver):
    merge the ≤ types×n×batches candidates and assign ranks. The
    exchange is bounded by groups×n per batch, independent of rows.

    Output: (event_type, rank, event_id, value).
    """

    def partial(b: pa.Table) -> pa.Table:
        et = b["event_type"].to_numpy(zero_copy_only=False)
        val = b["value"].to_numpy(zero_copy_only=False)
        eid = b["event_id"].to_numpy(zero_copy_only=False)
        keep = []
        for t in np.unique(et):
            idx = np.nonzero(et == t)[0]
            order = np.lexsort((eid[idx], -val[idx]))[:TOP_N]
            keep.extend(idx[order])
        k = pa.array(sorted(keep), pa.int64())
        return b.select(["event_type", "event_id", "value"]).take(k)

    cand: dict[str, list] = {}
    for b in events_ds.map_batches(partial, batch_format="pyarrow") \
                      .iter_batches(batch_format="pyarrow"):
        for r in b.to_pylist():
            cand.setdefault(r["event_type"], []).append(
                (-r["value"], r["event_id"]))
    rows = []
    for t in sorted(cand):
        for rank, (nv, eid) in enumerate(sorted(cand[t])[:TOP_N], start=1):
            rows.append((t, rank, eid, -nv))
    return pa.table({
        "event_type": pa.array([r[0] for r in rows], pa.string()),
        "rank": pa.array([r[1] for r in rows], pa.int64()),
        "event_id": pa.array([r[2] for r in rows], pa.int64()),
        "value": pa.array([round(r[3], 6) for r in rows], pa.float64()),
    })


EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


def pivot_counts(events_ds):
    """PIVOT: one row per user with a count column per event type plus
    an exact integer-cents value total. The pivoted column set is the
    (fixed, documented) event-type domain; the per-user combine is the
    standard skew-safe map-side-partial + keyed-groupby shape, so the
    exchange carries one partial row per (user, batch).

    Returns a Dataset (users scale with the data — never driver-merged).
    """

    def pre(batch: pa.Table) -> pa.Table:
        cols = {"user_id": batch["user_id"]}
        for t in EVENT_TYPES:
            cols[f"n_{t}"] = pc.cast(
                pc.equal(batch["event_type"], t), pa.int64())
        cols["cents"] = pc.cast(pc.round(pc.multiply(batch["value"], 100)),
                                pa.int64())
        return pa.table(cols)

    specs = [(f"n_{t}", "sum") for t in EVENT_TYPES] + [("cents", "sum")]
    out = grouped_stats(events_ds, "user_id", specs, pre=pre,
                        combine="shuffle")

    def finish(b: pa.Table) -> pa.Table:
        cols = {"user_id": b["user_id"]}
        for t in EVENT_TYPES:
            cols[f"n_{t}"] = b[f"sum_n_{t}"]
        cols["sum_value"] = pc.round(
            pc.divide(pc.cast(b["sum_cents"], pa.float64()), 100.0),
            ndigits=6)
        return pa.table(cols)

    return out.map_batches(finish, batch_format="pyarrow")


def users_without(events_ds):
    """Anti-join / NOT EXISTS: users with ZERO qualifying events (type +
    value threshold). Expressed as an aggregate-then-filter (per-user
    indicator sum == 0) so the only exchange is the same skew-safe
    partial-combine groupby — no second table scan, no broadcast of the
    excluded-key set.
    """

    def pre(batch: pa.Table) -> pa.Table:
        hit = pc.and_(pc.equal(batch["event_type"], "purchase"),
                      pc.greater(batch["value"], 100.0))
        return pa.table({
            "user_id": batch["user_id"],
            "hit": pc.cast(hit, pa.int64())})

    out = grouped_stats(events_ds, "user_id", [("hit", "sum")], pre=pre,
                        combine="shuffle")

    def keep(b: pa.Table) -> pa.Table:
        return b.filter(pc.equal(b["sum_hit"], 0)).select(["user_id"])

    return out.map_batches(keep, batch_format="pyarrow")


def _seg_searchsorted(sorted_vals: np.ndarray, sid: np.ndarray,
                      queries: np.ndarray, side: str,
                      query_sid: np.ndarray | None = None) -> np.ndarray:
    """searchsorted WITHIN each contiguous segment of a (sid, val)-
    sorted array, for one query per row (query i belongs to segment
    sid[i]). Pass ``query_sid`` to search a SEPARATE query array
    (query j belongs to segment query_sid[j]; segments with no vals
    rows resolve to an empty range). Returns GLOBAL indices into
    sorted_vals. Fast path: one composite-key searchsorted (sid*span +
    offset); when the composite would overflow int64 (astronomical
    segment count × value range) it falls back to a per-segment loop
    of vectorized searchsorteds."""
    qsid = sid if query_sid is None else query_sid
    n = len(sorted_vals)
    if len(queries) == 0:
        return np.zeros(0, dtype=np.int64)
    if n == 0:
        return np.zeros(len(queries), dtype=np.int64)
    base = min(int(sorted_vals.min()), int(queries.min()))
    span = max(int(sorted_vals.max()), int(queries.max())) - base + 1
    n_seg = int(max(int(sid[-1]), int(qsid.max()))) + 1
    if n_seg * span < (1 << 62):
        zt = sid * span + (sorted_vals - base)
        zq = qsid * span + (queries - base)
        return np.searchsorted(zt, zq, side=side)
    out = np.empty(len(queries), dtype=np.int64)
    starts = np.flatnonzero(run_starts(sid))
    ends = np.append(starts[1:], n)
    seg_range = {int(sid[s]): (s, e) for s, e in zip(starts, ends)}
    q_starts = np.flatnonzero(run_starts(qsid))
    for qs, qe in zip(q_starts, np.append(q_starts[1:], len(queries))):
        s, e = seg_range.get(int(qsid[qs]), (0, 0))
        out[qs:qe] = s + np.searchsorted(sorted_vals[s:e],
                                         queries[qs:qe], side=side)
    return out


def range_join_counts(events_ds, lookback_us: int = 30 * 60 * 1_000_000):
    """Range self-join (the second temporal operator Ray Data lacks):
    for every event, how many events of the SAME user fall in the
    half-open window [ts - lookback, ts) — the per-event velocity /
    burst feature of fraud and abuse pipelines.

    Shape: ONE user-BUCKET-keyed shuffle (stages/buckets — hundreds of
    users per UDF call, no per-user Ray dispatch), then a segmented
    searchsorted over the (user, ts, event_id)-sorted rows — O(n log n)
    per bucket vs the O(n²) naive range join. Same whale-user caveat as
    asof_join_events.

    Output: (event_id, user_id, n_prior) — n_prior counts STRICTLY
    earlier events in the window; simultaneous-ts events (and the event
    itself) are excluded.
    """
    from ..stages.buckets import grouped_by_bucket

    def sweep(tbl: pa.Table) -> pa.Table:
        user = pc.cast(tbl["user_id"], pa.int64()).to_numpy(
            zero_copy_only=False)
        ts = pc.cast(tbl["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        eid = pc.cast(tbl["event_id"], pa.int64()).to_numpy(
            zero_copy_only=False)
        order = np.lexsort((eid, ts, user))
        u, ts_s, eid_s = user[order], ts[order], eid[order]
        sid = np.cumsum(run_starts(u)) - 1
        # left edge of the window / strictly-earlier bound, per segment
        lo = _seg_searchsorted(ts_s, sid, ts_s - lookback_us, "left")
        hi = _seg_searchsorted(ts_s, sid, ts_s, "left")
        return pa.table({
            "event_id": pa.array(eid_s, pa.int64()),
            "user_id": pa.array(u, pa.int64()),
            "n_prior": pa.array(hi - lo, pa.int64()),
        })

    pruned = events_ds.map_batches(
        lambda b: b.select(["event_id", "ts", "user_id"]),
        batch_format="pyarrow")
    return grouped_by_bucket(pruned, sweep, key="user_id")


WEEK_US = 7 * 86_400 * 1_000_000


def retention_cohorts(events_ds):
    """Cohort retention matrix (cohort_week, week_offset, n_users):
    users are cohorted by their first active calendar week; each later
    active week counts them at offset (week − cohort).

    Distributed form: per-batch (user, week) dedup (map-side), ONE
    user-BUCKET-keyed shuffle of the deduped pairs (≤ users ×
    active-weeks rows — never raw events; stages/buckets, so one
    vectorized UDF call covers hundreds of users), in-call segmented
    cohort/offset derivation pre-summed to (cohort, offset) cells, then
    map-side partial counts merged on the driver (the matrix is weeks²
    cells, independent of row count)."""
    from ..stages.buckets import grouped_by_bucket

    def pairs(batch: pa.Table) -> pa.Table:
        week = pc.cast(pc.divide(pc.cast(batch["ts"], pa.int64()),
                                 WEEK_US), pa.int64())
        t = pa.table({"user_id": batch["user_id"], "week": week})
        return t.group_by(["user_id", "week"]).aggregate([])

    def per_bucket(tbl: pa.Table) -> pa.Table:
        u = pc.cast(tbl["user_id"], pa.int64()).to_numpy(
            zero_copy_only=False)
        w = pc.cast(tbl["week"], pa.int64()).to_numpy(zero_copy_only=False)
        order = np.lexsort((w, u))
        us, ws = u[order], w[order]
        # cross-batch (user, week) dedup (pairs deduped per batch only)
        first = np.ones(len(us), dtype=bool)
        if len(us) > 1:
            first[1:] = (us[1:] != us[:-1]) | (ws[1:] != ws[:-1])
        us, ws = us[first], ws[first]
        starts = run_starts(us)
        sidx = np.flatnonzero(starts)
        counts = np.diff(np.append(sidx, len(us)))
        cohort = np.repeat(ws[sidx], counts)
        t = pa.table({
            "cohort_week": pa.array(cohort, pa.int64()),
            "week_offset": pa.array(ws - cohort, pa.int64()),
        })
        g = t.group_by(["cohort_week", "week_offset"]).aggregate(
            [("week_offset", "count")])
        return pa.table({
            "cohort_week": g["cohort_week"],
            "week_offset": g["week_offset"],
            "n": pc.cast(g["week_offset_count"], pa.int64()),
        })

    cells = grouped_by_bucket(
        events_ds.map_batches(pairs, batch_format="pyarrow"),
        per_bucket, key="user_id")

    def partial(b: pa.Table) -> pa.Table:
        return b.group_by(["cohort_week", "week_offset"]).aggregate(
            [("n", "sum")])

    acc: dict[tuple, int] = {}
    for b in cells.map_batches(partial, batch_format="pyarrow") \
                  .iter_batches(batch_format="pyarrow"):
        for r in b.to_pylist():
            k = (r["cohort_week"], r["week_offset"])
            acc[k] = acc.get(k, 0) + r["n_sum"]
    ks = sorted(acc)
    return pa.table({
        "cohort_week": pa.array([k[0] for k in ks], pa.int64()),
        "week_offset": pa.array([k[1] for k in ks], pa.int64()),
        "n_users": pa.array([acc[k] for k in ks], pa.int64()),
    })


LATENESS_US = 300_000_000    # 5-minute allowed lateness
LATE_BUCKETS = 512


def late_event_counts(events_ds, max_id: int,
                      lateness_us: int = LATENESS_US,
                      n_buckets: int = LATE_BUCKETS):
    """Watermark-style late-data detection: an event is LATE when it
    arrives (arrival order = event_id) more than ``lateness_us`` behind
    the running maximum event time seen so far — the batch form of a
    streaming watermark with allowed lateness.

    The running max over a GLOBAL order is a segmented prefix scan,
    never a single-node sort (same shape as curation.pack_sequences):
    (1) contiguous buckets by event_id // span (≤ n_buckets at any
    scale); per-bucket max-ts partials combine map-side and the driver
    prefix-maxes ≤ n_buckets scalars; (2) each bucket sorts locally by
    event_id, seeds np.maximum.accumulate with its broadcast
    predecessor max, and emits per-type partial counts — the exchange
    carries (types × buckets) rows, not events.

    Returns (event_type, n_late, n_total, late_id_sum) sorted by type;
    all-integer outputs, so the SQL oracle (MAX OVER ... ROWS 1
    PRECEDING) reproduces them exactly."""
    import ray

    span = max(1, (max_id + n_buckets) // n_buckets)

    def derive(b: pa.Table) -> pa.Table:
        ids = pc.cast(b["event_id"], pa.int64())
        return pa.table({
            "event_id": ids,
            "event_type": b["event_type"],
            "us": pc.cast(b["ts"], pa.int64()),
            "bucket": pc.divide(ids, span),
        })

    derived = events_ds.map_batches(
        derive, batch_format="pyarrow").materialize()

    def bucket_partial(b: pa.Table) -> pa.Table:
        return b.select(["bucket", "us"]).group_by("bucket") \
                .aggregate([("us", "max")])

    bmax: dict[int, int] = {}
    for b in derived.map_batches(bucket_partial, batch_format="pyarrow") \
                    .iter_batches(batch_format="pyarrow"):
        for r in b.to_pylist():
            bmax[r["bucket"]] = max(bmax.get(r["bucket"], r["us_max"]),
                                    r["us_max"])
    prior: dict[int, int] = {}
    run = None
    for bk in sorted(bmax):
        prior[bk] = run  # None for the first bucket: no watermark yet
        run = bmax[bk] if run is None else max(run, bmax[bk])
    prior_ref = ray.put(prior)

    def scan_group(tbl: pa.Table) -> pa.Table:
        from .decontam import _cached_get
        priors = _cached_get(prior_ref)
        idx = pc.sort_indices(tbl["event_id"])
        ids = tbl["event_id"].take(idx).to_numpy(zero_copy_only=False)
        us = tbl["us"].take(idx).to_numpy(zero_copy_only=False)
        types = np.asarray(tbl["event_type"].take(idx).to_pylist(),
                           dtype=object)
        seed = priors[int(tbl["bucket"][0].as_py())]
        run = np.maximum.accumulate(us)
        # watermark BEFORE each event: strict prefix max. The very
        # first event of the stream has no watermark — seed it with its
        # own timestamp (diff 0, never late); an int64-min sentinel
        # would UNDERFLOW in (pmax - us) and wrap positive.
        pmax = np.empty_like(us)
        pmax[0] = seed if seed is not None else us[0]
        if len(us) > 1:
            pmax[1:] = run[:-1]
            if seed is not None:
                pmax[1:] = np.maximum(pmax[1:], seed)
        late = (pmax - us) > lateness_us
        import pandas as pd
        agg = (pd.DataFrame({
            "event_type": types,
            "n_late": late.astype(np.int64),
            "n_total": np.ones(len(us), np.int64),
            "late_id_sum": np.where(late, ids, 0)})
            .groupby("event_type", sort=False).sum().reset_index())
        return pa.table({
            "event_type": pa.array(agg["event_type"], pa.string()),
            "n_late": pa.array(agg["n_late"].astype("int64"), pa.int64()),
            "n_total": pa.array(agg["n_total"].astype("int64"),
                                pa.int64()),
            "late_id_sum": pa.array(agg["late_id_sum"].astype("int64"),
                                    pa.int64())})

    acc: dict[str, list[int]] = {}
    for b in derived.groupby("bucket") \
                    .map_groups(scan_group, batch_format="pyarrow") \
                    .iter_batches(batch_format="pyarrow"):
        for r in b.to_pylist():
            a = acc.setdefault(r["event_type"], [0, 0, 0])
            a[0] += r["n_late"]
            a[1] += r["n_total"]
            a[2] += r["late_id_sum"]
    ks = sorted(acc)
    return pa.table({
        "event_type": pa.array(ks, pa.string()),
        "n_late": pa.array([acc[k][0] for k in ks], pa.int64()),
        "n_total": pa.array([acc[k][1] for k in ks], pa.int64()),
        "late_id_sum": pa.array([acc[k][2] for k in ks], pa.int64()),
    })


def upsert_latest(events_ds):
    """CDC latest-wins compaction: ONE surviving row per
    (user_id, event_type), winner = highest event_id (ties, should an
    id ever repeat, break to the highest value) — the key-merge step
    of a changelog/upsert sink (Kafka compacted-topic semantics).

    Shape: phase 1 is a map-side combiner (each batch shrinks to its
    distinct keys — the exchange then carries at most one row per key
    per batch, not the stream); phase 2 is ONE user_id-keyed bucket
    exchange with the SAME idempotent kernel applied in-bucket.
    Whale-safe: a hot user costs its distinct (user, type) rows per
    batch, never its raw row count.

    Output: (user_id, event_type, event_id, value)."""
    from ..stages.buckets import grouped_by_bucket

    cols = ["user_id", "event_type", "event_id", "value"]

    def latest_in(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return b.select(cols)
        u = b["user_id"].combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        tcodes = b["event_type"].combine_chunks().dictionary_encode() \
            .indices.to_numpy(zero_copy_only=False).astype(np.int64)
        eid = b["event_id"].combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        val = b["value"].combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.float64)
        # (user, type) runs, highest event_id first; duplicate
        # event_ids break to the highest value (deterministic under
        # any partitioning — matches the oracle's ORDER BY)
        order = np.lexsort((-val, -eid, tcodes, u))
        su, st = u[order], tcodes[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (su[1:] != su[:-1]) | (st[1:] != st[:-1])
        return b.select(cols).take(
            pa.array(np.sort(order[first]), pa.int64()))

    part = events_ds.map_batches(latest_in, batch_format="pyarrow")
    return grouped_by_bucket(part, latest_in, key="user_id")


ALERT_THRESHOLD = 2


def alert_windows(events_ds, threshold: int = ALERT_THRESHOLD):
    """Edge-triggered threshold alerts — the monitoring-rule operator:
    per (user, tumbling window) event counts, where a row FIRES when
    the count reaches ``threshold`` and the count in the immediately
    preceding window (window_start - HOUR_US; 0 when that window has
    no events) was below it — i.e. the alert raises on the crossing,
    not on every hot window (the classic alert-dedup rule of log
    monitors).

    Shape at scale: map-side combine first (each block collapses to
    its (user, window) PARTIAL counts, so the exchange carries partial
    rows, not events), ONE user-bucket shuffle, then a per-bucket
    vectorized sweep — after the final combine the (user, window) rows
    are unique and sorted, so "the previous existing window of this
    user" is simply the previous row, and adjacency is one vectorized
    comparison. Output (user_id, window_start, n, prev_n), fired rows
    only."""
    from ..stages.buckets import grouped_by_bucket

    def pre(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch["ts"], pa.int64())
        win = pc.multiply(pc.divide(ts, HOUR_US), HOUR_US)
        t = pa.table({"user_id": batch["user_id"], "win": win})
        part = t.group_by(["user_id", "win"]).aggregate([("win", "count")])
        return part.rename_columns(["user_id", "win", "n"])

    def sweep(tbl: pa.Table) -> pa.Table:
        # final combine of the partials, then the lag-vs-adjacent rule
        full = tbl.group_by(["user_id", "win"]).aggregate([("n", "sum")])
        uid = full["user_id"].to_numpy(zero_copy_only=False)
        win = full["win"].to_numpy(zero_copy_only=False)
        n = full["n_sum"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((win, uid))
        uid, win, n = uid[order], win[order], n[order]
        prev_n = np.zeros_like(n)
        if len(n) > 1:
            adj = (uid[1:] == uid[:-1]) & (win[1:] - win[:-1] == HOUR_US)
            prev_n[1:][adj] = n[:-1][adj]
        fired = (n >= threshold) & (prev_n < threshold)
        return pa.table({
            "user_id": pa.array(uid[fired], pa.int64()),
            "window_start": pa.array(win[fired], pa.int64())
                              .cast(pa.timestamp("us")),
            "n": pa.array(n[fired], pa.int64()),
            "prev_n": pa.array(prev_n[fired], pa.int64()),
        })

    partials = events_ds.map_batches(pre, batch_format="pyarrow")
    return grouped_by_bucket(partials, sweep, key="user_id",
                             coalesce=False)


RATE_LIMIT_N = 3


def rate_limit(events_ds, limit: int = RATE_LIMIT_N):
    """Per-key rate limiting — the log-gateway throttle rule: within
    each (user, tumbling window) only the first ``limit`` events by
    (ts, event_id) pass; later ones are marked dropped. Every event is
    emitted with its in-window sequence number and kept flag, so the
    decision is auditable (the reference's filter hooks mark DROPPED
    rather than delete).

    Shape at scale: ONE user-bucket exchange of the pruned 3-column
    projection, then a per-bucket vectorized segmented rank (lexsort +
    run-base subtraction) — no per-row Python, no global sort. Output
    (event_id, user_id, window_start, seq, kept)."""
    from ..stages.buckets import grouped_by_bucket, run_starts

    def sweep(tbl: pa.Table) -> pa.Table:
        uid = tbl["user_id"].to_numpy(zero_copy_only=False)
        ts = pc.cast(tbl["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        eid = tbl["event_id"].to_numpy(zero_copy_only=False)
        win = (ts // HOUR_US) * HOUR_US
        order = np.lexsort((eid, ts, win, uid))
        uid, ts, eid, win = uid[order], ts[order], eid[order], win[order]
        # first row of each (user, window) run → segmented 1-based rank
        starts = run_starts(uid) | run_starts(win)
        idx = np.arange(len(uid), dtype=np.int64)
        base = np.where(starts, idx, 0)
        seq = idx - np.maximum.accumulate(base) + 1
        return pa.table({
            "event_id": pa.array(eid, pa.int64()),
            "user_id": pa.array(uid, pa.int64()),
            "window_start": pa.array(win, pa.int64())
                              .cast(pa.timestamp("us")),
            "seq": pa.array(seq, pa.int64()),
            "kept": pa.array((seq <= limit).astype(np.int64), pa.int64()),
        })

    pruned = events_ds.map_batches(
        lambda b: b.select(["event_id", "ts", "user_id"]),
        batch_format="pyarrow")
    return grouped_by_bucket(pruned, sweep, key="user_id")


CUSUM_K = 2   # reference value: expected per-window count
CUSUM_H = 5   # decision threshold


def cusum_changepoints(events_ds, k: int = CUSUM_K, h: int = CUSUM_H):
    """One-sided CUSUM change detection (Page 1954) over per-type
    tumbling-window counts — the drift/regime-shift monitor: S_t =
    max(0, S_{t-1} + (n_t - k)) per event_type over its EXISTING
    windows in time order, alarm when S_t >= h. Exact integers
    throughout.

    The recurrence has the closed form S_t = P_t - min(0, min_{j<=t}
    P_j) with P the prefix sum of (n - k), so both engines compute it
    without a sequential fold: SQL as two window functions, here as a
    per-segment cumsum + running min. Shape at scale: map-side combine
    to (type, window) partials, ONE type-bucket exchange of partial
    rows, vectorized per-type sweep. Output (event_type, window_start,
    n, cusum, alarm)."""
    from ..stages.buckets import grouped_by_bucket, run_starts

    def pre(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch["ts"], pa.int64())
        win = pc.multiply(pc.divide(ts, HOUR_US), HOUR_US)
        t = pa.table({"event_type": batch["event_type"], "w": win,
                      "n": pa.array(np.ones(len(batch), np.int64))})
        return t.group_by(["event_type", "w"]).aggregate([("n", "sum")]) \
                .rename_columns(["event_type", "w", "n"])

    def sweep(tbl: pa.Table) -> pa.Table:
        full = tbl.group_by(["event_type", "w"]).aggregate([("n", "sum")])
        et = np.asarray(full["event_type"].to_pylist(), dtype=object)
        w = full["w"].to_numpy(zero_copy_only=False)
        n = full["n_sum"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((w, et))
        et, w, n = et[order], w[order], n[order]
        y = n - k
        cs = np.cumsum(y)
        starts = run_starts(et)
        start_idx = np.flatnonzero(starts)
        seg_len = np.diff(np.append(start_idx, len(y)))
        base = np.repeat(cs[start_idx] - y[start_idx], seg_len)
        pf = cs - base
        runmin = np.empty_like(pf)
        for s0, ln in zip(start_idx, seg_len):  # one pass per TYPE (bounded)
            runmin[s0:s0 + ln] = np.minimum.accumulate(pf[s0:s0 + ln])
        cusum = pf - np.minimum(0, runmin)
        return pa.table({
            "event_type": pa.array(list(et), pa.string()),
            "window_start": pa.array(w, pa.int64())
                              .cast(pa.timestamp("us")),
            "n": pa.array(n, pa.int64()),
            "cusum": pa.array(cusum, pa.int64()),
            "alarm": pa.array((cusum >= h).astype(np.int64), pa.int64()),
        })

    partials = events_ds.map_batches(pre, batch_format="pyarrow")
    return grouped_by_bucket(partials, sweep, key="event_type",
                             coalesce=False)


ATTR_LOOKBACK_US = 6 * 3_600_000_000


def attribution_linear(events_ds):
    """Linear multi-touch attribution — each purchase splits exactly
    1,000,000 ppm of credit equally across the SAME user's clicks in
    the lookback window (c.ts <= p.ts < c.ts + ATTR_LOOKBACK_US); the integer
    remainder goes to the EARLIEST click (ties by event_id), so credit
    is conserved exactly per purchase and the fold is order-exact.
    Output per credited click: (click_event, user_id, credit_ppm).

    Shape at scale: ONE user-bucket exchange of the pruned
    click/purchase projection; per user the window sums are a
    difference-array trick (np.add.at on interval endpoints + one
    cumsum), so a user's cost is O((clicks + purchases) log clicks),
    never O(clicks x purchases). Whale-user caveat as
    asof_join_events. Exact SQL mirror: "attribution_linear"."""
    from ..stages.buckets import grouped_by_bucket, run_starts

    def pre(batch: pa.Table) -> pa.Table:
        m = pc.is_in(batch["event_type"],
                     value_set=pa.array(["click", "purchase"]))
        t = batch.filter(m)
        return pa.table({
            "event_id": pc.cast(t["event_id"], pa.int64()),
            "user_id": pc.cast(t["user_id"], pa.int64()),
            "ts": pc.cast(t["ts"], pa.int64()),
            "is_p": pc.cast(pc.equal(t["event_type"], "purchase"),
                            pa.int8()),
        })

    def sweep(tbl: pa.Table) -> pa.Table:
        uid = tbl["user_id"].to_numpy(zero_copy_only=False)
        ts = tbl["ts"].to_numpy(zero_copy_only=False)
        eid = tbl["event_id"].to_numpy(zero_copy_only=False)
        isp = tbl["is_p"].to_numpy(zero_copy_only=False).astype(bool)
        order = np.lexsort((eid, ts, uid))
        uid, ts, eid, isp = uid[order], ts[order], eid[order], isp[order]
        seg = np.flatnonzero(run_starts(uid))
        seg = np.append(seg, len(uid))
        o_ce, o_u, o_cr = [], [], []
        for s0, s1 in zip(seg[:-1], seg[1:]):
            m_c = ~isp[s0:s1]
            c_ts, c_eid = ts[s0:s1][m_c], eid[s0:s1][m_c]
            p_ts = ts[s0:s1][~m_c]
            if not len(c_ts) or not len(p_ts):
                continue
            lo = np.searchsorted(c_ts, p_ts - ATTR_LOOKBACK_US,
                                 side="right")
            hi = np.searchsorted(c_ts, p_ts, side="right")
            n = hi - lo
            ok = n > 0
            lo, hi, n = lo[ok], hi[ok], n[ok]
            base = 1_000_000 // n
            rem = 1_000_000 - base * n
            diff = np.zeros(len(c_ts) + 1, np.int64)
            np.add.at(diff, lo, base)
            np.add.at(diff, hi, -base)
            credit = np.cumsum(diff[:-1])
            np.add.at(credit, lo, rem)
            nz = credit > 0
            o_ce.extend(int(x) for x in c_eid[nz])
            o_u.extend([int(uid[s0])] * int(nz.sum()))
            o_cr.extend(int(x) for x in credit[nz])
        return pa.table({
            "click_event": pa.array(o_ce, pa.int64()),
            "user_id": pa.array(o_u, pa.int64()),
            "credit_ppm": pa.array(o_cr, pa.int64()),
        })

    rows = events_ds.map_batches(pre, batch_format="pyarrow")
    return grouped_by_bucket(rows, sweep, key="user_id")


PSI_DAY_US = 86_400_000_000


def psi_drift(events_ds):
    """Population Stability Index per day — the distribution-drift
    monitor: PSI_d = sum over event types of (p - q) * ln(p / q) with
    Laplace-smoothed shares p = (c_day + 1) / (n_day + k) vs the
    whole-corpus q. Each (day, type) term is rounded to an int64
    MICRO-unit before summing, so the per-day sum is order-independent
    and the SQL mirror is bit-identical. Counts come from one
    map-side-combine groupby over a bounded (days x types) domain;
    the fold touches only that grid. Output (day, psi_micro). Exact
    SQL mirror: "psi_drift"."""
    import math

    def pre(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch["ts"], pa.int64())
        d = pc.multiply(pc.divide(ts, PSI_DAY_US), PSI_DAY_US)
        t = pa.table({"d": d, "et": batch["event_type"],
                      "n": pa.array(np.ones(len(batch), np.int64))})
        return t.group_by(["d", "et"]).aggregate([("n", "sum")])

    counts: dict[tuple[int, str], int] = {}
    for b in events_ds.select_columns(["ts", "event_type"]) \
                      .map_batches(pre, batch_format="pyarrow") \
                      .iter_batches(batch_format="pyarrow"):
        for r in b.to_pylist():
            key = (r["d"], r["et"])
            counts[key] = counts.get(key, 0) + r["n_sum"]
    types = sorted({et for _, et in counts})
    k = len(types)
    overall = {et: 0 for et in types}
    day_n: dict[int, int] = {}
    for (d, et), c in counts.items():
        overall[et] += c
        day_n[d] = day_n.get(d, 0) + c
    nn = sum(overall.values())
    days, psis = [], []
    for d in sorted(day_n):
        nd = day_n[d]
        psi = 0
        for et in types:
            p = (counts.get((d, et), 0) + 1) / (nd + k)
            q = (overall[et] + 1) / (nn + k)
            psi += int(np.rint((p - q) * math.log(p / q) * 1_000_000))
        days.append(d)
        psis.append(psi)
    return pa.table({
        "day": pa.array(days, pa.int64()).cast(pa.timestamp("us")),
        "psi_micro": pa.array(psis, pa.int64()),
    })


WILSON_Z = 1.96   # 95% normal quantile


def wilson_ctr(events_ds):
    """Wilson score lower bound of each user's click share
    s / (clicks + views) — the rank-safe CTR estimate (small-sample
    shrinkage) a feedback-ranking pipeline uses instead of the raw
    ratio. Output per user: (user_id, n, s, wilson_lb), wilson_lb
    rounded to 6 dp.

    Scale: map-side (user, is_click) count partials collapse the
    exchange to ≤ 1 row per (user, block) before ONE user-bucket
    exchange; the bound is a single shared IEEE expression (identical
    operation order in the SQL mirror "wilson_ctr"), so equality is
    exact, not approximate."""
    from ..stages.buckets import grouped_by_bucket

    def pre(batch: pa.Table) -> pa.Table:
        m = pc.is_in(batch["event_type"],
                     value_set=pa.array(["click", "view"]))
        t = batch.filter(m)
        tt = pa.table({
            "user_id": pc.cast(t["user_id"], pa.int64()),
            "s": pc.cast(pc.equal(t["event_type"], "click"),
                         pa.int64()),
            "n": pa.array(np.ones(len(t), np.int64)),
        })
        return tt.group_by(["user_id"]).aggregate(
            [("s", "sum"), ("n", "sum")])

    def per_bucket(tbl: pa.Table) -> pa.Table:
        import pandas as pd
        df = pd.DataFrame({
            "user_id": tbl["user_id"].to_numpy(zero_copy_only=False),
            "s": tbl["s_sum"].to_numpy(zero_copy_only=False),
            "n": tbl["n_sum"].to_numpy(zero_copy_only=False),
        })
        g = df.groupby("user_id", sort=True).sum()
        s = g["s"].to_numpy(np.float64)
        n = g["n"].to_numpy(np.float64)
        z2 = WILSON_Z * WILSON_Z
        ph = s / n
        lb = (ph + z2 / (2 * n)
              - WILSON_Z * np.sqrt((ph * (1 - ph) + z2 / (4 * n)) / n)) \
            / (1 + z2 / n)
        return pa.table({
            "user_id": pa.array(g.index.to_numpy(np.int64)),
            "n": pa.array(g["n"].to_numpy(np.int64)),
            "s": pa.array(g["s"].to_numpy(np.int64)),
            "wilson_lb": pa.array(np.round(lb, 6), pa.float64()),
        })

    proj = events_ds.map_batches(pre, batch_format="pyarrow")
    return grouped_by_bucket(proj, per_bucket, key="user_id",
                             coalesce=False)


def _daily_type_counts(events_ds) -> dict[tuple[str, int], int]:
    """Bounded (event_type, day) count grid — map-side partials, driver
    folds only the tiny grid (the psi_drift exchange shape)."""
    D = 86_400_000_000

    def cnt(b: pa.Table) -> pa.Table:
        us = pc.cast(b["ts"], pa.int64())
        day = pc.multiply(pc.divide(us, D), D)
        return pa.table({
            "et": b["event_type"], "d": day,
            "n": pa.array(np.ones(len(b), np.int64)),
        }).group_by(["et", "d"]).aggregate([("n", "sum")])

    acc: dict[tuple[str, int], int] = {}
    for b in events_ds.map_batches(cnt, batch_format="pyarrow") \
                      .iter_batches(batch_format="pyarrow"):
        for r in b.to_pylist():
            k = (r["et"], r["d"])
            acc[k] = acc.get(k, 0) + r["n_sum"]
    return acc


def autocorr_daily(events_ds):
    """Lag-1 autocorrelation of each event type's daily count series
    (adjacent OBSERVED days in day order) — the seasonality/trend
    diagnostic a telemetry monitor computes per stream. All moments
    (S=Σx, Q=Σx², P=Σxₜxₜ₊₁, x₁, xₙ, n) are exact int64 sums
    (order-independent); only the final ratio is IEEE, one shared
    expression with the SQL mirror "autocorr_daily". Output per type:
    (event_type, n_days, r6). Types with n < 2 or a constant series
    are omitted (undefined r).

    Scale: the exchange is the bounded (type, day) grid of
    _daily_type_counts — never rows."""
    acc = _daily_type_counts(events_ds)
    by_type: dict[str, dict[int, int]] = {}
    for (et, d), n in acc.items():
        by_type.setdefault(et, {})[d] = n
    ets, nds, rs = [], [], []
    for et in sorted(by_type):
        xs = np.array([by_type[et][d] for d in sorted(by_type[et])],
                      dtype=np.int64)
        n = len(xs)
        if n < 2:
            continue
        S = int(xs.sum())
        Q = int((xs * xs).sum())
        P = int((xs[:-1] * xs[1:]).sum())
        x1, xn = int(xs[0]), int(xs[-1])
        m = float(S) / n
        num = float(P) - m * (S - xn) - m * (S - x1) + (n - 1) * m * m
        den = float(Q) - float(S) * S / n
        if den == 0.0:
            continue
        ets.append(et)
        nds.append(n)
        rs.append(float(np.round(num / den, 6)))
    return pa.table({
        "event_type": pa.array(ets, pa.string()),
        "n_days": pa.array(nds, pa.int64()),
        "r6": pa.array(rs, pa.float64()),
    })


def seasonal_error(events_ds):
    """Seasonal-naive forecast error: MAE of predicting each day's
    count by the count 7 days earlier (calendar join, pairs where
    both days are observed) — the baseline every forecasting eval
    starts from. Σ|diff| and the pair count are exact ints; the micro
    MAE is one shared division. Output per type:
    (event_type, n_pairs, mae_micro). Same bounded-grid exchange as
    autocorr_daily. Exact SQL mirror: "seasonal_error"."""
    D = 86_400_000_000
    acc = _daily_type_counts(events_ds)
    by_type: dict[str, dict[int, int]] = {}
    for (et, d), n in acc.items():
        by_type.setdefault(et, {})[d] = n
    ets, nps, maes = [], [], []
    for et in sorted(by_type):
        g = by_type[et]
        tot = 0
        cnt = 0
        for d, x in g.items():
            nx = g.get(d + 7 * D)
            if nx is not None:
                tot += abs(nx - x)
                cnt += 1
        if cnt:
            ets.append(et)
            nps.append(cnt)
            # float-free half-up rounding (ties ARE possible here)
            maes.append((tot * 2_000_000 + cnt) // (2 * cnt))
    return pa.table({
        "event_type": pa.array(ets, pa.string()),
        "n_pairs": pa.array(nps, pa.int64()),
        "mae_micro": pa.array(maes, pa.int64()),
    })


def fano_factor(events_ds):
    """Burstiness per event type: Fano factor (population variance /
    mean) of the daily count series — the over-dispersion flag a
    telemetry monitor uses to tell Poisson-like streams from bursty
    ones. Moments are exact int64 (S, Q, n) from the SAME bounded
    (type, day) grid as autocorr_daily; the final ratio is one shared
    IEEE expression with the SQL mirror "fano_factor". Output:
    (event_type, n_days, fano6)."""
    acc = _daily_type_counts(events_ds)
    by_type: dict[str, dict[int, int]] = {}
    for (et, d), n in acc.items():
        by_type.setdefault(et, {})[d] = n
    ets, nds, fs = [], [], []
    for et in sorted(by_type):
        xs = np.array(list(by_type[et].values()), dtype=np.int64)
        n = len(xs)
        S = int(xs.sum())
        Q = int((xs * xs).sum())
        fano = (float(Q) - float(S) * S / n) / S
        ets.append(et)
        nds.append(n)
        fs.append(float(np.round(fano, 6)))
    return pa.table({
        "event_type": pa.array(ets, pa.string()),
        "n_days": pa.array(nds, pa.int64()),
        "fano6": pa.array(fs, pa.float64()),
    })


def first_event_counts(events_ds):
    """User-acquisition entry points: for every user, the type of their
    FIRST event (order by ts, ties by event_id), counted per type —
    the top of every onboarding funnel. Output: (event_type, n).

    Scale: map-side per-(block, user) argmin partials collapse the
    exchange to ≤1 row per user per block; ONE user-bucket exchange
    picks the global argmin; the final per-type count is a bounded
    fold. Exact SQL mirror: "first_event_counts"."""
    from ..stages.buckets import grouped_by_bucket

    def pre(batch: pa.Table) -> pa.Table:
        import pandas as pd
        df = pd.DataFrame({
            "user_id": pc.cast(batch["user_id"], pa.int64())
            .to_numpy(zero_copy_only=False),
            "ts": pc.cast(batch["ts"], pa.int64())
            .to_numpy(zero_copy_only=False),
            "event_id": pc.cast(batch["event_id"], pa.int64())
            .to_numpy(zero_copy_only=False),
            "event_type": batch["event_type"].to_pylist(),
        })
        df = df.sort_values(["user_id", "ts", "event_id"],
                            kind="stable")
        df = df.drop_duplicates("user_id", keep="first")
        return pa.Table.from_pandas(df, preserve_index=False)

    def per_bucket(tbl: pa.Table) -> pa.Table:
        import pandas as pd
        df = tbl.to_pandas()
        df = df.sort_values(["user_id", "ts", "event_id"],
                            kind="stable")
        df = df.drop_duplicates("user_id", keep="first")
        c = df.groupby("event_type").size()
        return pa.table({
            "event_type": pa.array(c.index.tolist(), pa.string()),
            "n": pa.array(c.to_numpy(np.int64)),
        })

    cells = grouped_by_bucket(
        events_ds.map_batches(pre, batch_format="pyarrow"),
        per_bucket, key="user_id", coalesce=False)
    acc: dict[str, int] = {}
    for b in cells.iter_batches(batch_format="pyarrow"):
        for r in b.to_pylist():
            acc[r["event_type"]] = acc.get(r["event_type"], 0) + r["n"]
    ks = sorted(acc)
    return pa.table({
        "event_type": pa.array(ks, pa.string()),
        "n": pa.array([acc[k] for k in ks], pa.int64()),
    })


def dod_change(events_ds):
    """Day-over-day change monitor: per (type, day) the count, the
    previous OBSERVED day's count, and the relative change in half-up
    micro units ((x − prev)·10⁶ / prev, floor-halved exactly) — the
    delta feed an alerting dashboard consumes. First observed day per
    type is omitted (no baseline). Output:
    (event_type, day, x, prev, change_micro).

    Scale: the bounded (type, day) grid of _daily_type_counts; the
    adjacency fold touches only grid cells. Exact SQL mirror:
    "dod_change"."""
    acc = _daily_type_counts(events_ds)
    by_type: dict[str, dict[int, int]] = {}
    for (et, d), n in acc.items():
        by_type.setdefault(et, {})[d] = n
    ets, days, xs, prevs, chs = [], [], [], [], []
    for et in sorted(by_type):
        g = by_type[et]
        ds_sorted = sorted(g)
        for p, d in zip(ds_sorted[:-1], ds_sorted[1:]):
            x, prev = g[d], g[p]
            diff = x - prev
            # half-away-from-zero on the magnitude: all-nonnegative
            # operands make Python floor ≡ DuckDB truncating // (the
            # two differ on negatives)
            ch = (abs(diff) * 2_000_000 + prev) // (2 * prev)
            if diff < 0:
                ch = -ch
            ets.append(et)
            days.append(d)
            xs.append(x)
            prevs.append(prev)
            chs.append(ch)
    return pa.table({
        "event_type": pa.array(ets, pa.string()),
        "day": pa.array(days, pa.int64()).cast(pa.timestamp("us")),
        "x": pa.array(xs, pa.int64()),
        "prev": pa.array(prevs, pa.int64()),
        "change_micro": pa.array(chs, pa.int64()),
    })


def dau_mau(events_ds):
    """Engagement stickiness: per day the distinct active users (DAU),
    per calendar month the distinct actives (MAU), and the per-day
    DAU/MAU share in half-up micro units — the canonical product
    health metric. Output: (day, dau, mau, stickiness_micro).

    Scale: per-batch (day, user) dedupe partials collapse the exchange
    before ONE hash groupby on the pair; per-day and per-month distinct
    counts then fold from the deduped pairs (bounded day/month
    domains on the driver). Months are calendar (UTC). Exact SQL
    mirror: "dau_mau"."""
    import datetime
    D = 86_400_000_000

    def pairs(b: pa.Table) -> pa.Table:
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        day = (us // D) * D
        uid = pc.cast(b["user_id"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        t = pa.table({"day": pa.array(day, pa.int64()),
                      "user_id": pa.array(uid, pa.int64())})
        return t.group_by(["day", "user_id"]).aggregate([])

    def month_of(day_us: int) -> int:
        dt = datetime.datetime.fromtimestamp(
            day_us / 1_000_000, tz=datetime.timezone.utc)
        return dt.year * 100 + dt.month

    # distinct (day, user) pairs stay DISTRIBUTED; the driver folds
    # only bounded per-day / per-month count cells
    dedup = events_ds.map_batches(pairs, batch_format="pyarrow") \
        .groupby(["day", "user_id"]).count()

    def day_cells(b: pa.Table) -> pa.Table:
        t = pa.table({"day": b["day"],
                      "n": pa.array(np.ones(len(b), np.int64))})
        return t.group_by(["day"]).aggregate([("n", "sum")])

    def mu_pairs(b: pa.Table) -> pa.Table:
        months = [month_of(d) for d in b["day"].to_pylist()]
        t = pa.table({"month": pa.array(months, pa.int64()),
                      "user_id": b["user_id"]})
        return t.group_by(["month", "user_id"]).aggregate([])

    dau_by_day: dict[int, int] = {}
    for b in dedup.map_batches(day_cells, batch_format="pyarrow") \
                  .iter_batches(batch_format="pyarrow"):
        for r in b.to_pylist():
            dau_by_day[r["day"]] = dau_by_day.get(r["day"], 0) \
                + r["n_sum"]
    mau_cells = dedup.map_batches(mu_pairs, batch_format="pyarrow") \
        .groupby(["month", "user_id"]).count()

    def month_cells(b: pa.Table) -> pa.Table:
        t = pa.table({"month": b["month"],
                      "n": pa.array(np.ones(len(b), np.int64))})
        return t.group_by(["month"]).aggregate([("n", "sum")])

    mau_by_month: dict[int, int] = {}
    for b in mau_cells.map_batches(month_cells, batch_format="pyarrow") \
                      .iter_batches(batch_format="pyarrow"):
        for r in b.to_pylist():
            mau_by_month[r["month"]] = mau_by_month.get(r["month"], 0) \
                + r["n_sum"]
    days, daus, maus, st = [], [], [], []
    for d in sorted(dau_by_day):
        dau = dau_by_day[d]
        mau = mau_by_month[month_of(d)]
        days.append(d)
        daus.append(dau)
        maus.append(mau)
        st.append((dau * 2_000_000 + mau) // (2 * mau))
    return pa.table({
        "day": pa.array(days, pa.int64()).cast(pa.timestamp("us")),
        "dau": pa.array(daus, pa.int64()),
        "mau": pa.array(maus, pa.int64()),
        "stickiness_micro": pa.array(st, pa.int64()),
    })


def user_value_deciles(events_ds):
    """Value-based user segmentation: decile users by lifetime value
    (exact cents totals) using VALUE thresholds (quantile_disc at
    p=0.1..0.9), then report each decile's population and total —
    NTILE would tie-break by row order and diverge across engines, so
    the decile is defined as the COUNT OF THRESHOLDS STRICTLY BELOW
    the user's total (deterministic, tie-stable). Output:
    (decile, n_users, sum_cents).

    Scale: map-side (user, cents) sum partials, ONE user-bucket
    exchange merged and MATERIALIZED; the threshold histogram folds
    (distinct totals)-bounded cells; deciles assign in a second map
    over the materialized totals with broadcast thresholds; the driver
    folds ≤10 cells. Exact SQL mirror: "user_value_deciles"."""
    import ray

    from ..functions.curation import _hist_quantile
    from ..stages.buckets import grouped_by_bucket

    def pre(batch: pa.Table) -> pa.Table:
        t = pa.table({
            "user_id": pc.cast(batch["user_id"], pa.int64()),
            "cents": pc.cast(pc.round(pc.multiply(batch["value"], 100)),
                             pa.int64()),
        })
        return t.group_by(["user_id"]).aggregate([("cents", "sum")])

    def per_bucket(tbl: pa.Table) -> pa.Table:
        import pandas as pd
        df = pd.DataFrame({
            "user_id": tbl["user_id"].to_numpy(zero_copy_only=False),
            "c": tbl["cents_sum"].to_numpy(zero_copy_only=False),
        })
        g = df.groupby("user_id", sort=True)["c"].sum()
        return pa.table({
            "user_id": pa.array(g.index.to_numpy(np.int64)),
            "total": pa.array(g.to_numpy(np.int64)),
        })

    totals = grouped_by_bucket(
        events_ds.map_batches(pre, batch_format="pyarrow"),
        per_bucket, key="user_id", coalesce=False).materialize()

    hist: dict[int, int] = {}
    for b in totals.iter_batches(batch_format="pyarrow"):
        for v in b["total"].to_pylist():
            hist[v] = hist.get(v, 0) + 1
    thr = [_hist_quantile(hist, p / 10) for p in range(1, 10)]
    bc = ray.put(np.array(thr, np.int64))

    def cells(b: pa.Table) -> pa.Table:
        t = ray.get(bc)
        tot = b["total"].to_numpy(zero_copy_only=False)
        dec = (tot[:, None] > t[None, :]).sum(axis=1).astype(np.int64)
        tt = pa.table({
            "decile": pa.array(dec),
            "n_users": pa.array(np.ones(len(b), np.int64)),
            "sum_cents": pa.array(tot, pa.int64()),
        })
        return tt.group_by(["decile"]).aggregate(
            [("n_users", "sum"), ("sum_cents", "sum")])

    acc: dict[int, list[int]] = {}
    for b in totals.map_batches(cells, batch_format="pyarrow") \
                   .iter_batches(batch_format="pyarrow"):
        for r in b.to_pylist():
            a = acc.setdefault(r["decile"], [0, 0])
            a[0] += r["n_users_sum"]
            a[1] += r["sum_cents_sum"]
    ks = sorted(acc)
    return pa.table({
        "decile": pa.array(ks, pa.int64()),
        "n_users": pa.array([acc[k][0] for k in ks], pa.int64()),
        "sum_cents": pa.array([acc[k][1] for k in ks], pa.int64()),
    })


def benford_digits(events_ds):
    """First-significant-digit distribution (Benford's-law screen) of
    the integer part of |value| over events with |value| >= 1 — the
    classic synthetic-data / fraud telemetry check an ingest monitor
    runs over numeric columns. Counts are exact int64 from a map-only
    pass (the exchange is <= 9 cells per block); the observed share and
    the Benford expectation log10(1 + 1/d) are each ONE shared IEEE
    expression with the SQL mirror "benford_digits". Output:
    (digit, n, share6, benford6), digits with zero hits omitted."""

    def partial(batch: pa.Table) -> pa.Table:
        v = np.abs(pc.cast(batch["value"], pa.float64())
                   .to_numpy(zero_copy_only=False))
        # ±inf has no first digit and would spin the decade loop
        # forever (inf/10 == inf); NaN self-excludes via v >= 1.0
        v = v[np.isfinite(v) & (v >= 1.0)]
        # values past int64 range would wrap negative under astype and
        # crash bincount; reduce them by float decades first (the first
        # significant digit is unchanged by exact /10 steps, and any
        # float this large is already decades beyond 2-dp exactness)
        huge = v >= 9.2e18
        while huge.any():
            v[huge] /= 10.0
            huge = v >= 9.2e18
        x = np.floor(v).astype(np.int64)
        # strip decades until one digit remains (<= 19 rounds for int64)
        while x.size and x.max() >= 10:
            big = x >= 10
            x[big] //= 10
        counts = np.bincount(x, minlength=10)[1:10]
        return pa.table({
            "digit": pa.array(np.arange(1, 10, dtype=np.int64)),
            "n": pa.array(counts.astype(np.int64)),
        })

    acc = np.zeros(9, dtype=np.int64)
    for b in (events_ds.map_batches(partial, batch_format="pyarrow")
              .iter_batches(batch_format="pyarrow")):
        # one iter batch may concatenate several partial tables, so the
        # digit index repeats — np.add.at accumulates duplicates
        np.add.at(acc, np.asarray(b["digit"], dtype=np.int64) - 1,
                  np.asarray(b["n"], dtype=np.int64))
    tot = int(acc.sum())
    digits = [d for d in range(1, 10) if acc[d - 1] > 0]
    return pa.table({
        "digit": pa.array(digits, pa.int64()),
        "n": pa.array([int(acc[d - 1]) for d in digits], pa.int64()),
        "share6": pa.array(
            [float(np.round(int(acc[d - 1]) / tot, 6)) for d in digits],
            pa.float64()),
        "benford6": pa.array(
            [float(np.round(np.log10(1.0 + 1.0 / d), 6)) for d in digits],
            pa.float64()),
    })


def scd2_intervals(events_ds):
    """Slowly-changing-dimension type-2 build: collapse each user's
    event_type history (ordered by ts, then event_id) into validity
    intervals — the warehouse pattern that turns a change stream into
    AS-OF-queryable dimension rows. Output: (user_id, event_type,
    valid_from, valid_to), valid_to NULL on the open (current) interval.

    Scale: ONE user-bucket exchange (stages/buckets.grouped_by_bucket);
    inside a bucket the run-length collapse is a vectorized
    sort + shift over that bucket's users only. Exact SQL mirror
    "scd2_intervals" (lag-change flag + lead window)."""
    from ..stages.buckets import grouped_by_bucket

    def per_bucket(tbl: pa.Table) -> pa.Table:
        import pandas as pd
        df = pd.DataFrame({
            "user_id": pc.cast(tbl["user_id"], pa.int64())
            .to_numpy(zero_copy_only=False),
            "ts": pc.cast(tbl["ts"], pa.int64())
            .to_numpy(zero_copy_only=False),
            "event_id": pc.cast(tbl["event_id"], pa.int64())
            .to_numpy(zero_copy_only=False),
            "event_type": tbl["event_type"].to_pylist(),
        }).sort_values(["user_id", "ts", "event_id"], kind="stable")
        uid = df["user_id"].to_numpy()
        et = df["event_type"].to_numpy(dtype=object)
        ts = df["ts"].to_numpy()
        if len(df) == 0:
            return pa.table({
                "user_id": pa.array([], pa.int64()),
                "event_type": pa.array([], pa.string()),
                "valid_from": pa.array([], pa.timestamp("us")),
                "valid_to": pa.array([], pa.timestamp("us")),
            })
        new = np.ones(len(df), dtype=bool)
        new[1:] = (uid[1:] != uid[:-1]) | (et[1:] != et[:-1])
        s_uid, s_et, s_from = uid[new], et[new], ts[new]
        # next change's ts within the same user, else open interval
        nxt = np.empty(len(s_from), dtype=object)
        nxt[:-1] = [int(v) for v in s_from[1:]]
        nxt[-1] = None
        same_user = np.zeros(len(s_from), dtype=bool)
        same_user[:-1] = s_uid[1:] == s_uid[:-1]
        valid_to = [nxt[i] if same_user[i] else None
                    for i in range(len(s_from))]
        return pa.table({
            "user_id": pa.array(s_uid, pa.int64()),
            "event_type": pa.array(list(s_et), pa.string()),
            "valid_from": pc.cast(pa.array(s_from, pa.int64()),
                                  pa.timestamp("us")),
            "valid_to": pc.cast(pa.array(valid_to, pa.int64()),
                                pa.timestamp("us")),
        })

    return grouped_by_bucket(events_ds, per_bucket, key="user_id")


WEEK_US = 7 * 86_400_000_000


def ab_test_z(events_ds):
    """Experiment read-out: two-proportion z-test of the user-level
    conversion rate (ever fired a purchase) between the even- and
    odd-user_id cohorts — the A/B significance check run over an event
    log. Exact integer cohort counts; the pooled-variance z is ONE
    shared IEEE expression with the SQL mirror "ab_test_z". Output:
    (n_a, x_a, n_b, x_b, z6).

    Scale: per-batch (user, converted) dedupe partials, ONE user-bucket
    exchange, per-bucket 4-cell counter partials, driver folds bounded
    cells — distinct users never land on the driver."""
    from ..stages.buckets import grouped_by_bucket

    def pre(batch: pa.Table) -> pa.Table:
        import pandas as pd
        df = pd.DataFrame({
            "user_id": pc.cast(batch["user_id"], pa.int64())
            .to_numpy(zero_copy_only=False),
            "conv": (np.asarray(
                [t == "purchase"
                 for t in batch["event_type"].to_pylist()])
                .astype(np.int64)),
        })
        g = df.groupby("user_id")["conv"].max()
        return pa.table({
            "user_id": pa.array(g.index.to_numpy(np.int64)),
            "conv": pa.array(g.to_numpy(np.int64)),
        })

    def per_bucket(tbl: pa.Table) -> pa.Table:
        import pandas as pd
        df = pd.DataFrame({
            "user_id": pc.cast(tbl["user_id"], pa.int64())
            .to_numpy(zero_copy_only=False),
            "conv": pc.cast(tbl["conv"], pa.int64())
            .to_numpy(zero_copy_only=False),
        })
        g = df.groupby("user_id")["conv"].max()
        uid = g.index.to_numpy(np.int64)
        conv = g.to_numpy(np.int64)
        a = uid % 2 == 0
        return pa.table({
            "n_a": pa.array([int(a.sum())], pa.int64()),
            "x_a": pa.array([int(conv[a].sum())], pa.int64()),
            "n_b": pa.array([int((~a).sum())], pa.int64()),
            "x_b": pa.array([int(conv[~a].sum())], pa.int64()),
        })

    deduped = events_ds.map_batches(pre, batch_format="pyarrow")
    cells = grouped_by_bucket(deduped, per_bucket, key="user_id",
                              coalesce=False)
    na = xa = nb = xb = 0
    for b in cells.iter_batches(batch_format="pyarrow"):
        for r in b.to_pylist():
            na += r["n_a"]; xa += r["x_a"]
            nb += r["n_b"]; xb += r["x_b"]
    # degenerate inputs (empty cohort, or pooled rate exactly 0/1 → zero
    # variance) yield a NULL z, matching the SQL oracle's NULL instead
    # of raising ZeroDivisionError / emitting inf
    if na == 0 or nb == 0 or (xa + xb) in (0, na + nb):
        z6 = None
    else:
        pool = (xa + xb) / (na + nb)
        z = ((xa / na - xb / nb)
             / np.sqrt(pool * (1 - pool) * (1.0 / na + 1.0 / nb)))
        z6 = float(np.round(z, 6))
    return pa.table({
        "n_a": pa.array([na], pa.int64()),
        "x_a": pa.array([xa], pa.int64()),
        "n_b": pa.array([nb], pa.int64()),
        "x_b": pa.array([xb], pa.int64()),
        "z6": pa.array([z6], pa.float64()),
    })


def churn_weekly(events_ds):
    """Week-over-week churn: for every calendar week (except the last),
    the count of active users and the share of them NOT seen the next
    week — the retention monitor behind every growth dashboard.
    Output: (wk, n_active, n_churned, churn_rate6), wk = floor(epoch_us
    / week).

    Scale: per-batch distinct (user, week) partials shrink the
    exchange to user-weeks; ONE user-bucket exchange co-locates each
    user's history; per-bucket membership lookups emit bounded
    (week, active, churned) cells; the driver folds cells and drops the
    open final week. Exact SQL mirror "churn_weekly"."""
    from ..stages.buckets import grouped_by_bucket

    def pre(batch: pa.Table) -> pa.Table:
        import pandas as pd
        df = pd.DataFrame({
            "user_id": pc.cast(batch["user_id"], pa.int64())
            .to_numpy(zero_copy_only=False),
            "wk": pc.cast(batch["ts"], pa.int64())
            .to_numpy(zero_copy_only=False) // WEEK_US,
        }).drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    def per_bucket(tbl: pa.Table) -> pa.Table:
        import pandas as pd
        df = pd.DataFrame({
            "user_id": pc.cast(tbl["user_id"], pa.int64())
            .to_numpy(zero_copy_only=False),
            "wk": pc.cast(tbl["wk"], pa.int64())
            .to_numpy(zero_copy_only=False),
        }).drop_duplicates()
        have = set(zip(df["user_id"].to_numpy(), df["wk"].to_numpy()))
        churned = np.asarray(
            [(u, w + 1) not in have
             for u, w in zip(df["user_id"].to_numpy(),
                             df["wk"].to_numpy())], dtype=np.int64)
        df["churned"] = churned
        g = df.groupby("wk").agg(n_active=("user_id", "size"),
                                 n_churned=("churned", "sum"))
        return pa.table({
            "wk": pa.array(g.index.to_numpy(np.int64)),
            "n_active": pa.array(g["n_active"].to_numpy(np.int64)),
            "n_churned": pa.array(g["n_churned"].to_numpy(np.int64)),
        })

    cells = grouped_by_bucket(
        events_ds.map_batches(pre, batch_format="pyarrow"),
        per_bucket, key="user_id", coalesce=False)
    acc: dict[int, list[int]] = {}
    for b in cells.iter_batches(batch_format="pyarrow"):
        for r in b.to_pylist():
            a = acc.setdefault(r["wk"], [0, 0])
            a[0] += r["n_active"]
            a[1] += r["n_churned"]
    if not acc:
        return pa.table({"wk": pa.array([], pa.int64()),
                         "n_active": pa.array([], pa.int64()),
                         "n_churned": pa.array([], pa.int64()),
                         "churn_rate6": pa.array([], pa.float64())})
    mw = max(acc)
    ks = sorted(k for k in acc if k < mw)
    return pa.table({
        "wk": pa.array(ks, pa.int64()),
        "n_active": pa.array([acc[k][0] for k in ks], pa.int64()),
        "n_churned": pa.array([acc[k][1] for k in ks], pa.int64()),
        "churn_rate6": pa.array(
            [float(np.round(acc[k][1] / acc[k][0], 6)) for k in ks],
            pa.float64()),
    })


def event_type_lift(events_ds):
    """Market-basket lift between event types at USER granularity:
    lift(a,b) = P(a∧b) / (P(a)·P(b)) over the distinct-user universe —
    the cross-sell / feature-affinity score. Output: (type_a, type_b,
    n_both, lift6) for unordered pairs with n_both ≥ 1.

    Scale: per-batch distinct (user, type) partials, ONE user-bucket
    exchange; per bucket the pair expansion is bounded by |types|² per
    user set, and the emitted cells by |types|² + |types| + 1; the
    driver folds bounded cells. Exact SQL mirror "event_type_lift"."""
    from ..stages.buckets import grouped_by_bucket

    def pre(batch: pa.Table) -> pa.Table:
        import pandas as pd
        df = pd.DataFrame({
            "user_id": pc.cast(batch["user_id"], pa.int64())
            .to_numpy(zero_copy_only=False),
            "event_type": batch["event_type"].to_pylist(),
        }).drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    def per_bucket(tbl: pa.Table) -> pa.Table:
        import pandas as pd
        df = pd.DataFrame({
            "user_id": pc.cast(tbl["user_id"], pa.int64())
            .to_numpy(zero_copy_only=False),
            "event_type": tbl["event_type"].to_pylist(),
        }).drop_duplicates()
        singles: dict[str, int] = {}
        pairs: dict[tuple[str, str], int] = {}
        n_users = 0
        for _, types in df.groupby("user_id")["event_type"]:
            ts = sorted(types)
            n_users += 1
            for i, a in enumerate(ts):
                singles[a] = singles.get(a, 0) + 1
                for b in ts[i + 1:]:
                    pairs[(a, b)] = pairs.get((a, b), 0) + 1
        ka = sorted(pairs)
        ks = sorted(singles)
        return pa.table({
            "kind": pa.array(["u"] + ["s"] * len(ks) + ["p"] * len(ka),
                             pa.string()),
            "type_a": pa.array([""] + ks + [a for a, _ in ka],
                               pa.string()),
            "type_b": pa.array([""] * (1 + len(ks)) + [b for _, b in ka],
                               pa.string()),
            "n": pa.array([n_users] + [singles[k] for k in ks]
                          + [pairs[k] for k in ka], pa.int64()),
        })

    cells = grouped_by_bucket(
        events_ds.map_batches(pre, batch_format="pyarrow"),
        per_bucket, key="user_id", coalesce=False)
    nu = 0
    singles: dict[str, int] = {}
    pairs: dict[tuple[str, str], int] = {}
    for b in cells.iter_batches(batch_format="pyarrow"):
        for r in b.to_pylist():
            if r["kind"] == "u":
                nu += r["n"]
            elif r["kind"] == "s":
                singles[r["type_a"]] = (
                    singles.get(r["type_a"], 0) + r["n"])
            else:
                k = (r["type_a"], r["type_b"])
                pairs[k] = pairs.get(k, 0) + r["n"]
    ka = sorted(pairs)
    return pa.table({
        "type_a": pa.array([a for a, _ in ka], pa.string()),
        "type_b": pa.array([b for _, b in ka], pa.string()),
        "n_both": pa.array([pairs[k] for k in ka], pa.int64()),
        "lift6": pa.array(
            [float(np.round(
                float(pairs[(a, b)]) * nu
                / (singles[a] * float(singles[b])), 6))
             for a, b in ka], pa.float64()),
    })


DAY_US = 86_400_000_000


def rolling_active_7d(events_ds):
    """7-day rolling active users per day — the WAU-style trend line.
    For every day d between the first and last event day, the count of
    users with ≥1 event in [d-6, d]; days with zero actives are
    omitted (they have no rows on either engine). Output:
    (d, n_active_7d).

    Scale: per-batch distinct (user, day) partials, ONE user-bucket
    exchange; per bucket each user's active-day set collapses into
    merged [day, day+6] coverage intervals emitted as ±1 DIFF cells
    (≤2 per interval) — never a row per (user, window). The driver
    prefix-sums the bounded day domain and clips at the global max
    event day. Exact SQL mirror "rolling_active_7d"."""
    from ..stages.buckets import grouped_by_bucket

    def pre(batch: pa.Table) -> pa.Table:
        import pandas as pd
        df = pd.DataFrame({
            "user_id": pc.cast(batch["user_id"], pa.int64())
            .to_numpy(zero_copy_only=False),
            "d": pc.cast(batch["ts"], pa.int64())
            .to_numpy(zero_copy_only=False) // DAY_US,
        }).drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    def per_bucket(tbl: pa.Table) -> pa.Table:
        import pandas as pd
        df = pd.DataFrame({
            "user_id": pc.cast(tbl["user_id"], pa.int64())
            .to_numpy(zero_copy_only=False),
            "d": pc.cast(tbl["d"], pa.int64())
            .to_numpy(zero_copy_only=False),
        }).drop_duplicates()
        diffs: dict[int, int] = {}
        dmax_seen = -1
        for _, days in df.groupby("user_id")["d"]:
            ds = sorted(days)
            dmax_seen = max(dmax_seen, ds[-1])
            start, end = ds[0], ds[0] + 6
            for d in ds[1:]:
                if d <= end:          # window overlaps/extends
                    end = d + 6
                else:
                    diffs[start] = diffs.get(start, 0) + 1
                    diffs[end + 1] = diffs.get(end + 1, 0) - 1
                    start, end = d, d + 6
            diffs[start] = diffs.get(start, 0) + 1
            diffs[end + 1] = diffs.get(end + 1, 0) - 1
        ks = sorted(diffs)
        return pa.table({
            "d": pa.array(ks + [-1], pa.int64()),
            "diff": pa.array([diffs[k] for k in ks] + [0], pa.int64()),
            "dmax": pa.array([0] * len(ks) + [dmax_seen], pa.int64()),
        })

    cells = grouped_by_bucket(
        events_ds.map_batches(pre, batch_format="pyarrow"),
        per_bucket, key="user_id", coalesce=False)
    diffs: dict[int, int] = {}
    dmax = -1
    for b in cells.iter_batches(batch_format="pyarrow"):
        for r in b.to_pylist():
            if r["d"] == -1:
                dmax = max(dmax, r["dmax"])
            else:
                diffs[r["d"]] = diffs.get(r["d"], 0) + r["diff"]
    ks = sorted(k for k in diffs)
    out_d, out_n = [], []
    run = 0
    prev = None
    for k in ks:
        if prev is not None and run > 0:
            for d in range(prev, min(k, dmax + 1)):
                out_d.append(d)
                out_n.append(run)
        run += diffs[k]
        prev = k
    # tail after the last diff is always run == 0 (every +1 is closed)
    return pa.table({"d": pa.array(out_d, pa.int64()),
                     "n_active_7d": pa.array(out_n, pa.int64())})


def interval_join_counts(events_ds):
    """Broadcast interval join (the third temporal join Ray Data
    lacks, after as-of and range self-join): count ALL events whose ts
    falls inside each event-type's opening window — the interval table
    is derived per type as [min_ts, min_ts + (max_ts − min_ts)//q]
    (its first 1/q of activity), kept deliberately data-derived so the
    op is deterministic with a pure-SQL mirror.

    Shape for 100 TB: the interval side is BOUNDED (one row per event
    type) — min/max come from one map-side-combined stats pass, the
    intervals broadcast into a map-only counting pass whose exchange
    carries ≤ types rows per block. No shuffle of the event stream at
    all; this is the broadcast-small-side pattern every interval join
    against a dimension table (maintenance windows, campaign flights,
    incident spans) should take. Output: (event_type, n_overlap) — the
    interval's OWNER type, counting events of every type inside it."""
    from ..stages.agg import grouped_stats

    def pre(batch: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": batch["event_type"],
            "us": pc.cast(pc.cast(batch["ts"], pa.timestamp("us")),
                          pa.int64()),
        })

    stats = grouped_stats(events_ds, "event_type",
                          [("us", "min"), ("us", "max")], pre=pre,
                          combine="driver")
    types = stats["event_type"].to_pylist()
    lo = np.asarray(stats["min_us"].to_pylist(), dtype=np.int64)
    hi = lo + (np.asarray(stats["max_us"].to_pylist(),
                          dtype=np.int64) - lo) // 4

    def count_in(batch: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(batch["ts"], pa.timestamp("us")),
                     pa.int64()).to_numpy(zero_copy_only=False)
        # types is tiny (≤ dozens): a types×N broadcast compare is the
        # vectorized form; per-type counts per block
        n = ((us[None, :] >= lo[:, None])
             & (us[None, :] <= hi[:, None])).sum(axis=1)
        return pa.table({
            "event_type": pa.array(types, pa.string()),
            "n": pa.array(n.astype(np.int64)),
        })

    acc = np.zeros(len(types), dtype=np.int64)
    for b in (events_ds.map_batches(count_in, batch_format="pyarrow")
              .iter_batches(batch_format="pyarrow")):
        # an iter batch may concatenate several block partials
        tmap = {t: i for i, t in enumerate(types)}
        for r in b.to_pylist():
            acc[tmap[r["event_type"]]] += r["n"]
    order = np.argsort(np.asarray(types, dtype=object))
    return pa.table({
        "event_type": pa.array([types[i] for i in order], pa.string()),
        "n_overlap": pa.array(acc[order], pa.int64()),
    })


FUNNEL3_W_US = 86_400_000_000     # 1 day per consecutive step


def funnel_stages(events_ds):
    """Ordered k-step windowed funnel (the CEP pattern the 2-step
    ``funnel_conversions`` doesn't cover): per user, the deepest stage
    s such that the first s of view, click, purchase occur in order with
    each consecutive gap ≤ ``FUNNEL3_W_US`` (inclusive bounds; equal
    timestamps satisfy the order). Greedy-earliest is WRONG here — an
    early step-2 event can strand a late step-3 — so each stage
    validates against the FULL set of prior-stage-valid events: event
    e of step k is valid iff any step-(k−1)-valid event lies in
    [ts(e) − window, ts(e)].

    Shape: ONE user-bucket exchange (stages/buckets); inside a call,
    per-stage validity is a segmented searchsorted of stage-k rows
    against the stage-(k−1)-valid rows (``_seg_searchsorted`` with
    separate query segments — no per-user Python dispatch). Output:
    (user_id, stage), stage ≥ 1, one row per user that reached step 1.
    """
    from ..stages.buckets import grouped_by_bucket

    step_list = ["view", "click", "purchase"]

    def pre(batch: pa.Table) -> pa.Table:
        keep = pc.is_in(batch["event_type"],
                        value_set=pa.array(step_list))
        b = batch.filter(keep)
        step = pc.index_in(b["event_type"],
                           value_set=pa.array(step_list))
        return pa.table({
            "user_id": b["user_id"],
            "us": pc.cast(pc.cast(b["ts"], pa.timestamp("us")),
                          pa.int64()),
            "step": pc.cast(step, pa.int8()),
        })

    def sweep(tbl: pa.Table) -> pa.Table:
        user = pc.cast(tbl["user_id"], pa.int64()).to_numpy(
            zero_copy_only=False)
        us = tbl["us"].to_numpy(zero_copy_only=False)
        step = tbl["step"].to_numpy(zero_copy_only=False)
        order = np.lexsort((us, user))
        u, t, st = user[order], us[order], step[order]
        sid = np.cumsum(run_starts(u)) - 1
        n_seg = int(sid[-1]) + 1 if len(sid) else 0
        # stage 1 seeds: every step-0 row is valid
        valid_t, valid_sid = t[st == 0], sid[st == 0]
        reached = np.zeros(n_seg, dtype=np.int64)
        reached[np.unique(valid_sid)] = 1
        for k in range(1, len(step_list)):
            mask = st == k
            qt, qsid = t[mask], sid[mask]
            if not len(qt) or not len(valid_t):
                break
            # any prior-stage-valid event in [qt - window, qt]?
            lo_i = _seg_searchsorted(valid_t, valid_sid, qt - FUNNEL3_W_US,
                                     "left", query_sid=qsid)
            hi_i = _seg_searchsorted(valid_t, valid_sid, qt, "right",
                                     query_sid=qsid)
            # guard cross-segment bleed: the hit range must hold a row
            # of the SAME segment — check the first candidate's sid
            ok = hi_i > lo_i
            ok &= np.where(ok, valid_sid[np.clip(lo_i, 0,
                                                 len(valid_sid) - 1)]
                           == qsid, False)
            valid_t, valid_sid = qt[ok], qsid[ok]
            if len(valid_sid):
                reached[np.unique(valid_sid)] = k + 1
        users = u[np.flatnonzero(run_starts(u))]
        hit = reached > 0
        return pa.table({
            "user_id": pa.array(users[hit], pa.int64()),
            "stage": pa.array(reached[hit], pa.int64()),
        })

    pruned = events_ds.map_batches(pre, batch_format="pyarrow")
    return grouped_by_bucket(pruned, sweep, key="user_id")


SYMBOL_OF = {"view": "v", "click": "c", "purchase": "p",
             "signup": "s", "error": "e"}


def match_recognize_counts(events_ds):
    """Sequence pattern matching over event streams — the
    MATCH_RECOGNIZE / CEP surface (SQL:2016 row-pattern recognition,
    Flink CEP), reduced to its regex core: each user's events become a
    symbol string in (ts, event_id) order (one char per type) and the
    pattern counts its NON-OVERLAPPING left-to-right matches — both
    engines use RE2-style leftmost semantics, so counts agree exactly.
    Default 'vc*p' = view, any clicks, then purchase.

    Shape: ONE user-bucket exchange (stages/buckets); inside a call the
    symbol string per user is one slice of a single bytes buffer built
    from the sorted codes (O(events) total), and the compiled regex
    runs once per user string — matching is inherently per-sequence,
    but the per-call loop is over ~100s of users, not a Ray dispatch
    per user. Output: (user_id, n_matches), users with ≥1 match."""
    import re as _re

    from ..stages.buckets import grouped_by_bucket

    types = list(SYMBOL_OF)
    syms = np.frombuffer("".join(SYMBOL_OF[t] for t in types).encode(),
                         dtype=np.uint8)
    rx = _re.compile("vc*p")

    def pre(batch: pa.Table) -> pa.Table:
        keep = pc.is_in(batch["event_type"], value_set=pa.array(types))
        b = batch.filter(keep)
        code = pc.index_in(b["event_type"], value_set=pa.array(types))
        return pa.table({
            "user_id": b["user_id"],
            "us": pc.cast(pc.cast(b["ts"], pa.timestamp("us")),
                          pa.int64()),
            "event_id": pc.cast(b["event_id"], pa.int64()),
            "code": pc.cast(code, pa.int8()),
        })

    def sweep(tbl: pa.Table) -> pa.Table:
        user = pc.cast(tbl["user_id"], pa.int64()).to_numpy(
            zero_copy_only=False)
        us = tbl["us"].to_numpy(zero_copy_only=False)
        eid = tbl["event_id"].to_numpy(zero_copy_only=False)
        code = tbl["code"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, us, user))
        u = user[order]
        buf = syms[code[order].astype(np.int64)].tobytes().decode()
        sidx = np.flatnonzero(run_starts(u))
        eidx = np.append(sidx[1:], len(u))
        out_u, out_n = [], []
        for s, e in zip(sidx, eidx):
            n = len(rx.findall(buf[s:e]))
            if n:
                out_u.append(int(u[s]))
                out_n.append(n)
        return pa.table({
            "user_id": pa.array(out_u, pa.int64()),
            "n_matches": pa.array(out_n, pa.int64()),
        })

    pruned = events_ds.map_batches(pre, batch_format="pyarrow")
    return grouped_by_bucket(pruned, sweep, key="user_id")
