"""Multiline log-record reassembly (stack traces, wrapped payloads).

The classic log-pipeline operator the reference handles at the framing
layer (a TCP frame may carry a partial record; continuation lines must
be glued to the record they belong to): a line that does NOT open with
a syslog PRI header (``<digit``) is a continuation of the previous
record in its stream. Reference surface: the reference's stream splitter
keeps per-connection state for exactly this (services framing); here the
stream is the conversation and ordering is ``turn_idx``.

Distributed shape: gaps-and-islands. ``groupby(conv_id).map_groups``
co-locates one stream per group (same partitioning contract as
``q_conv_text`` — streams are bounded, whales are a generator
impossibility here); inside the group a vectorized cumsum over the
start-flags assigns island ids and one ``np.add.reduceat``-style pass
builds the merged records. Leading continuations with no opener form
island 0 on both engines (SQL: ``sum(flag) OVER (... ROWS UNBOUNDED
PRECEDING)``), so the oracle reproduces the grouping exactly.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# a record OPENS when the line starts with a syslog PRI ("<3>..."):
# everything else is a continuation of the record above it
START_RE = r"^<[0-9]"


def merge_multiline(ds):
    """(stream, rec_idx, n_lines, record): one row per reassembled
    record, continuation lines joined with newlines in stream order."""

    from ..stages.buckets import (grouped_by_bucket, run_starts,
                                  segmented_cumsum)

    def assemble(batch: pa.Table) -> pa.Table:
        # many streams per call (hash-bucket co-location): one lexsort,
        # islands via a within-stream segmented cumsum of start flags
        conv = np.asarray(batch["conv_id"].to_pylist(), dtype=object)
        order_v = batch["turn_idx"].to_numpy(zero_copy_only=False)
        idx = np.lexsort((order_v, conv))
        conv_s = conv[idx]
        take = pa.array(idx, pa.int64())
        texts_s = pc.take(batch["text"], take)
        flags = pc.match_substring_regex(texts_s, START_RE) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        sstarts = run_starts(conv_s)
        island = segmented_cumsum(flags, sstarts)
        rec_start = (flags == 1) | sstarts
        rs = np.flatnonzero(rec_start)
        re_ = np.append(rs[1:], len(conv_s))
        texts = texts_s.to_pylist()
        return pa.table({
            "conv_id": pa.array([conv_s[s] for s in rs], pa.string()),
            "rec_idx": pa.array(island[rs], pa.int64()),
            "n_lines": pa.array(re_ - rs, pa.int64()),
            "record": pa.array(
                ["\n".join(texts[s:e]) for s, e in zip(rs, re_)],
                pa.string()),
        })

    return grouped_by_bucket(ds, assemble, key="conv_id")


def multiline_oracle_sql(tpath: str) -> str:
    """Identical gaps-and-islands grouping in DuckDB over the raw
    transcript lines (START_RE inlined so the two cannot drift)."""
    return f"""
WITH t AS (
  SELECT conv_id, turn_idx, text,
         CASE WHEN regexp_matches(text, '{START_RE}') THEN 1 ELSE 0 END AS s
  FROM read_parquet('{tpath}')
), i AS (
  SELECT conv_id, turn_idx, text,
         sum(s) OVER (PARTITION BY conv_id ORDER BY turn_idx
                      ROWS UNBOUNDED PRECEDING) AS island
  FROM t
)
SELECT conv_id, CAST(island AS BIGINT) AS rec_idx,
       CAST(count(*) AS BIGINT) AS n_lines,
       string_agg(text, chr(10) ORDER BY turn_idx) AS record
FROM i GROUP BY conv_id, island"""


def repeat_reduce(ds):
    """Repeated-message reduction — syslogd's "last message repeated N
    times" suppression, the dedup every log pipeline applies BEFORE
    storage (the reference inherits it from the syslog ecosystem its
    sources speak): consecutive identical messages within a stream
    collapse to one row carrying the repeat count.

    Distributed shape: gaps-and-islands like ``merge_multiline`` — ONE
    stream-bucket exchange (stages/buckets), then a vectorized pass
    per call: dictionary-encode the text so run breaks are integer
    compares, island ids via within-stream segmented cumsum, one row
    per island. Output: (conv_id, first_idx, n_repeats, text) in
    stream order; n_repeats = run length (1 = not repeated)."""
    from ..stages.buckets import grouped_by_bucket, run_starts

    def collapse(batch: pa.Table) -> pa.Table:
        conv = np.asarray(batch["conv_id"].to_pylist(), dtype=object)
        order_v = batch["turn_idx"].to_numpy(zero_copy_only=False)
        idx = np.lexsort((order_v, conv))
        conv_s = conv[idx]
        take = pa.array(idx, pa.int64())
        texts_s = pc.take(batch["text"], take)
        order_s = order_v[idx]
        d = pc.dictionary_encode(texts_s)
        if isinstance(d, pa.ChunkedArray):
            d = d.combine_chunks()
        codes = d.indices.to_numpy(zero_copy_only=False)
        sstarts = run_starts(conv_s)
        brk = sstarts.copy()
        if len(codes) > 1:
            brk[1:] |= codes[1:] != codes[:-1]
        rs = np.flatnonzero(brk)
        re_ = np.append(rs[1:], len(conv_s))
        return pa.table({
            "conv_id": pa.array([conv_s[s] for s in rs], pa.string()),
            "first_idx": pa.array(order_s[rs].astype(np.int64),
                                  pa.int64()),
            "n_repeats": pa.array(re_ - rs, pa.int64()),
            "text": pc.take(texts_s, pa.array(rs, pa.int64())),
        })

    return grouped_by_bucket(ds, collapse, key="conv_id")
