"""Benchmark decontamination and TF-IDF term scoring over ``documents``.

Both are two-pass, broadcast-small-side designs — the canonical shape
for "per-row scoring against a global, bounded summary" at 100 TB:

- ``decontaminate``: pass 1 collects the *benchmark* shingle set (eval
  suites are KBs–MBs by premise — tiny next to the corpus) and
  broadcasts it once via ``ray.put``; pass 2 is an embarrassingly
  parallel map scoring every corpus doc's shingle overlap against the
  broadcast set. No join, no shuffle: the classic held-out-eval
  contamination check (as in open LLM training-data pipelines).
- ``tfidf_top_terms``: pass 1 computes document frequency per term with
  the map-side-combine counter (vocabulary-bounded result), broadcasts
  the DF dict; pass 2 scores terms per doc and keeps the top-K. The
  only exchange is the tiny DF partial table.

md5-based shingles match functions/dedup.shingles_of so the DuckDB
oracles share the shingle CTE.
"""

from __future__ import annotations

import math
from collections import Counter

import pyarrow as pa

import ray

from .dedup import shingles_of
from .textstats import norm_words

BENCH_MOD = 97  # doc_id % BENCH_MOD == 0 → benchmark member (test split)
TFIDF_K = 3

# Broadcast objects deserialized once per WORKER PROCESS, not once per
# batch: plasma caches the serialized bytes per node, but a bare
# ray.get in the batch fn would rebuild the Python set/dict every call.
_BCAST_CACHE: dict[str, object] = {}


def _cached_get(ref):
    key = ref.hex()
    obj = _BCAST_CACHE.get(key)
    if obj is None:
        import ray as _ray
        if len(_BCAST_CACHE) > 8:   # bound per-worker growth across refs
            _BCAST_CACHE.clear()
        obj = _ray.get(ref)
        _BCAST_CACHE[key] = obj
    return obj


def benchmark_shingle_ref(docs_ds, mod: int = BENCH_MOD):
    """Collect the benchmark docs' shingle set and broadcast it.

    The driver-side union is over *benchmark* shingles only (small by
    premise); the corpus itself is never materialized."""

    def bench_shingles(batch: pa.Table) -> pa.Table:
        out: set[str] = set()
        for d, t in zip(batch["doc_id"].to_pylist(),
                        batch["text"].to_pylist()):
            if d % mod == 0:
                out |= shingles_of(t)
        return pa.table({"s": pa.array(sorted(out), pa.string())})

    rows = docs_ds.map_batches(bench_shingles,
                               batch_format="pyarrow").take_all()
    return ray.put(frozenset(r["s"] for r in rows))


def decontaminate(docs_ds, mod: int = BENCH_MOD):
    """(doc_id, n_overlap, contaminated) for every non-benchmark doc:
    n_overlap = |shingles(doc) ∩ shingles(benchmark)|."""
    ref = benchmark_shingle_ref(docs_ds, mod)

    def fn(batch: pa.Table) -> pa.Table:
        bench = _cached_get(ref)
        ids, n_ov = [], []
        for d, t in zip(batch["doc_id"].to_pylist(),
                        batch["text"].to_pylist()):
            if d % mod == 0:
                continue
            ids.append(d)
            n_ov.append(len(shingles_of(t) & bench))
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "n_overlap": pa.array(n_ov, pa.int64()),
            "contaminated": pa.array([n > 0 for n in n_ov], pa.bool_()),
        })

    return docs_ds.map_batches(fn, batch_format="pyarrow")


def _df_pre(batch: pa.Table) -> pa.Table:
    terms: list[str] = []
    for t in batch["text"].to_pylist():
        terms.extend(set(norm_words(t)))
    return pa.table({"term": pa.array(terms, pa.string())})


def tfidf_top_terms(docs_ds, k: int = TFIDF_K):
    """Top-K terms per doc by tf·ln(N/df); ties broken by term asc.

    Output: (doc_id, rank, term, tfidf) with tfidf rounded to 6 dp.
    N counts every document (including empty ones); docs with no words
    emit no rows.

    Partitioning assumption: the DF table (one row per distinct term)
    must fit the driver and the broadcast — true for bounded-vocabulary
    corpora (logs, templated text), NOT for open web text at 100 TB
    where Heaps'-law vocabulary growth makes the dict multi-GB. For
    that regime, swap the driver combine for grouped_count(...,
    combine="shuffle") plus a term-keyed join of (doc_id, term, tf)
    against the DF dataset — two shuffles instead of a broadcast — and
    prune with a min_df floor first."""
    from ..stages.agg import grouped_count
    df_tbl = grouped_count(docs_ds, ["term"], pre=_df_pre)
    n_docs = docs_ds.count()
    df_ref = ray.put(dict(zip(df_tbl["term"].to_pylist(),
                              df_tbl["n"].to_pylist())))

    def fn(batch: pa.Table) -> pa.Table:
        df = _cached_get(df_ref)
        ids, ranks, terms, scores = [], [], [], []
        for d, t in zip(batch["doc_id"].to_pylist(),
                        batch["text"].to_pylist()):
            tf = Counter(norm_words(t))
            scored = sorted(
                ((-c * math.log(n_docs / df[w]), w) for w, c in tf.items()))
            for r, (neg, w) in enumerate(scored[:k], start=1):
                ids.append(d)
                ranks.append(r)
                terms.append(w)
                scores.append(round(-neg, 6))
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "rank": pa.array(ranks, pa.int64()),
                         "term": pa.array(terms, pa.string()),
                         "tfidf": pa.array(scores, pa.float64())})

    return docs_ds.map_batches(fn, batch_format="pyarrow")


BLOOM_M = 4096   # filter bits
BLOOM_K = 3      # hash probes per element (md5 hex slices)


def _bloom_positions(s: str) -> list[int]:
    """K bit positions from one md5: three disjoint 8-hex-char slices
    mod M — deterministic, so the DuckDB oracle rebuilds the identical
    filter."""
    import hashlib
    h = hashlib.md5(s.encode()).hexdigest()
    return [int(h[8 * i:8 * i + 8], 16) % BLOOM_M for i in range(BLOOM_K)]


def bloom_decontaminate(docs_ds):
    """Space-bounded decontamination: the benchmark shingle set is
    folded into a BLOOM_M-bit Bloom filter (vs the exact broadcast set
    of ``decontaminate``), and every corpus doc reports how many of its
    shingles HIT the filter. No false negatives (n_hits ≥ the exact
    overlap), bounded false positives — the classic trade when the
    exact eval-suite set outgrows a comfortable broadcast.

    Shape: pass 1 collects ≤ M distinct bit positions (the driver
    union touches the BIT DOMAIN, never the corpus); the position set
    broadcasts once via ``ray.put`` (≤ M ints regardless of benchmark
    size — strictly smaller than the exact path's shingle set); pass 2
    is an embarrassingly parallel map. Output: (doc_id, n_shingles,
    n_hits) for non-benchmark docs with ≥1 shingle."""

    def bench_positions(batch: pa.Table) -> pa.Table:
        pos: set[int] = set()
        for d, t in zip(batch["doc_id"].to_pylist(),
                        batch["text"].to_pylist()):
            if d % BENCH_MOD == 0:
                for s in shingles_of(t):
                    pos.update(_bloom_positions(s))
        return pa.table({"p": pa.array(sorted(pos), pa.int32())})

    rows = docs_ds.map_batches(bench_positions,
                               batch_format="pyarrow").take_all()
    bits = frozenset(r["p"] for r in rows)
    ref = ray.put(bits)

    def fn(batch: pa.Table) -> pa.Table:
        bset = _cached_get(ref)
        ids, n_sh, n_hit = [], [], []
        for d, t in zip(batch["doc_id"].to_pylist(),
                        batch["text"].to_pylist()):
            if d % BENCH_MOD == 0:
                continue
            sh = shingles_of(t)
            if not sh:
                continue
            ids.append(d)
            n_sh.append(len(sh))
            n_hit.append(sum(
                all(p in bset for p in _bloom_positions(s))
                for s in sh))
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "n_shingles": pa.array(n_sh, pa.int64()),
            "n_hits": pa.array(n_hit, pa.int64()),
        })

    return docs_ds.map_batches(fn, batch_format="pyarrow")
