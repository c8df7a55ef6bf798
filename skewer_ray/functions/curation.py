"""Corpus-curation operators a large-scale training-data pipeline needs:
deterministic sampling, per-group quota capping, and document chunking.

All three are built for the 100-TB regime:

- ``sample_docs``: embarrassingly parallel map — membership is a pure
  function of the row key (md5 prefix), so the sample is reproducible
  across runs/engines/partitionings and needs no coordination or RNG
  state. md5 keeps the DuckDB oracle bit-exact (same convention as the
  dedup family).
- ``cap_per_group``: two-phase top-K — per-batch partial top-K first,
  so the shuffle carries at most (groups × K) rows per batch, never the
  corpus; a whale group costs K rows per batch it appears in, not its
  full size (same skew shape as stages/agg.grouped_stats).
- ``chunk_docs``: 1→N sliding-window chunking, fully vectorized — one
  Arrow utf8_slice per chunk index over the whole batch rather than a
  Python loop per row.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

SAMPLE_PREFIX = 0x1A  # keep rows whose md5(key) first byte < 0x1a (26/256)


def sample_docs(docs_ds):
    """Deterministic ~(SAMPLE_PREFIX/256) sample: keep rows where
    md5(str(doc_id))[0] < SAMPLE_PREFIX. Oracle: substr(md5(..),1,2) <
    hex(SAMPLE_PREFIX) — lexicographic hex compare equals the byte
    compare."""

    def fn(batch: pa.Table) -> pa.Table:
        keys = batch["doc_id"].to_pylist()
        keep = np.fromiter(
            (hashlib.md5(str(k).encode()).digest()[0] < SAMPLE_PREFIX
             for k in keys), dtype=bool, count=len(keys))
        return batch.select(["doc_id", "lang", "source"]).filter(
            pa.array(keep))

    return docs_ds.map_batches(fn, batch_format="pyarrow")


def local_topk_table(batch: pa.Table, group_col: str, order_col: str,
                     k: int, cols: tuple[str, ...]) -> pa.Table:
    """Per-batch top-K per group (the partial kernel of
    ``cap_per_group``; exposed so the skew test can assert its output
    bound directly): ≤ distinct-groups-in-batch × K rows out."""
    t = batch.select(list(cols)).sort_by(
        [(group_col, "ascending"), (order_col, "ascending")])
    g = t[group_col].to_numpy(zero_copy_only=False)
    # rank within consecutive group runs (input sorted by group)
    starts = np.flatnonzero(np.r_[True, g[1:] != g[:-1]])
    rank = np.arange(len(g)) - np.repeat(
        starts, np.diff(np.r_[starts, len(g)]))
    return t.filter(pa.array(rank < k))


def cap_per_group(docs_ds, k: int = 50):
    """Keep the K smallest ``doc_id`` rows per ``source`` (quota
    capping, e.g. max N documents per domain).

    Phase 1 (map): per-batch top-K per group — output ≤ groups×K rows
    per batch. Phase 2 (shuffle): groupby(group) over partials, final
    top-K per group. Associative, so two-phase is exact."""

    def local_topk(batch: pa.Table) -> pa.Table:
        return local_topk_table(batch, "source", "doc_id", k,
                                ("doc_id", "source", "lang"))

    partials = docs_ds.map_batches(local_topk, batch_format="pyarrow")
    return partials.groupby("source").map_groups(
        local_topk, batch_format="pyarrow")


def chunk_table(batch: pa.Table, size: int, stride: int) -> pa.Table:
    """One batch of 1→N sliding-window chunks (the per-batch kernel of
    ``chunk_docs``; exposed for direct/property testing): one Arrow
    utf8_slice_codeunits call per chunk index covers the whole batch;
    rows too short for that index are filtered by a length mask."""
    n = pc.utf8_length(batch["text"])
    max_len = pc.max(n).as_py() or 0
    ids, idxs, chunks = [], [], []
    i = 0
    while i * stride < max_len:
        off = i * stride
        alive = pc.greater(n, off)
        sub_ids = batch["doc_id"].filter(alive)
        sub_txt = pc.utf8_slice_codeunits(
            batch["text"].filter(alive), off, off + size)
        ids.append(sub_ids)
        idxs.append(pa.array(
            np.full(len(sub_ids), i, dtype=np.int64), pa.int64()))
        chunks.append(sub_txt)
        i += 1
    if not ids:
        return pa.table({"doc_id": pa.array([], batch["doc_id"].type),
                         "chunk_idx": pa.array([], pa.int64()),
                         "chunk": pa.array([], pa.string())})
    cat = lambda xs: pa.concat_arrays(  # noqa: E731
        [x.combine_chunks() if isinstance(x, pa.ChunkedArray) else x
         for x in xs])
    return pa.table({"doc_id": cat(ids),
                     "chunk_idx": cat(idxs),
                     "chunk": cat(chunks)})


def chunk_docs(docs_ds):
    """1→N sliding-window chunks: (doc_id, chunk_idx, chunk) with
    ``chunk = text[chunk_idx*150 : chunk_idx*150 + 200]`` (stride 150,
    size 200), for every chunk_idx with chunk_idx*150 < len(text).
    Chunk count per batch is bounded by the longest document, not the
    row count."""

    def fn(batch: pa.Table) -> pa.Table:
        return chunk_table(batch, 200, 150)

    return docs_ds.select_columns(["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow")


# per-language stratified sampling rates, as first-md5-byte bounds
# (256ths): en is downsampled hard, tail languages kept aggressively —
# the standard corpus-rebalancing move
STRATA_BOUNDS = {"en": 0x20, "zh": 0x80, "es": 0x80, "de": 0xc0,
                 "fr": 0xc0}
STRATA_DEFAULT = 0x40


def stratified_sample(docs_ds):
    """Deterministic per-stratum sampling: keep a row iff
    md5(str(doc_id))[0] < STRATA_BOUNDS.get(lang, STRATA_DEFAULT). Same
    pure-function membership as ``sample_docs`` (reproducible across
    engines/partitionings, no RNG state, map-only — nothing shuffles),
    but the keep-rate is per group, which is how corpus language/source
    rebalancing is actually run at scale."""

    def fn(batch: pa.Table) -> pa.Table:
        keys = batch["doc_id"].to_pylist()
        strata = batch["lang"].to_pylist()
        keep = np.fromiter(
            (hashlib.md5(str(k).encode()).digest()[0]
             < STRATA_BOUNDS.get(s, STRATA_DEFAULT)
             for k, s in zip(keys, strata)),
            dtype=bool, count=len(keys))
        return batch.select(["doc_id", "lang", "source"]).filter(
            pa.array(keep))

    return docs_ds.map_batches(fn, batch_format="pyarrow")


def weighted_sample_docs(docs_ds):
    """Quality-weighted sampling: keep each document with probability
    equal to its quality score — high-quality docs survive, low-quality
    docs thin out proportionally (the soft alternative to the hard
    quantile gate). Membership is deterministic: keep iff
    h64(doc_id) < floor(quality × 2⁶⁴) with h64 = first 8 md5 bytes —
    a pure function of the row, so the sample is reproducible across
    engines/partitionings/reruns and the whole operator is map-only
    (the score and the coin live in the same batch; nothing shuffles).
    """
    from .textstats import text_stats_batch

    def fn(batch: pa.Table) -> pa.Table:
        s = text_stats_batch(batch)
        qual = s["quality"].to_numpy(zero_copy_only=False)
        ids = s["doc_id"].to_pylist()
        keep = np.fromiter(
            (int.from_bytes(hashlib.md5(str(i).encode()).digest()[:8],
                            "big") < int(q * float(1 << 64))
             for i, q in zip(ids, qual)),
            dtype=bool, count=len(ids))
        return pa.table({"doc_id": s["doc_id"],
                         "quality": s["quality"]}).filter(pa.array(keep))

    return docs_ds.map_batches(fn, batch_format="pyarrow")


MIX_TARGETS = {"en": 40, "zh": 15, "es": 15, "de": 15, "fr": 15}


def rebalance_mix(docs_ds,
                  cols: tuple[str, ...] = ("doc_id", "lang", "source")):
    """Corpus mix rebalancing: downsample each language so the surviving
    corpus matches a target mix (integer weights), keeping as much data
    as possible — the binding stratum (smallest count/weight ratio) is
    kept whole and every other stratum is thinned to proportion.

    Shape: pass 1 is a per-language count via map-side combine (the
    language domain is tiny, so only a handful of partial rows cross);
    the keep-rates are solved on the driver in EXACT integer arithmetic
    (keep_i = w_i·n_m / (w_m·n_i) as a rational, binding stratum chosen
    by exact cross-multiplied comparison with a lexicographic
    tie-break — no float ratios, so the DuckDB oracle reproduces the
    same choice bit-for-bit). Pass 2 is a map-only deterministic
    filter: keep a row iff h64(key)·w_m·n_i < 2⁶⁴·w_i·n_m where h64 is
    the first 8 md5 bytes — pure-function membership like
    ``sample_docs``, reproducible across engines and partitionings.
    Languages without a target weight are dropped (mix spec semantics).
    """
    def cnt(b: pa.Table) -> pa.Table:
        t = pa.table({"lang": b["lang"],
                      "n": pa.array(np.ones(b.num_rows, np.int64))})
        return t.group_by("lang").aggregate([("n", "sum")])

    acc: dict[str, int] = {}
    for b in (docs_ds.select_columns(["lang"])
              .map_batches(cnt, batch_format="pyarrow")
              .iter_batches(batch_format="pyarrow")):
        for r in b.to_pylist():
            acc[r["lang"]] = acc.get(r["lang"], 0) + r["n_sum"]

    items = [(lang, acc[lang], w) for lang, w in sorted(MIX_TARGETS.items())
             if acc.get(lang)]
    if not items:
        return docs_ds.limit(0).select_columns(list(cols))
    # binding stratum: min n/w by exact cross-multiplication, ties to
    # the lexicographically smallest language
    ml, mn, mw = items[0]
    for lang, n, w in items[1:]:
        if n * mw < mn * w:          # n/w < mn/mw
            ml, mn, mw = lang, n, w
    # keep iff h64 * (w_m * n_i) < 2^64 * (w_i * n_m) — exact ints
    rules = {lang: (mw * n, (1 << 64) * w * mn) for lang, n, w in items}

    def fn(batch: pa.Table) -> pa.Table:
        keys = batch["doc_id"].to_pylist()
        langs = batch["lang"].to_pylist()
        keep = np.fromiter(
            (lang in rules and
             int.from_bytes(hashlib.md5(str(k).encode()).digest()[:8],
                            "big") * rules[lang][0] < rules[lang][1]
             for k, lang in zip(keys, langs)),
            dtype=bool, count=len(keys))
        return batch.select(list(cols)).filter(pa.array(keep))

    return docs_ds.map_batches(fn, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# sequence packing (global ordered prefix scan → fixed-budget packs)
# ---------------------------------------------------------------------------

PACK_BUDGET = 512      # tokens per training sequence
PACK_BUCKETS = 4096    # segments of the distributed prefix scan


def _word_counts(batch: pa.Table) -> pa.Array:
    """Vectorized canonical word count — len(norm_words(text)) without
    the Python loop: trim, regex-split on whitespace runs, list length,
    0 for all-whitespace text (matches textstats.norm_words and the
    DuckDB ``string_split_regex(trim(text), '\\s+')`` oracle)."""
    trimmed = pc.utf8_trim_whitespace(batch["text"])
    n = pc.list_value_length(pc.split_pattern_regex(trimmed, r"\s+"))
    return pc.if_else(pc.equal(trimmed, ""), pa.scalar(0, pa.int32()),
                      n)


def pack_sequences(docs_ds, max_key: int, budget: int = PACK_BUDGET,
                   n_buckets: int = PACK_BUCKETS):
    """GPT-style concat-and-cut sequence packing: documents are laid
    end-to-end in key order and cut every ``budget`` tokens; a document
    belongs to the pack where it STARTS (pack_id =
    floor(tokens-before-it / budget)). Returns per-pack
    (pack_id, n_docs, tokens, first_doc, last_doc), sorted.

    The global ordered cumsum is a segmented scan, never a single-node
    sort: (0) one narrow map drops text and keeps (key, toks, bucket)
    where bucket = key // span (span from ``max_key``, so bucket count
    stays ≤ n_buckets at any scale) — materialized because two passes
    consume it and re-tokenizing the corpus would double the text
    scan; (1) per-bucket token totals combine map-side and
    prefix-sum on the driver (≤ n_buckets scalars); (2)
    groupby(bucket).map_groups sorts each segment locally and adds its
    broadcast offset — packs may straddle segment boundaries, so
    map_groups emits per-(bucket, pack) partials and (3) a final tiny
    keyed aggregate merges the straddlers."""
    import ray
    import ray.data as rd

    span = max(1, (max_key + n_buckets) // n_buckets)

    def derive(batch: pa.Table) -> pa.Table:
        keys = pc.cast(batch["doc_id"], pa.int64())
        toks = pc.cast(_word_counts(batch), pa.int64())
        bucket = pc.divide(keys, span)
        return pa.table({"key": keys, "toks": toks, "bucket": bucket})

    derived = docs_ds.map_batches(
        derive, batch_format="pyarrow").materialize()

    def bucket_partial(batch: pa.Table) -> pa.Table:
        return batch.select(["bucket", "toks"]).group_by(
            "bucket").aggregate([("toks", "sum")])

    totals: dict[int, int] = {}
    for b in derived.map_batches(bucket_partial, batch_format="pyarrow") \
                    .iter_batches(batch_format="pyarrow"):
        for r in b.to_pylist():
            totals[r["bucket"]] = totals.get(r["bucket"], 0) \
                + r["toks_sum"]
    offsets: dict[int, int] = {}
    run = 0
    for bk in sorted(totals):
        offsets[bk] = run
        run += totals[bk]
    off_ref = ray.put(offsets)

    def pack_group(tbl: pa.Table) -> pa.Table:
        from .decontam import _cached_get
        offs = _cached_get(off_ref)
        idx = pc.sort_indices(tbl["key"])
        keys = tbl["key"].take(idx).to_numpy(zero_copy_only=False)
        toks = tbl["toks"].take(idx).to_numpy(zero_copy_only=False)
        before = offs[int(tbl["bucket"][0].as_py())] \
            + np.concatenate(([0], np.cumsum(toks[:-1])))
        pack = before // budget
        t = pa.table({
            "pack_id": pa.array(pack.astype(np.int64)),
            "n": pa.array(np.ones(len(keys), np.int64)),
            "toks": pa.array(toks.astype(np.int64)),
            "kmin": pa.array(keys.astype(np.int64)),
            "kmax": pa.array(keys.astype(np.int64)),
        })
        return t.group_by("pack_id").aggregate(
            [("n", "sum"), ("toks", "sum"), ("kmin", "min"),
             ("kmax", "max")])

    partials = derived.groupby("bucket").map_groups(
        pack_group, batch_format="pyarrow")
    packs = partials.groupby("pack_id").aggregate(
        rd.aggregate.Sum("n_sum", alias_name="n_docs"),
        rd.aggregate.Sum("toks_sum", alias_name="tokens"),
        rd.aggregate.Min("kmin_min", alias_name="first_doc"),
        rd.aggregate.Max("kmax_max", alias_name="last_doc"))
    return packs.sort("pack_id")


# ---------------------------------------------------------------------------
# global-quantile quality gate + deterministic shard layout
# ---------------------------------------------------------------------------

QUALITY_P = 0.25       # drop the bottom quartile
QUALITY_SCALE = 10000  # quantization for the counting-sort quantile
N_SHARDS = 16


def _quality_scores(docs_ds, scale: int):
    """Narrow materialized (doc_id, qk, quality) projection — the text
    column is scanned exactly once; qk = floor(quality × scale) is the
    integer-exact quantized score cell shared by the quantile gate and
    the global ranker."""
    from .textstats import text_stats_batch

    def derive(b: pa.Table) -> pa.Table:
        s = text_stats_batch(b)
        qk = pc.cast(pc.floor(pc.multiply(s["quality"], scale)),
                     pa.int64())
        return pa.table({"doc_id": s["doc_id"], "qk": qk,
                         "quality": s["quality"]})

    return docs_ds.map_batches(derive, batch_format="pyarrow").materialize()


def _quality_hist(scores) -> dict[int, int]:
    """Bounded per-cell histogram (≤ scale cells regardless of corpus
    size): partial (qk, count) rows combine map-side, the driver merge
    touches only the cell domain."""

    def hist(b: pa.Table) -> pa.Table:
        t = pa.table({"qk": b["qk"],
                      "n": pa.array(np.ones(b.num_rows, np.int64))})
        return t.group_by("qk").aggregate([("n", "sum")])

    acc: dict[int, int] = {}
    for b in scores.map_batches(hist, batch_format="pyarrow") \
                   .iter_batches(batch_format="pyarrow"):
        for r in b.to_pylist():
            acc[r["qk"]] = acc.get(r["qk"], 0) + r["n_sum"]
    return acc


def _hist_quantile(acc: dict[int, int], p: float) -> int:
    """quantile_disc over a {cell: count} histogram: index selection at
    ceil(p·n)−1 — THE shared threshold rule; every engine-side quantile
    gate must use this one implementation so it can never drift from
    the oracle's quantile_disc."""
    import math
    n = sum(acc.values())
    idx = max(0, math.ceil(p * n) - 1)
    seen = 0
    for qk in sorted(acc):
        if seen <= idx < seen + acc[qk]:
            return qk
        seen += acc[qk]
    return 0


DSIR_N_FEAT = 1024       # hashed-unigram feature buckets
DSIR_TARGET_LANG = "en"  # target domain = the corpus' English slice


def _dsir_bucket(w: str) -> int:
    """Hashed-ngram feature index: md5(word)[:8 hex] mod DSIR_N_FEAT —
    md5 so the DuckDB oracle replicates the bucketing bit-for-bit."""
    return int(hashlib.md5(w.encode()).hexdigest()[:8], 16) % DSIR_N_FEAT


def dsir_scores(docs_ds):
    """DSIR-style data selection (Xie et al. 2023, "Data Selection for
    Language Models via Importance Resampling"), exact-integer variant:
    score every document by how much more likely its hashed-unigram
    bag is under the TARGET domain's unigram model (here: the corpus'
    ``DSIR_TARGET_LANG`` slice) than under the SOURCE model (the whole
    corpus). Output one row per doc with ≥1 word:
    (doc_id, dsir_score, kept = score > 0).

    Instead of the paper's float log-likelihood ratio, both models are
    Laplace-smoothed integer parts-per-million —
    ``ppm(f) = (count_f + 1)·10⁶ // (total + DSIR_N_FEAT)`` — and the
    score is Σ over word occurrences of (ppm_target − ppm_source): exact
    int64 arithmetic, so the DuckDB oracle matches bit-for-bit (never
    compare floating log-sums across engines).

    Shape (the decontam.py broadcast pattern): pass 1 folds per-batch
    bucket-count partials into two DSIR_N_FEAT-long vectors (the exchange is
    ≤ DSIR_N_FEAT rows per batch — bounded by the feature space, never the
    corpus); the ppm-difference vector is ``ray.put`` ONCE and scoring
    is a pure map over the docs — no shuffle touches the text. Two
    corpus scans total (model fit, then scoring), inherent to DSIR."""
    import ray

    from .textstats import norm_words

    def partial(b: pa.Table) -> pa.Table:
        tgt = np.zeros(DSIR_N_FEAT, np.int64)
        src = np.zeros(DSIR_N_FEAT, np.int64)
        cache: dict[str, int] = {}
        for lg, t in zip(b["lang"].to_pylist(), b["text"].to_pylist()):
            ws = norm_words(t)
            if not ws:
                continue
            bk = np.array([cache.setdefault(w, _dsir_bucket(w))
                           for w in ws], np.int64)
            cnt = np.bincount(bk, minlength=DSIR_N_FEAT)
            src += cnt
            if lg == DSIR_TARGET_LANG:
                tgt += cnt
        nz = np.nonzero(src)[0]
        return pa.table({"b": pa.array(nz, pa.int64()),
                         "tgt": pa.array(tgt[nz], pa.int64()),
                         "src": pa.array(src[nz], pa.int64())})

    tgt = np.zeros(DSIR_N_FEAT, np.int64)
    src = np.zeros(DSIR_N_FEAT, np.int64)
    parts = docs_ds.select_columns(["lang", "text"]) \
        .map_batches(partial, batch_format="pyarrow")
    for b in parts.iter_batches(batch_format="pyarrow"):
        idx = b["b"].to_numpy(zero_copy_only=False)
        np.add.at(tgt, idx, b["tgt"].to_numpy(zero_copy_only=False))
        np.add.at(src, idx, b["src"].to_numpy(zero_copy_only=False))
    ppm_t = (tgt + 1) * 1_000_000 // (int(tgt.sum()) + DSIR_N_FEAT)
    ppm_s = (src + 1) * 1_000_000 // (int(src.sum()) + DSIR_N_FEAT)
    diff_ref = ray.put(ppm_t - ppm_s)

    def score(b: pa.Table) -> pa.Table:
        diff = ray.get(diff_ref)
        cache: dict[str, int] = {}
        o_id, o_sc = [], []
        for d, t in zip(b["doc_id"].to_pylist(), b["text"].to_pylist()):
            ws = norm_words(t)
            if not ws:
                continue
            bk = np.array([cache.setdefault(w, _dsir_bucket(w))
                           for w in ws], np.int64)
            o_id.append(d)
            o_sc.append(int(diff[bk].sum()))
        sc = np.array(o_sc, np.int64)
        return pa.table({"doc_id": pa.array(o_id, pa.int64()),
                         "dsir_score": pa.array(sc, pa.int64()),
                         "kept": pa.array((sc > 0).astype(np.int64),
                                          pa.int64())})

    return docs_ds.select_columns(["doc_id", "text"]) \
        .map_batches(score, batch_format="pyarrow")


def quality_filter_docs(docs_ds):
    """Keep documents at or above the global QUALITY_P quantile of the
    quality score — the Gopher/C4-style corpus gate, with the threshold
    LEARNED from the corpus rather than hand-set. Two passes over a
    narrow materialized (doc_id, qk, quality) projection (text is
    scanned once): the quantile is a counting sort over the quantized
    score domain (≤ ``QUALITY_SCALE`` cells regardless of corpus size —
    partial (qk, count) rows combine map-side, driver merges the bounded
    histogram and index-selects at ceil(QUALITY_P·n)−1, DuckDB
    quantile_disc semantics), then a broadcast-scalar filter. Quantization uses
    floor(quality × QUALITY_SCALE), identical across engines given identical
    doubles — no round-half mode skew."""
    scores = _quality_scores(docs_ds, QUALITY_SCALE)
    thr = _hist_quantile(_quality_hist(scores), QUALITY_P)

    def keep(b: pa.Table) -> pa.Table:
        return b.filter(pc.greater_equal(b["qk"], thr)) \
                .select(["doc_id", "quality"])

    return scores.map_batches(keep, batch_format="pyarrow")


def rank_docs(docs_ds):
    """Global quality ranking (dense row numbers over ORDER BY quality
    DESC, doc_id) WITHOUT a global sort exchange.

    Shape: the bounded qk histogram (map-side combine, ≤
    ``QUALITY_SCALE`` cells) gives each quantized score cell its exact
    global rank offset = count of rows in strictly higher cells (floor
    quantization is order-preserving: higher cell ⇒ strictly higher
    quality). The offsets dict is broadcast once (`ray.put`); a single
    groupby(qk) co-locates each cell, whose rows are sorted locally
    (quality desc, doc_id asc) and numbered offset+1… — so the only
    all-to-all moves narrow (doc_id, qk, quality) rows partitioned by a
    bounded key, and no range-partitioned global sort (with its
    sample-based boundary estimation and skew sensitivity) is needed.
    Cell skew is capped by the score quantization: a cell holds only
    ties within 1/QUALITY_SCALE of quality."""
    import ray

    scores = _quality_scores(docs_ds, QUALITY_SCALE)
    acc = _quality_hist(scores)
    cum = 0
    offsets: dict[int, int] = {}
    for qk in sorted(acc, reverse=True):
        offsets[qk] = cum
        cum += acc[qk]
    off_ref = ray.put(offsets)

    def rank_group(b: pa.Table) -> pa.Table:
        off = ray.get(off_ref)[b["qk"][0].as_py()]
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        qual = b["quality"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, -qual))
        rnk = np.empty(len(ids), np.int64)
        rnk[order] = off + 1 + np.arange(len(ids), dtype=np.int64)
        return pa.table({"doc_id": b["doc_id"], "quality": b["quality"],
                         "rnk": pa.array(rnk, pa.int64())})

    return scores.groupby("qk").map_groups(rank_group,
                                           batch_format="pyarrow")


def shard_docs(docs_ds):
    """Deterministic training-shard layout: shard = md5(doc_id)[0] mod
    N_SHARDS (pure function of the row — reproducible across engines,
    partitionings and reruns, no RNG state), reported as per-shard
    (n_docs, tokens). Map-only with map-side combine; the driver merge
    touches N_SHARDS scalars."""
    def partial(b: pa.Table) -> pa.Table:
        keys = b["doc_id"].to_pylist()
        shard = np.fromiter(
            (hashlib.md5(str(k).encode()).digest()[0] % N_SHARDS
             for k in keys), np.int64, len(keys))
        toks = pc.cast(_word_counts(b), pa.int64())
        t = pa.table({"shard_id": pa.array(shard),
                      "n": pa.array(np.ones(len(keys), np.int64)),
                      "toks": toks})
        return t.group_by("shard_id").aggregate(
            [("n", "sum"), ("toks", "sum")])

    acc: dict[int, list] = {}
    for b in docs_ds.map_batches(partial, batch_format="pyarrow") \
                    .iter_batches(batch_format="pyarrow"):
        for r in b.to_pylist():
            a = acc.setdefault(r["shard_id"], [0, 0])
            a[0] += r["n_sum"]
            a[1] += r["toks_sum"]
    ks = sorted(acc)
    return pa.table({
        "shard_id": pa.array(ks, pa.int64()),
        "n_docs": pa.array([acc[k][0] for k in ks], pa.int64()),
        "tokens": pa.array([acc[k][1] for k in ks], pa.int64()),
    })


def curate_docs(docs_ds):
    """Composed curation flagship: quality gate → exact dedup →
    mix rebalance as ONE streaming job over a single text scan.

    The three stages are the production corpus-prep chain, each reusing
    this module's exactly-specified rules so the end-to-end DuckDB
    oracle composes from the per-stage oracles:

      1. the text column is scanned ONCE into a narrow (doc_id, lang,
         qk, text_hash) projection (quality + canonical-words md5 in
         the same pass), materialized — at 100 TB this is the only
         full-width read; everything after touches 4 thin columns;
      2. global p-quantile gate: bounded qk histogram (map-side
         combine, ≤ ``QUALITY_SCALE`` cells) → broadcast threshold filter;
      3. exact dedup among gate SURVIVORS: hash-bucket keyed exchange,
         min-doc_id row kept per content hash (vectorized idxmin over
         all of a bucket's groups);
      4. mix rebalance over dedup survivors via ``rebalance_mix`` —
         per-lang counts, exact-rational keep rates, md5 coin.

    Returns the final Dataset of (doc_id, lang) survivors."""
    from .textstats import norm_words, text_stats_batch
    from ..stages.buckets import grouped_by_bucket

    def derive(b: pa.Table) -> pa.Table:
        s = text_stats_batch(b)
        qk = pc.cast(pc.floor(pc.multiply(s["quality"], QUALITY_SCALE)),
                     pa.int64())
        hs = [hashlib.md5(" ".join(norm_words(t)).encode()).hexdigest()
              for t in b["text"].to_pylist()]
        return pa.table({"doc_id": pc.cast(b["doc_id"], pa.int64()),
                         "lang": b["lang"],
                         "qk": qk,
                         "text_hash": pa.array(hs, pa.string())})

    proj = docs_ds.map_batches(derive, batch_format="pyarrow").materialize()

    # stage 2: threshold = quantile_disc(p) over the bounded histogram
    thr = _hist_quantile(_quality_hist(proj), QUALITY_P)

    gated = proj.map_batches(
        lambda b: b.filter(pc.greater_equal(b["qk"], thr))
                   .select(["doc_id", "lang", "text_hash"]),
        batch_format="pyarrow")

    # stage 3: first-per-content-hash among survivors — pure Arrow:
    # min-doc_id per hash, then a membership filter (doc_id is unique,
    # so the winner set IS the kept-row set)
    def keep_min(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "lang": pa.array([], pa.string())})
        g = batch.group_by(["text_hash"]).aggregate([("doc_id", "min")])
        keep = pc.is_in(batch["doc_id"],
                        value_set=g["doc_id_min"].combine_chunks())
        return batch.filter(keep).select(["doc_id", "lang"])

    deduped = grouped_by_bucket(gated, keep_min, key="text_hash",
                                coalesce=False).materialize()

    # stage 4: rebalance_mix iterates its input twice (counts, filter) —
    # the materialized survivor set re-reads from the object store
    return rebalance_mix(deduped, cols=("doc_id", "lang"))


# ---------------------------------------------------------------------------
# temperature mixture sampling + quality-ranked token-budget selection
# ---------------------------------------------------------------------------

TOKEN_BUDGET_DEN = 4   # select top-quality docs until 1/4 of corpus tokens
TB_BUCKETS = 4096      # segments of the boundary-cell prefix scan


def mixture_sample(docs_ds):
    """Temperature-based mixture sampling with α = 1/2 (the multilingual
    rebalancing rule of XLM / mT5: sample stratum s with probability
    ∝ p_s^α, flattening the head languages). With α = 1/2 the
    keep-everything-possible rates are r_s = sqrt(n_min / n_s) — the
    smallest stratum is kept whole and every larger one is thinned by
    the square-root of its size advantage.

    No square root is ever computed: keep iff u² · n_s < n_min · 2⁶⁴
    where u is the first 8 md5 hex digits of the key (u < 2³²), an
    EXACT integer comparison — u < sqrt(n_min/n_s)·2³² ⟺ u²·n_s <
    n_min·2⁶⁴ — so the DuckDB mirror (HUGEINT arithmetic, products
    stay < 2¹²⁷ for corpora up to ~2⁴⁰ docs/stratum) agrees
    bit-for-bit and membership is a pure function of the row key:
    reproducible across engines, partitionings and reruns.

    Shape: pass 1 is the per-stratum count via map-side combine (the
    stratum domain is tiny); pass 2 is map-only."""

    def cnt(b: pa.Table) -> pa.Table:
        t = pa.table({"lang": b["lang"],
                      "n": pa.array(np.ones(b.num_rows, np.int64))})
        return t.group_by("lang").aggregate([("n", "sum")])

    acc: dict[str, int] = {}
    for b in (docs_ds.select_columns(["lang"])
              .map_batches(cnt, batch_format="pyarrow")
              .iter_batches(batch_format="pyarrow")):
        for r in b.to_pylist():
            acc[r["lang"]] = acc.get(r["lang"], 0) + r["n_sum"]
    if not acc:
        return docs_ds.limit(0).select_columns(["doc_id", "lang"])
    rhs = min(acc.values()) << 64

    def fn(batch: pa.Table) -> pa.Table:
        keys = batch["doc_id"].to_pylist()
        langs = batch["lang"].to_pylist()
        keep = np.fromiter(
            (int(hashlib.md5(str(k).encode()).hexdigest()[:8], 16) ** 2
             * acc[lang] < rhs
             for k, lang in zip(keys, langs)),
            dtype=bool, count=len(keys))
        return batch.select(["doc_id", "lang"]).filter(pa.array(keep))

    return docs_ds.map_batches(fn, batch_format="pyarrow")


def token_budget_select(docs_ds):
    """Quality-ranked token-budget selection: keep the best documents
    (by quality score, ties to smaller doc_id) until the running token
    total reaches ``1/TOKEN_BUDGET_DEN`` of the corpus — the "pick the
    top-B tokens" curation step of data-constrained training runs. A doc
    is kept iff the token total BEFORE it (in global (quality DESC,
    doc_id) order) is < budget, i.e. SUM(n_words) OVER (ORDER BY qk
    DESC, doc_id) − n_words < budget in the DuckDB mirror.

    No global sort: (1) one text scan derives the narrow materialized
    (doc_id, qk, n_words) projection (qk = floor(quality·QUALITY_SCALE),
    the shared integer cell); (2) a BOUNDED per-cell histogram of token
    sums (≤ QUALITY_SCALE cells, partials combine map-side) lets the
    driver find the threshold cell T and the residual budget inside it;
    (3) every doc in a cell ABOVE T is kept by a map-only filter; (4)
    only cell T runs the pack_sequences-style segmented prefix scan
    (contiguous doc_id ranges, ≤ TB_BUCKETS driver scalars) to cut at
    the residual — the boundary cell is the only place doc order
    matters, so it is the only place any ordering work happens."""
    import ray

    from .decontam import _cached_get
    from .textstats import text_stats_batch

    def derive(b: pa.Table) -> pa.Table:
        s = text_stats_batch(b)
        qk = pc.cast(pc.floor(pc.multiply(s["quality"], QUALITY_SCALE)),
                     pa.int64())
        return pa.table({"doc_id": pc.cast(s["doc_id"], pa.int64()),
                         "qk": qk,
                         "n_words": pc.cast(s["n_words"], pa.int64())})

    scores = docs_ds.map_batches(
        derive, batch_format="pyarrow").materialize()

    def hist(b: pa.Table) -> pa.Table:
        t = pa.table({"qk": b["qk"], "n": b["n_words"]})
        return t.group_by("qk").aggregate([("n", "sum")])

    toks: dict[int, int] = {}
    for b in scores.map_batches(hist, batch_format="pyarrow") \
                   .iter_batches(batch_format="pyarrow"):
        for r in b.to_pylist():
            toks[r["qk"]] = toks.get(r["qk"], 0) + r["n_sum"]
    budget = sum(toks.values()) // TOKEN_BUDGET_DEN
    cum = 0
    thr = None
    for qk in sorted(toks, reverse=True):
        if cum + toks[qk] >= budget:
            thr = qk
            break
        cum += toks[qk]
    if thr is None:      # the budget is the whole corpus
        return scores
    rem = budget - cum   # token budget left inside the threshold cell
    thr_v, rem_v = int(thr), int(rem)

    def above(b: pa.Table) -> pa.Table:
        return b.filter(pc.greater(b["qk"], thr_v))

    kept_above = scores.map_batches(above, batch_format="pyarrow")

    # boundary cell: contiguous doc_id-range segments, driver prefix
    # over <= TB_BUCKETS scalars, in-segment vectorized exclusive cumsum
    max_key = int(scores.max("doc_id"))
    span = max(1, (max_key + TB_BUCKETS) // TB_BUCKETS)

    def in_cell(b: pa.Table) -> pa.Table:
        t = b.filter(pc.equal(b["qk"], thr_v))
        return t.append_column(
            "bucket", pc.divide(pc.cast(t["doc_id"], pa.int64()), span))

    cell = scores.map_batches(
        in_cell, batch_format="pyarrow").materialize()

    def bucket_partial(b: pa.Table) -> pa.Table:
        t = pa.table({"bucket": b["bucket"], "n": b["n_words"]})
        return t.group_by("bucket").aggregate([("n", "sum")])

    totals: dict[int, int] = {}
    for b in cell.map_batches(bucket_partial, batch_format="pyarrow") \
                 .iter_batches(batch_format="pyarrow"):
        for r in b.to_pylist():
            totals[r["bucket"]] = totals.get(r["bucket"], 0) + r["n_sum"]
    offsets: dict[int, int] = {}
    run = 0
    for bk in sorted(totals):
        offsets[bk] = run
        run += totals[bk]
    off_ref = ray.put(offsets)

    def cut(tbl: pa.Table) -> pa.Table:
        offs = _cached_get(off_ref)
        idx = pc.sort_indices(tbl["doc_id"])
        t = tbl.take(idx)
        nw = t["n_words"].to_numpy(zero_copy_only=False)
        before = offs[int(t["bucket"][0].as_py())] \
            + np.concatenate(([0], np.cumsum(nw[:-1])))
        return t.filter(pa.array(before < rem_v)).select(
            ["doc_id", "qk", "n_words"])

    selected = cell.groupby("bucket").map_groups(
        cut, batch_format="pyarrow")
    return kept_above.union(selected)


EPOCHS = 2
SHUFFLE_SHARDS = 8


def epoch_shuffle(docs_ds):
    """Deterministic per-epoch training-order shuffle WITHOUT a global
    sort exchange — the "different random order every epoch,
    reproducible across reruns" step of a training-data loader.

    Order key: md5(f"{epoch}:{doc_id}") (engine-independent, no RNG
    state). Global position via the rank_docs histogram-offset shape:
    the first two hex chars give a 256-cell histogram per epoch
    (bounded map-side partials → driver offsets, broadcast once); ONE
    (epoch, cell)-keyed bucket exchange co-locates each cell, whose
    rows sort locally by (hash, doc_id) and number offset+1… . The
    all-to-all moves narrow (epoch, doc_id, hash) rows under a bounded
    key — no range-partitioned sort, no skew sensitivity (cells are
    md5-uniform by construction).

    Output: (epoch, doc_id, pos, shard) with pos the 1-based rank in
    the epoch's order and shard = (pos-1) % SHUFFLE_SHARDS (round-robin
    shard assignment at equal sizes)."""
    import hashlib

    import ray

    from ..stages.buckets import grouped_by_bucket

    def explode(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_pylist()
        o_e, o_d, o_h, o_c = [], [], [], []
        for did in ids:
            for ep in range(1, EPOCHS + 1):
                h = hashlib.md5(f"{ep}:{did}".encode()).hexdigest()
                o_e.append(ep)
                o_d.append(did)
                o_h.append(h)
                o_c.append(int(h[:2], 16))
        return pa.table({"epoch": pa.array(o_e, pa.int64()),
                         "doc_id": pa.array(o_d, pa.int64()),
                         "h": pa.array(o_h, pa.string()),
                         "cell": pa.array(o_c, pa.int64())})

    rows = docs_ds.select_columns(["doc_id"]) \
        .map_batches(explode, batch_format="pyarrow")

    def hist(b: pa.Table) -> pa.Table:
        key = (b["epoch"].to_numpy(zero_copy_only=False) << 9) \
            | b["cell"].to_numpy(zero_copy_only=False)
        uniq, counts = np.unique(key, return_counts=True)
        return pa.table({"k": pa.array(uniq, pa.int64()),
                         "n": pa.array(counts, pa.int64())})

    acc: dict[int, int] = {}
    for b in rows.map_batches(hist, batch_format="pyarrow") \
                 .iter_batches(batch_format="pyarrow"):
        for k, n in zip(b["k"].to_pylist(), b["n"].to_pylist()):
            acc[k] = acc.get(k, 0) + n
    offsets: dict[int, int] = {}
    for ep in range(1, EPOCHS + 1):
        cum = 0
        for cell in range(256):
            k = (ep << 9) | cell
            offsets[k] = cum
            cum += acc.get(k, 0)
    bc = ray.put(offsets)

    def number(b: pa.Table) -> pa.Table:
        offs = ray.get(bc)
        ep = b["epoch"].to_numpy(zero_copy_only=False)
        cell = b["cell"].to_numpy(zero_copy_only=False)
        did = b["doc_id"].to_numpy(zero_copy_only=False)
        hh = np.asarray(b["h"].to_pylist(), dtype=object)
        key = (ep << 9) | cell
        order = np.lexsort((did, hh, key))
        key_s = key[order]
        starts = np.ones(len(order), dtype=bool)
        starts[1:] = key_s[1:] != key_s[:-1]
        seg_id = np.cumsum(starts) - 1
        seg_first = np.flatnonzero(starts)
        within = np.arange(len(order)) - seg_first[seg_id]
        base = np.array([offs[int(k)] for k in key_s[starts]],
                        dtype=np.int64)
        pos = base[seg_id] + within + 1
        return pa.table({
            "epoch": pa.array(ep[order], pa.int64()),
            "doc_id": pa.array(did[order], pa.int64()),
            "pos": pa.array(pos, pa.int64()),
            "shard": pa.array((pos - 1) % SHUFFLE_SHARDS, pa.int64())})

    return grouped_by_bucket(rows, number, key=["epoch", "cell"])


WINSOR_LO = 0.1
WINSOR_HI = 0.9


def winsorize_lengths(docs_ds):
    """Per-lang winsorization of document length — percentile-based
    outlier clipping before length-sensitive mixing: n_chars is
    clipped into [p10, p90] of its language group. The group
    quantiles come from bounded (lang, n_chars) count histograms
    (partial rows combine map-side; the driver merge touches only the
    value domain, never the docs) and use the ONE shared
    ``_hist_quantile`` selection rule (= DuckDB quantile_disc), then
    broadcast for a map-only clip pass. Output (doc_id, lang,
    n_chars, clipped). Exact SQL mirror: "winsorize_lengths"."""
    import ray

    def hist(b: pa.Table) -> pa.Table:
        t = pa.table({"lang": b["lang"],
                      "v": pc.cast(b["n_chars"], pa.int64()),
                      "n": pa.array(np.ones(len(b), np.int64))})
        return t.group_by(["lang", "v"]).aggregate([("n", "sum")])

    acc: dict[str, dict[int, int]] = {}
    for b in docs_ds.select_columns(["lang", "n_chars"]) \
                    .map_batches(hist, batch_format="pyarrow") \
                    .iter_batches(batch_format="pyarrow"):
        for r in b.to_pylist():
            d = acc.setdefault(r["lang"], {})
            d[r["v"]] = d.get(r["v"], 0) + r["n_sum"]
    bounds = {lang: (_hist_quantile(d, WINSOR_LO),
                     _hist_quantile(d, WINSOR_HI))
              for lang, d in acc.items()}
    broadcast = ray.put(bounds)

    def clip(b: pa.Table) -> pa.Table:
        bnds = ray.get(broadcast)
        d = pc.dictionary_encode(b["lang"])
        if isinstance(d, pa.ChunkedArray):
            d = d.combine_chunks()
        idx = d.indices.to_numpy(zero_copy_only=False)
        x = pc.cast(b["n_chars"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        out = x.copy()
        for j, lang in enumerate(d.dictionary.to_pylist()):
            lo_v, hi_v = bnds[lang]
            m = idx == j
            out[m] = np.clip(x[m], lo_v, hi_v)
        return pa.table({
            "doc_id": pc.cast(b["doc_id"], pa.int64()),
            "lang": b["lang"],
            "n_chars": pa.array(x, pa.int64()),
            "clipped": pa.array(out, pa.int64()),
        })

    return docs_ds.select_columns(["doc_id", "lang", "n_chars"]) \
        .map_batches(clip, batch_format="pyarrow")


def mad_outliers(docs_ds):
    """Robust outlier detection: flag documents whose length deviates
    from the language median by more than 2 MADs (median absolute
    deviation) — the classic heavy-tail-safe filter a length-based
    quality gate wants instead of mean/stddev.

    Scale: the SAME bounded (lang, n_chars) count histogram as
    winsorize_lengths (map-side combine; driver merge touches only the
    value domain). Both the median and the MAD come from that one
    histogram — the deviation histogram is folded from (value, count)
    cells, never from rows — then (med, mad) broadcast for a map-only
    flag pass. Selection rule = the shared ``_hist_quantile``
    (quantile_disc). Output: the outlier rows (doc_id, lang, n_chars,
    dev). Exact SQL mirror: "mad_outliers"."""
    import ray

    def hist(b: pa.Table) -> pa.Table:
        t = pa.table({"lang": b["lang"],
                      "v": pc.cast(b["n_chars"], pa.int64()),
                      "n": pa.array(np.ones(len(b), np.int64))})
        return t.group_by(["lang", "v"]).aggregate([("n", "sum")])

    acc: dict[str, dict[int, int]] = {}
    for b in docs_ds.select_columns(["lang", "n_chars"]) \
                    .map_batches(hist, batch_format="pyarrow") \
                    .iter_batches(batch_format="pyarrow"):
        for r in b.to_pylist():
            d = acc.setdefault(r["lang"], {})
            d[r["v"]] = d.get(r["v"], 0) + r["n_sum"]
    params: dict[str, tuple[int, int]] = {}
    for lang, d in acc.items():
        med = _hist_quantile(d, 0.5)
        dev_hist: dict[int, int] = {}
        for v, n in d.items():
            dv = abs(v - med)
            dev_hist[dv] = dev_hist.get(dv, 0) + n
        params[lang] = (med, _hist_quantile(dev_hist, 0.5))
    broadcast = ray.put(params)

    def flag(b: pa.Table) -> pa.Table:
        prm = ray.get(broadcast)
        d = pc.dictionary_encode(b["lang"])
        if isinstance(d, pa.ChunkedArray):
            d = d.combine_chunks()
        idx = d.indices.to_numpy(zero_copy_only=False)
        x = pc.cast(b["n_chars"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        meds = np.zeros(len(prm), np.int64)
        mads = np.zeros(len(prm), np.int64)
        for j, lang in enumerate(d.dictionary.to_pylist()):
            meds[j], mads[j] = prm[lang]
        dev = np.abs(x - meds[idx])
        m = dev > 2 * mads[idx]
        t = pa.table({
            "doc_id": pc.cast(b["doc_id"], pa.int64()),
            "lang": b["lang"],
            "n_chars": pa.array(x, pa.int64()),
            "dev": pa.array(dev, pa.int64()),
        })
        return t.filter(pa.array(m))

    return docs_ds.select_columns(["doc_id", "lang", "n_chars"]) \
        .map_batches(flag, batch_format="pyarrow")


def quantile_normalize(docs_ds):
    """Cross-source score calibration: each doc's length percentile
    WITHIN its source — the normalization a mixture-weighting pass
    applies before comparing quality scores across heterogeneous feeds.
    percent_rank = (count of strictly smaller) / (n_source - 1), the
    SQL PERCENT_RANK definition (min-rank ties; 0 when a source has one
    doc).

    Scale: the (source, n_chars) grid is a map-side-combined bounded
    histogram (length domain × sources, never doc count); the
    value→percentile map is built on the driver from cumulative counts
    and broadcast once via ray.put; the annotation pass is map-only.
    Output: (doc_id, source, n_chars, pct6). Exact SQL mirror
    "quantile_normalize"."""
    import ray

    from ..stages.agg import grouped_count

    grid = grouped_count(docs_ds, ["source", "n_chars"]).to_pylist()
    by_src: dict[str, dict[int, int]] = {}
    for r in grid:
        by_src.setdefault(r["source"], {})[r["n_chars"]] = r["n"]
    pct: dict[tuple[str, int], float] = {}
    for s, hist in by_src.items():
        ns = sum(hist.values())
        cum = 0
        for v in sorted(hist):
            pct[(s, v)] = (
                0.0 if ns == 1
                else float(np.round(cum / (ns - 1), 6)))
            cum += hist[v]
    ref = ray.put(pct)

    def annotate(batch: pa.Table) -> pa.Table:
        m = ray.get(ref)
        src = batch["source"].to_pylist()
        ncs = pc.cast(batch["n_chars"], pa.int64()).to_pylist()
        return pa.table({
            "doc_id": pc.cast(batch["doc_id"], pa.int64()),
            "source": batch["source"],
            "n_chars": pa.array(ncs, pa.int64()),
            "pct6": pa.array([m[(s, v)] for s, v in zip(src, ncs)],
                             pa.float64()),
        })

    return docs_ds.map_batches(annotate, batch_format="pyarrow")
