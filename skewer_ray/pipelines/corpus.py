"""Driver-facing queries for the training-data corpus operators
(documents/embeddings tables): text analysis, dedup family, similarity
search, multimodal plumbing. Column names are contractually shared with
``corpus_oracles`` (the DuckDB SQL mirrors).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..functions.dedup import (embedding_dup_pairs, exact_dedup,
                               minhash_lsh_pairs, ngram_jaccard_pairs,
                               simhash_signatures)
from ..functions.media import media_features
from ..functions.similarity import brute_force_topk, ivf_topk, lsh_topk
from ..functions.textstats import (fingerprint_batch, langid_batch,
                                   text_stats_batch)

ANN_QUERY_IDS = list(range(10))
ANN_K = 5
JACCARD_THRESHOLD = 0.5
COSINE_THRESHOLD = 0.45


def _docs(sf_dir: str):
    return rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])


def _docs_full(sf_dir: str):
    return rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "lang", "source"])


def _emb(sf_dir: str):
    return rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                           columns=["vec_id", "embedding"])


def q_text_quality(sf_dir: str):
    return _docs(sf_dir).map_batches(text_stats_batch,
                                     batch_format="pyarrow")


def q_melt_stats(sf_dir: str):
    """UNPIVOT/melt: the wide per-doc quality stats reshaped to
    (doc_id, metric, value) long form — map-only, zero exchange
    (functions/textstats.melt_stats)."""
    from ..functions.textstats import melt_stats
    return melt_stats(_docs(sf_dir))


def q_text_langid(sf_dir: str):
    return _docs(sf_dir).map_batches(langid_batch, batch_format="pyarrow")


def q_doc_fingerprints(sf_dir: str):
    return _docs(sf_dir).map_batches(fingerprint_batch,
                                     batch_format="pyarrow")


def q_dedup_exact(sf_dir: str):
    return exact_dedup(_docs(sf_dir))


def q_dedup_minhash(sf_dir: str):
    return minhash_lsh_pairs(_docs(sf_dir), threshold=JACCARD_THRESHOLD)


def q_dedup_ngram(sf_dir: str):
    return ngram_jaccard_pairs(_docs(sf_dir), threshold=JACCARD_THRESHOLD)


def q_dedup_simhash(sf_dir: str):
    return simhash_signatures(_docs(sf_dir))


def q_dedup_simhash_pairs(sf_dir: str):
    from ..functions.dedup import simhash_pairs
    return simhash_pairs(_docs(sf_dir))


def q_dedup_embedding(sf_dir: str):
    return embedding_dup_pairs(_emb(sf_dir), threshold=COSINE_THRESHOLD)


def q_sample_docs(sf_dir: str):
    """Deterministic md5-prefix sampling (~10% of the corpus): keep is
    a pure function of doc_id, so the sample is reproducible across
    engines and partitionings (functions/curation.sample_docs)."""
    from ..functions.curation import sample_docs
    return sample_docs(_docs_full(sf_dir))


def q_cap_per_source(sf_dir: str):
    """Per-source quota capping (≤10 smallest doc_ids per source) via
    two-phase top-K — partial top-K per batch, keyed combine
    (functions/curation.cap_per_group)."""
    from ..functions.curation import cap_per_group
    return cap_per_group(_docs_full(sf_dir), k=10)


def q_chunk_docs(sf_dir: str):
    """Sliding-window chunking (size 200 / stride 150, 1→N) —
    vectorized Arrow slices (functions/curation.chunk_docs)."""
    from ..functions.curation import chunk_docs
    return chunk_docs(_docs(sf_dir))


def q_pack_sequences(sf_dir: str):
    """Global concat-and-cut sequence packing (budget 512 tokens) —
    distributed segmented prefix scan (functions/curation.pack_sequences);
    the max doc key comes from parquet footer statistics (no scan)."""
    import pyarrow.parquet as pq

    from ..functions.curation import pack_sequences
    md = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata
    col = next(j for j in range(md.num_columns)
               if md.row_group(0).column(j).path_in_schema == "doc_id")
    max_key = max(
        md.row_group(i).column(col).statistics.max
        for i in range(md.num_row_groups))
    return pack_sequences(_docs(sf_dir), max_key=max_key)


def q_ann_range(sf_dir: str):
    """Radius search: all candidates with cosine ≥ τ of each query —
    pure per-row predicate vs the broadcast query matrix, no merge
    (functions/similarity.range_search)."""
    from ..functions.similarity import range_search
    return range_search(_emb(sf_dir), ANN_QUERY_IDS)


def q_knn_classify(sf_dir: str):
    """k-NN majority-vote label per query vector
    (functions/similarity.knn_classify)."""
    from ..functions.similarity import knn_classify

    def emb_with_label():
        return rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding", "label"])
    return knn_classify(emb_with_label(), ANN_QUERY_IDS, k=ANN_K)


def q_retention_cohorts(sf_dir: str):
    """Weekly cohort retention matrix over events
    (functions/windows.retention_cohorts)."""
    from ..functions.windows import retention_cohorts
    return retention_cohorts(_events(sf_dir, ["user_id", "ts"]))


def q_quality_filter(sf_dir: str):
    """Corpus quality gate at the global p25 quality quantile —
    counting-sort quantile + broadcast-scalar filter
    (functions/curation.quality_filter_docs)."""
    from ..functions.curation import quality_filter_docs
    return quality_filter_docs(_docs(sf_dir))


def q_rebalance_mix(sf_dir: str):
    """Corpus mix rebalancing: per-language keep-rates solved from the
    corpus counts in exact integer arithmetic, deterministic md5 filter
    (functions/curation.rebalance_mix)."""
    from ..functions.curation import rebalance_mix
    return rebalance_mix(_docs_full(sf_dir))


def q_weighted_sample(sf_dir: str):
    """Quality-weighted sampling: keep probability = quality score,
    deterministic md5 coin (functions/curation.weighted_sample_docs)."""
    from ..functions.curation import weighted_sample_docs
    return weighted_sample_docs(_docs(sf_dir))


def q_rank_docs(sf_dir: str):
    """Global quality ranking: dense row numbers over (quality DESC,
    doc_id) with NO global sort — bounded-histogram rank offsets +
    per-cell local numbering (functions/curation.rank_docs)."""
    from ..functions.curation import rank_docs
    return rank_docs(_docs(sf_dir))


def q_shard_docs(sf_dir: str):
    """Deterministic md5 training-shard layout with per-shard doc and
    token totals (functions/curation.shard_docs)."""
    from ..functions.curation import shard_docs
    return shard_docs(_docs(sf_dir))


def q_distinct_kmv(sf_dir: str):
    """KMV bottom-k cardinality sketch over the corpus vocabulary —
    distinct count without a distinct shuffle; exchange is O(batches×k)
    hashes (functions/sketches.kmv_distinct_terms)."""
    from ..functions.sketches import kmv_distinct_terms
    return kmv_distinct_terms(_docs(sf_dir))


def q_text_repetition(sf_dir: str):
    """Gopher-style within-doc repetition signals (dup-3-gram fraction,
    top-word share) — map-only (functions/textstats.repetition_batch)."""
    from ..functions.textstats import repetition_batch
    return _docs(sf_dir).map_batches(repetition_batch,
                                     batch_format="pyarrow")


def q_bloom_decontam(sf_dir: str):
    """Space-bounded decontamination: benchmark shingles folded into a
    4096-bit Bloom filter, per-doc hit counts (no false negatives)
    (functions/decontam.bloom_decontaminate)."""
    from ..functions.decontam import bloom_decontaminate
    return bloom_decontaminate(_docs(sf_dir))


def q_decontaminate(sf_dir: str):
    """Benchmark decontamination: shingle overlap of every corpus doc
    against the broadcast benchmark shingle set (docs with
    doc_id % 97 == 0 play the held-out eval set)
    (functions/decontam.decontaminate)."""
    from ..functions.decontam import decontaminate
    return decontaminate(_docs(sf_dir))


def q_tfidf_terms(sf_dir: str):
    """Top-3 TF-IDF terms per doc — DF table via map-side combine,
    broadcast once, then an embarrassingly parallel scoring map
    (functions/decontam.tfidf_top_terms)."""
    from ..functions.decontam import tfidf_top_terms
    return tfidf_top_terms(_docs(sf_dir))


def q_dedup_embedding_lsh(sf_dir: str):
    """Subquadratic near-dup pairs: hyperplane-bucket shuffle (one
    bucket per vector), pairs scored in-bucket only. Deterministic
    planes → exact SQL mirror (corpus_oracles.py
    "dedup_embedding_lsh"); recall vs the exact triangle join asserted
    in tests/test_corpus.py."""
    from ..functions.dedup import embedding_lsh_pairs
    return embedding_lsh_pairs(_emb(sf_dir), threshold=COSINE_THRESHOLD)


def q_dsir_select(sf_dir: str):
    """DSIR importance-resampling selection (integer-ppm variant):
    hashed-unigram models of the lang='en' target slice vs the whole
    corpus, per-doc Σ(ppm_t − ppm_s) score, kept = score > 0. Exact SQL
    mirror in corpus_oracles.py "dsir_select"."""
    from ..functions.curation import dsir_scores
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "lang", "text"])
    return dsir_scores(ds)


def q_semdedup(sf_dir: str):
    """SemDeDup semantic dedup: within-cluster (label) cosine ≥
    threshold removes every vector with an earlier (smaller-vec_id)
    similar neighbor; one label-keyed bucketed exchange, per-cluster
    matmul (Σ|cluster|² work — the clustering is the subquadratic
    lever). Exact SQL mirror in corpus_oracles.py "semdedup"."""
    from ..functions.dedup import semdedup
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "label", "embedding"])
    return semdedup(ds, threshold=COSINE_THRESHOLD)


def q_ann_topk(sf_dir: str):
    return brute_force_topk(_emb(sf_dir), ANN_QUERY_IDS, k=ANN_K)


def q_rrf_fusion(sf_dir: str):
    """Reciprocal-rank fusion of two retrieval rankings — the hybrid-
    search serving op: the float-cosine brute-force top-k and the
    int8-quantized top-k lists fuse per (query, candidate) with
    integer RRF contributions floor(10⁹/(60+rank)) (missing list = 0),
    so scores are order-independent int64 sums and ordering
    (score DESC, vec_id) is exact on both engines. Both input
    rankings are the already-bounded queries×k tables, so fusion is a
    driver fold over ≤ 2·|Q|·k rows. Exact SQL mirror "rrf_fusion"."""
    from ..functions.quantize import quantized_topk
    from ..functions.similarity import brute_force_topk

    a = brute_force_topk(_emb(sf_dir), ANN_QUERY_IDS,
                         k=ANN_K).to_pandas()
    b = quantized_topk(_emb(sf_dir), ANN_QUERY_IDS,
                       k=ANN_K).to_pandas()
    scores: dict[tuple[int, int], int] = {}
    for df in (a, b):
        for r in df.itertuples():
            key = (int(r.query_id), int(r.vec_id))
            scores[key] = scores.get(key, 0) \
                + 1_000_000_000 // (60 + int(r.rank))
    per_q: dict[int, list] = {}
    for (qid, vid), s in scores.items():
        per_q.setdefault(qid, []).append((-s, vid))
    o_q, o_r, o_v, o_s = [], [], [], []
    for qid in sorted(per_q):
        for rank, (ns, vid) in enumerate(sorted(per_q[qid])[:ANN_K],
                                         start=1):
            o_q.append(qid)
            o_r.append(rank)
            o_v.append(vid)
            o_s.append(-ns)
    return pa.table({
        "query_id": pa.array(o_q, pa.int64()),
        "rrf_rank": pa.array(o_r, pa.int64()),
        "vec_id": pa.array(o_v, pa.int64()),
        "rrf_score": pa.array(o_s, pa.int64())})


def q_hard_negatives(sf_dir: str):
    """Hard-negative mining: top-k most-similar DIFFERENT-label vectors
    per query (functions/similarity.hard_negatives) — the contrastive-
    training negative sampler. Exact SQL mirror "hard_negatives"."""
    from ..functions.similarity import hard_negatives
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "label", "embedding"])
    return hard_negatives(ds, ANN_QUERY_IDS, k=ANN_K)


def q_ann_lsh(sf_dir: str):
    """Approximate LSH variant. The hyperplanes are a deterministic
    function of (seed, dim), so the DuckDB oracle replicates the exact
    bucket/probe/score path (corpus_oracles.py "ann_lsh"); recall vs
    brute force is additionally asserted in tests/test_corpus.py."""
    return lsh_topk(_emb(sf_dir), ANN_QUERY_IDS, k=ANN_K)


def q_ann_ivf(sf_dir: str):
    """IVF variant probing ``label`` cells. Centroids/probe rule are
    deterministic, mirrored exactly by the DuckDB oracle
    (corpus_oracles.py "ann_ivf"); recall asserted in tests."""
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding", "label"])
    return ivf_topk(ds, ANN_QUERY_IDS, k=ANN_K)


def q_media_features(sf_dir: str):
    return media_features(_docs(sf_dir))


def q_media_frames(sf_dir: str):
    """1→N video frame sampling: actor-pool stage expands each video
    row to 4 evenly-spaced frame rows (functions/media.frame_samples;
    codec work stubbed deterministically, Ray plumbing real)."""
    from ..functions.media import frame_samples
    return frame_samples(_docs(sf_dir))


def q_dedup_filtered_docs(sf_dir: str):
    """Near-dup removal: drop any doc that is the higher id of a MinHash
    near-dup pair (deterministic keep-lowest rule). The anti-join is a
    union + per-doc indicator-sum groupby (the `windows.users_without`
    pattern): ONE skew-safe partial-combine exchange, and the drop set
    never lands on the driver — at 100 TB with 30% duplicates the old
    broadcast-set form would pull billions of ids to one process."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..stages.agg import grouped_stats

    pairs = minhash_lsh_pairs(_docs(sf_dir), threshold=JACCARD_THRESHOLD)

    def doc_side(batch: pa.Table) -> pa.Table:
        n = len(batch)
        return pa.table({
            "doc_id": pc.cast(batch["doc_id"], pa.int64()),
            "hit": pa.array([0] * n, pa.int64())})

    def drop_side(batch: pa.Table) -> pa.Table:
        n = len(batch)
        return pa.table({
            "doc_id": pc.cast(batch["doc_b"], pa.int64()),
            "hit": pa.array([1] * n, pa.int64())})

    u = (_docs(sf_dir).map_batches(doc_side, batch_format="pyarrow")
         .union(pairs.map_batches(drop_side, batch_format="pyarrow")))
    out = grouped_stats(u, "doc_id", [("hit", "sum")], combine="shuffle")

    def keep(b: pa.Table) -> pa.Table:
        return b.filter(pc.equal(b["sum_hit"], 0)).select(["doc_id"])

    return out.map_batches(keep, batch_format="pyarrow")


def q_dedup_clusters(sf_dir: str):
    """Transitive near-dup clusters: connected components over the
    MinHash pair graph, rep = min doc_id in the component. Runs the
    distributed min-label propagation (`dedup.connected_components` —
    O(edges) joins + keyed min-groupbys, per-round state in the object
    store, never on the driver), so the graph contraction scales past
    the point where the pair set fits one machine. Union-find parity is
    pinned by `tests/test_corpus.py`."""
    from ..functions.dedup import connected_components

    pairs = minhash_lsh_pairs(_docs(sf_dir), threshold=JACCARD_THRESHOLD)
    return connected_components(pairs)


def _events(sf_dir: str, cols):
    return rd.read_parquet(f"{sf_dir}/events.parquet", columns=cols)


def q_events_tumbling(sf_dir: str):
    from ..functions.windows import tumbling_counts
    return tumbling_counts(_events(sf_dir, ["ts", "event_type", "value"]))


def q_events_sessions(sf_dir: str):
    from ..functions.windows import gap_sessions
    return gap_sessions(_events(sf_dir, ["event_id", "ts", "user_id"]))


def q_events_range_counts(sf_dir: str):
    """Range self-join: per-event count of same-user events in the
    prior 30 minutes (functions/windows.range_join_counts)."""
    from ..functions.windows import range_join_counts
    return range_join_counts(_events(sf_dir, ["event_id", "ts", "user_id"]))


def q_events_asof(sf_dir: str):
    """As-of join: each purchase ← most recent prior click of the same
    user (functions/windows.asof_join_events; one user-keyed shuffle +
    in-group two-pointer sweep)."""
    from ..functions.windows import asof_join_events
    return asof_join_events(
        _events(sf_dir, ["event_id", "ts", "user_id", "event_type"]))


def q_events_bursts(sf_dir: str):
    """Burst detection: events with ≥3 same-user events in the prior
    6 hours (functions/windows.burst_events)."""
    from ..functions.windows import burst_events
    return burst_events(_events(sf_dir, ["event_id", "ts", "user_id"]))


def q_events_funnel(sf_dir: str):
    """Funnel conversion: per user, purchases with a click within the
    prior hour (functions/windows.funnel_conversions)."""
    from ..functions.windows import funnel_conversions
    return funnel_conversions(
        _events(sf_dir, ["ts", "user_id", "event_type"]))


def q_events_interval_join(sf_dir: str):
    """Broadcast interval join: events counted inside each type's
    opening window (functions/windows.interval_join_counts — bounded
    interval side broadcast, map-only count, zero event shuffle)."""
    from ..functions.windows import interval_join_counts
    return interval_join_counts(_events(sf_dir, ["ts", "event_type"]))


def q_events_funnel3(sf_dir: str):
    """Ordered 3-step windowed funnel view→click→purchase, 1-day step
    windows (functions/windows.funnel_stages — per-stage validity via
    segmented searchsorted against the prior stage's valid set)."""
    from ..functions.windows import funnel_stages
    return funnel_stages(_events(sf_dir, ["user_id", "ts", "event_type"]))


def q_events_match_pattern(sf_dir: str):
    """MATCH_RECOGNIZE-lite: per user, count of non-overlapping 'vc*p'
    (view, clicks, purchase) matches over the (ts, event_id)-ordered
    symbol sequence (functions/windows.match_recognize_counts)."""
    from ..functions.windows import match_recognize_counts
    return match_recognize_counts(
        _events(sf_dir, ["user_id", "ts", "event_id", "event_type"]))


def q_lang_embedding_stats(sf_dir: str):
    """Cross-table hash join documents⋈embeddings (doc_id = vec_id)
    then per-lang vector-norm stats — the join surface over the corpus
    tables plus a vectorized numpy kernel per batch."""
    import ray

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "lang"])
    emb = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                          columns=["vec_id", "embedding"])

    def norms(b: pa.Table) -> pa.Table:
        import numpy as np
        flat = np.asarray(b["embedding"].combine_chunks().flatten(),
                          dtype=np.float64)
        offs = np.asarray(b["embedding"].combine_chunks().offsets)
        sq = np.add.reduceat(flat * flat, offs[:-1]) \
            if len(flat) else np.zeros(0)
        empty = (offs[1:] - offs[:-1]) == 0
        sq = np.where(empty, 0.0, sq)
        return pa.table({"vec_id": b["vec_id"],
                         "norm": pa.array(np.sqrt(sq), pa.float64())})

    emb = emb.map_batches(norms, batch_format="pyarrow")
    cpus = int(ray.cluster_resources().get("CPU", 8)) \
        if ray.is_initialized() else 8
    j = emb.join(docs, "inner", max(2, min(16, cpus // 4)),
                 on=("vec_id",), right_on=("doc_id",))

    acc: dict[str, list] = {}
    for b in j.iter_batches(batch_format="pyarrow"):
        t = b.group_by("lang").aggregate([("norm", "sum"),
                                          ("norm", "count")])
        for r in t.to_pylist():
            a = acc.setdefault(r["lang"], [0.0, 0])
            a[0] += r["norm_sum"]
            a[1] += r["norm_count"]
    ks = sorted(acc)
    return pa.table({
        "lang": pa.array(ks, pa.string()),
        "n": pa.array([acc[k][1] for k in ks], pa.int64()),
        "avg_norm": pa.array([round(acc[k][0] / acc[k][1], 6)
                              for k in ks], pa.float64()),
    })


def q_lang_centroid_dist(sf_dir: str):
    """Embedding outlier detection for curation: per-language centroid
    (mean vector) then each vector's L2 distance to its own language's
    centroid — far-from-centroid rows are mislabeled/noisy candidates.

    Shape: ONE documents⋈embeddings hash join, materialized narrow
    (vec_id, lang, embedding) so the corpus is joined once and scanned
    twice. Pass 1: per-(batch, lang) partial vector sums — only
    (langs × dim) floats per batch cross to the driver, which merges
    the bounded (langs) centroid table and rounds to 6 dp so both
    engines threshold the identical centroid. Pass 2: broadcast the
    tiny centroid dict, per-batch vectorized distance. No per-row
    Python in either pass."""
    import ray

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "lang"])
    emb = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                          columns=["vec_id", "embedding"])

    # Ray's hash join rejects nested payload columns — carry the vector
    # through the exchange as fixed-stride little-endian f32 bytes
    # (numpy view both ways, no per-row Python)
    def pack(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"vec_id": pa.array([], pa.int64()),
                             "emb_bin": pa.array([], pa.binary())})
        arr = b["embedding"].combine_chunks()
        flat = np.asarray(arr.flatten(), dtype="<f4")
        dim = len(flat) // b.num_rows
        offs = np.arange(0, (b.num_rows + 1) * dim * 4, dim * 4,
                         dtype=np.int32)
        bin_arr = pa.Array.from_buffers(
            pa.binary(), b.num_rows,
            [None, pa.py_buffer(offs.tobytes()),
             pa.py_buffer(flat.tobytes())])
        return pa.table({"vec_id": b["vec_id"], "emb_bin": bin_arr})

    def unpack(b: pa.Table) -> np.ndarray:
        arr = b["emb_bin"].combine_chunks()
        if len(arr) == 0:
            return np.zeros((0, 0))
        offs = np.frombuffer(arr.buffers()[1], np.int32,
                             count=len(arr) + 1,
                             offset=arr.offset * 4)
        data = np.frombuffer(arr.buffers()[2], np.uint8)
        dim = (offs[1] - offs[0]) // 4
        rows = data[offs[:-1, None] + np.arange(dim * 4)]
        return rows.view("<f4").astype(np.float64)

    cpus = int(ray.cluster_resources().get("CPU", 8)) \
        if ray.is_initialized() else 8
    j = (emb.map_batches(pack, batch_format="pyarrow")
         .join(docs, "inner", max(2, min(16, cpus // 4)),
               on=("vec_id",), right_on=("doc_id",))
         .materialize())

    def partial_sums(b: pa.Table) -> pa.Table:
        langs, sums, ns = [], [], []
        mat = unpack(b)
        lg = np.asarray(b["lang"].to_pylist())
        for lang in np.unique(lg):
            rows = mat[lg == lang]
            langs.append(str(lang))
            sums.append(rows.sum(axis=0).tolist())
            ns.append(len(rows))
        return pa.table({
            "lang": pa.array(langs, pa.string()),
            "s": pa.array(sums, pa.list_(pa.float64())),
            "n": pa.array(ns, pa.int64())})

    acc: dict[str, list] = {}
    for b in (j.map_batches(partial_sums, batch_format="pyarrow")
              .iter_batches(batch_format="pyarrow")):
        for r in b.to_pylist():
            a = acc.setdefault(r["lang"], [None, 0])
            v = np.asarray(r["s"], dtype=np.float64)
            a[0] = v if a[0] is None else a[0] + v
            a[1] += r["n"]
    # floor-quantize the centroid (not round): np.round is half-even,
    # DuckDB round() is half-away — floor has ONE semantic on both
    # engines, so only a genuine 1e-13 summation-order straddle of a
    # 1e-6 cell boundary could ever differ (vs every tie differing)
    cents = {k: np.floor(v / n * 1e6) / 1e6 for k, (v, n) in acc.items()}
    cents_ref = ray.put(cents)

    def dist(b: pa.Table) -> pa.Table:
        c = ray.get(cents_ref)
        mat = unpack(b)
        lg = b["lang"].to_pylist()
        cm = np.stack([c[l] for l in lg]) if lg else mat
        # dist is emitted UNrounded: the driver comparator rounds both
        # engines' floats with the same mode, which in-pipeline
        # round-vs-ROUND() could not guarantee
        d = np.sqrt(((mat - cm) ** 2).sum(axis=1))
        return pa.table({"vec_id": b["vec_id"], "lang": b["lang"],
                         "dist": pa.array(d, pa.float64())})

    return j.map_batches(dist, batch_format="pyarrow")


def q_events_running(sf_dir: str):
    """SQL window functions (SUM/LAG OVER) as a user-keyed shuffle +
    in-group vectorized cumsum (functions/windows.running_totals)."""
    from ..functions.windows import running_totals
    return running_totals(
        _events(sf_dir, ["event_id", "ts", "user_id", "value"]))


def q_events_topn(sf_dir: str):
    """ROW_NUMBER ≤ 3 per event_type via two-phase bounded top-N
    (functions/windows.topn_per_group)."""
    from ..functions.windows import topn_per_group
    return topn_per_group(_events(sf_dir, ["event_id", "event_type",
                                           "value"]))


def q_events_pivot(sf_dir: str):
    """PIVOT event types into per-user count columns + exact cents value
    total (functions/windows.pivot_counts)."""
    from ..functions.windows import pivot_counts
    return pivot_counts(_events(sf_dir, ["user_id", "event_type",
                                         "value"]))


def q_users_no_big_purchase(sf_dir: str):
    """Anti-join / NOT EXISTS: users with no purchase over $100
    (functions/windows.users_without)."""
    from ..functions.windows import users_without
    return users_without(_events(sf_dir, ["user_id", "event_type",
                                          "value"]))


FIXTURE_ROOT = "/tmp/skewer_ray_fixtures"


def q_source_accounting(sf_dir: str):
    """acct(2) binary source reader over a deterministic fixture
    (sources/accounting.py; rows-only — the binary wire format has no
    SQL reader). sf_dir sizes the fixture."""
    import os
    from ..sources import read_accounting, write_acct_fixture
    n = 200 if "0.001" in sf_dir else 2000
    os.makedirs(FIXTURE_ROOT, exist_ok=True)
    path = os.path.join(FIXTURE_ROOT, f"acct_{n}.bin")
    if not os.path.exists(path):
        write_acct_fixture(path, n=n)
    return read_accounting([path])


def q_source_journald(sf_dir: str):
    """journald export source over a deterministic fixture (rows-only)."""
    import os
    from ..sources import read_journald_export
    n = 100 if "0.001" in sf_dir else 1000
    os.makedirs(FIXTURE_ROOT, exist_ok=True)
    path = os.path.join(FIXTURE_ROOT, f"journal_{n}.export")
    if not os.path.exists(path):
        recs = []
        for i in range(n):
            recs.append(
                f"__REALTIME_TIMESTAMP={1_700_000_000_000_000 + i * 1000}\n"
                f"PRIORITY={i % 8}\nSYSLOG_FACILITY={i % 24}\n"
                f"_COMM=svc{i % 7}\n_PID={100 + i}\n_HOSTNAME=node{i % 5}\n"
                f"_SYSTEMD_UNIT=svc{i % 7}.service\nMESSAGE=event {i}\n")
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            fh.write("\n".join(recs))
        os.rename(tmp, path)
    return read_journald_export([path])


TOPK_TERMS = 20
ZIPF_K = 100


def _term_topk(sf_dir: str, k: int) -> list[dict]:
    """Exact top-k (term, n) rows ordered (n DESC, term ASC).

    Shape: per-batch explode+partial-count → term-keyed shuffle
    combine (term cardinality scales with data) → per-block top-k (each
    term's TOTAL lives in exactly one block after the keyed combine, so
    block-local top-k is exact) → tiny driver merge (≤ k × blocks rows).
    The deterministic tie-break is shared with the SQL mirrors."""
    import numpy as np
    import pyarrow as pa
    from ..functions.textstats import norm_words
    from ..stages.agg import grouped_count

    def explode(batch: pa.Table) -> pa.Table:
        terms: list[str] = []
        for t in batch["text"].to_pylist():
            terms.extend(norm_words(t))
        return pa.table({"term": pa.array(terms, pa.string())})

    counts = grouped_count(
        _docs(sf_dir).map_batches(explode, batch_format="pyarrow"),
        ["term"], combine="shuffle")

    def block_topk(batch: pa.Table) -> pa.Table:
        n = np.asarray(batch["n"].to_pylist(), dtype=np.int64)
        terms = np.asarray(batch["term"].to_pylist(), dtype=object)
        idx = np.lexsort((terms, -n))[:k]
        return pa.table({"term": pa.array(list(terms[idx]), pa.string()),
                         "n": pa.array(n[idx], pa.int64())})

    rows = (counts.map_batches(block_topk, batch_format="pyarrow")
            .take_all())  # bounded: ≤ k × blocks
    rows.sort(key=lambda r: (-r["n"], r["term"]))
    return rows[:k]


def q_topk_terms(sf_dir: str):
    """Distributed heavy hitters: top-K most frequent words over the
    corpus (see _term_topk for the exchange shape)."""
    rows = _term_topk(sf_dir, TOPK_TERMS)
    return pa.table({"term": pa.array([r["term"] for r in rows]),
                     "n": pa.array([r["n"] for r in rows], pa.int64())})


def zipf_fit(counts) -> tuple[int, float, float]:
    """OLS fit of ln(freq) on ln(rank) over counts already ordered by
    rank (1-based): returns (k, slope, intercept). Pure driver math over
    ≤ ZIPF_K scalars; shared by q_zipf_slope and its tests."""
    y = np.log(np.asarray(counts, dtype=np.float64))
    k = len(y)
    x = np.log(np.arange(1, k + 1, dtype=np.float64))
    sx, sy = float(x.sum()), float(y.sum())
    sxy, sxx = float((x * y).sum()), float((x * x).sum())
    slope = (k * sxy - sx * sy) / (k * sxx - sx * sx)
    intercept = (sy - slope * sx) / k
    return k, slope, intercept


def q_zipf_slope(sf_dir: str):
    """Zipf power-law diagnostic: OLS slope of ln(freq) on ln(rank)
    over the top-ZIPF_K terms — the corpus-health check that flags
    template-heavy or boilerplate-dominated crawls (natural text sits
    near slope ≈ -1). Reuses the exact heavy-hitter shape of
    q_topk_terms (_term_topk: term-keyed combine, per-block exact
    top-k, tiny driver merge); the regression itself is driver math
    over ≤ ZIPF_K scalars. Exact SQL mirror "zipf_slope". Output:
    (k, slope6, intercept6)."""
    rows = _term_topk(sf_dir, ZIPF_K)
    k, slope, intercept = zipf_fit([r["n"] for r in rows])
    return pa.table({
        "k": pa.array([k], pa.int64()),
        "slope6": pa.array([float(np.round(slope, 6))], pa.float64()),
        "intercept6": pa.array([float(np.round(intercept, 6))],
                               pa.float64()),
    })


def q_distinct_terms_lang(sf_dir: str):
    """Exact per-language vocabulary size via SALTED repartitioning
    (stages/agg.salted_distinct_count): values split across 64 salt
    groups so a whale language never concentrates its vocabulary in
    one task — the north rule's salted-shuffle treatment for the
    aggregate a combiner cannot bound."""
    from ..functions.textstats import norm_words
    from ..stages.agg import salted_distinct_count

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["text", "lang"])

    def explode(batch: pa.Table) -> pa.Table:
        langs, words = [], []
        for lg, t in zip(batch["lang"].to_pylist(),
                         batch["text"].to_pylist()):
            ws = norm_words(t)
            langs.extend([lg] * len(ws))
            words.extend(ws)
        return pa.table({"lang": pa.array(langs, pa.string()),
                         "word": pa.array(words, pa.string())})

    return salted_distinct_count(
        docs.map_batches(explode, batch_format="pyarrow"),
        "lang", "word")


SPAN_K = 5          # words per span for cross-doc duplicate detection


def q_dup_span_fraction(sf_dir: str):
    """Cross-document duplicate-span fraction: for every doc with ≥ K
    words, the share of its distinct K-word spans that also occur in
    at least one OTHER document — the span-level dedup signal used to
    flag boilerplate/copied text (complementary to ``text_repetition``,
    which is within-doc). Reported as exact integer ppm.

    Shape: per-doc distinct (span, doc) pairs (map-only — a doc's text
    lives in one row, so its span total is known at map time); ONE
    span-keyed bucket groupby marks spans with ≥2 distinct docs and
    emits per-doc partial shared-counts (vectorized pandas inside each
    bucket — no per-span Python calls); one doc-keyed bucket combine
    merges partials with the per-doc totals. A viral span shared by
    every doc costs one row per (span, doc) pair — bounded by the
    explode size, never quadratic.

    The exchange carries an INT64 hash of each span, not the span
    string (the same md5[:16] identity hash the MinHash verifier ships,
    ``dedup._shingle_hash64``): "two docs share a span" over hashes
    equals the string form barring a ~2⁻⁶⁴ collision, and the
    span-keyed shuffle shrinks ~5× (K=5 words ≈ 40 B vs 8 B/row)."""
    from ..functions.dedup import _shingle_hash64
    from ..functions.textstats import norm_words
    from ..stages.buckets import grouped_by_bucket

    def explode(batch: pa.Table) -> pa.Table:
        docs, grams = [], []
        hcache: dict[str, int] = {}
        for d, t in zip(batch["doc_id"].to_pylist(),
                        batch["text"].to_pylist()):
            ws = norm_words(t)
            if len(ws) < SPAN_K:
                continue
            spans = {" ".join(ws[i:i + SPAN_K])
                     for i in range(len(ws) - SPAN_K + 1)}
            docs.extend([d] * len(spans))
            for s in spans:
                h = hcache.get(s)
                if h is None:
                    h = hcache[s] = _shingle_hash64(s)
                grams.append(h)
        return pa.table({"doc_id": pa.array(docs, pa.int64()),
                         "g": pa.array(grams, pa.int64())})

    rows = _docs(sf_dir).map_batches(explode, batch_format="pyarrow")

    def shared_partials(b: pa.Table) -> pa.Table:
        # spans are DISTINCT per doc, and each (g, doc) row lands in
        # exactly one bucket — so per-doc row counts here sum to the
        # doc's span total across buckets (one corpus scan, no second
        # totals pass)
        import pandas as pd
        df = pd.DataFrame({"doc_id": b["doc_id"].to_numpy(
                               zero_copy_only=False),
                           "g": b["g"].to_numpy(zero_copy_only=False)})
        nd = df.groupby("g")["doc_id"].nunique()
        shared = df[df["g"].map(nd) >= 2]
        cnt = shared.groupby("doc_id").size()
        tot = df.groupby("doc_id").size()
        out = pd.DataFrame({"n_shared": cnt, "n_grams": tot}) \
            .fillna(0).astype("int64").reset_index()
        return pa.table({
            "doc_id": pa.array(out["doc_id"].to_numpy(), pa.int64()),
            "n_shared": pa.array(out["n_shared"].to_numpy(), pa.int64()),
            "n_grams": pa.array(out["n_grams"].to_numpy(), pa.int64())})

    partials = grouped_by_bucket(rows, shared_partials, key="g")

    def merge(b: pa.Table) -> pa.Table:
        g = b.group_by("doc_id").aggregate(
            [("n_shared", "sum"), ("n_grams", "sum")])
        ns = g["n_shared_sum"].to_numpy(zero_copy_only=False)
        ng = g["n_grams_sum"].to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": g["doc_id"],
            "n_grams": pa.array(ng, pa.int64()),
            "n_shared": pa.array(ns, pa.int64()),
            "shared_ppm": pa.array(ns * 1_000_000 // ng, pa.int64())})

    return grouped_by_bucket(partials, merge, key="doc_id",
                             coalesce=False)


def q_dedup_spans_removed(sf_dir: str):
    """Exact substring deduplication (the removal pass of Lee et al.
    2022, "Deduplicating Training Data Makes Language Models Better",
    word-granular): every word covered by a ``SPAN_K``-word span that
    occurs ≥2 times GLOBALLY (within- or cross-document, every
    occurrence counted) is removed, and the cleaned text is rebuilt
    from the surviving words. Complements ``dup_span_fraction`` (which
    only measures the signal). Output per doc with ≥1 word:
    (doc_id, n_words, n_removed, clean_text) — clean_text is
    whitespace-normalized lowercase, the same word model the span
    detection runs on.

    Shape: map-only explode to (doc_id, start_pos, g) rows — one row
    per span OCCURRENCE (not distinct-per-doc: within-doc repeats are
    duplicates too), g = the int64 identity hash of the span string
    (``dedup._shingle_hash64``; ~2⁻⁶⁴ false-dup caveat as in
    dup_span_fraction, 8 B/row through the exchange). ONE g-keyed
    bucket groupby finds runs with ≥2 occurrences and emits only the
    (doc_id, start_pos) of duplicated occurrences; those partials are
    UNIONed with the docs table and co-grouped by doc_id (the
    repartition-join pattern), where a vectorized difference-array
    scan (+1 at start, -1 at start+K, cumsum > 0) marks covered word
    positions and the join rebuilds the text. No all-pairs, no
    broadcast, no driver materialization; a viral span costs one row
    per occurrence, never quadratic."""
    from ..functions.dedup import _shingle_hash64
    from ..functions.textstats import norm_words
    from ..stages.buckets import grouped_by_bucket, run_starts

    def explode(batch: pa.Table) -> pa.Table:
        docs, poss, grams = [], [], []
        hcache: dict[str, int] = {}
        for d, t in zip(batch["doc_id"].to_pylist(),
                        batch["text"].to_pylist()):
            ws = norm_words(t)
            for i in range(len(ws) - SPAN_K + 1):
                s = " ".join(ws[i:i + SPAN_K])
                h = hcache.get(s)
                if h is None:
                    h = hcache[s] = _shingle_hash64(s)
                docs.append(d)
                poss.append(i)
                grams.append(h)
        return pa.table({"doc_id": pa.array(docs, pa.int64()),
                         "pos": pa.array(poss, pa.int64()),
                         "g": pa.array(grams, pa.int64())})

    spans = _docs(sf_dir).map_batches(explode, batch_format="pyarrow")

    dup_empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "pos": pa.array([], pa.int64())})

    def dup_occurrences(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return dup_empty
        idx = pc.sort_indices(b, sort_keys=[("g", "ascending")])
        t = b.take(idx)
        g = t["g"].to_numpy(zero_copy_only=False)
        starts = run_starts(g)
        run_id = np.cumsum(starts) - 1
        dup = np.bincount(run_id)[run_id] >= 2
        sub = t.take(pa.array(np.nonzero(dup)[0], pa.int64()))
        return sub.select(["doc_id", "pos"])

    covered = grouped_by_bucket(spans, dup_occurrences, key="g")

    # repartition join: tag both sides, union, co-group by doc_id
    def tag_cov(b: pa.Table) -> pa.Table:
        return pa.table({"doc_id": b["doc_id"], "pos": b["pos"],
                         "text": pa.nulls(len(b), pa.string())})

    def tag_docs(b: pa.Table) -> pa.Table:
        return pa.table({"doc_id": pc.cast(b["doc_id"], pa.int64()),
                         "pos": pa.nulls(len(b), pa.int64()),
                         "text": b["text"]})

    unioned = covered.map_batches(tag_cov, batch_format="pyarrow").union(
        _docs(sf_dir).map_batches(tag_docs, batch_format="pyarrow"))

    def rebuild(b: pa.Table) -> pa.Table:
        texts = b["text"].to_pylist()
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        pos = b["pos"].to_numpy(zero_copy_only=False)
        is_doc = np.array([t is not None for t in texts], dtype=bool)
        starts_by_doc: dict[int, list[int]] = {}
        for d, p in zip(ids[~is_doc], pos[~is_doc]):
            starts_by_doc.setdefault(int(d), []).append(int(p))
        o_id, o_n, o_rm, o_txt = [], [], [], []
        for d, t in zip(ids[is_doc], [t for t in texts if t is not None]):
            ws = norm_words(t)
            n = len(ws)
            if n == 0:
                continue
            st = starts_by_doc.get(int(d))
            if st:
                diff = np.zeros(n + 1, np.int64)
                sa = np.asarray(st, np.int64)
                np.add.at(diff, sa, 1)
                np.add.at(diff, sa + SPAN_K, -1)
                keep = np.cumsum(diff[:n]) == 0
                n_rm = int(n - keep.sum())
                clean = " ".join(w for w, k in zip(ws, keep) if k)
            else:
                n_rm = 0
                clean = " ".join(ws)
            o_id.append(int(d))
            o_n.append(n)
            o_rm.append(n_rm)
            o_txt.append(clean)
        return pa.table({"doc_id": pa.array(o_id, pa.int64()),
                         "n_words": pa.array(o_n, pa.int64()),
                         "n_removed": pa.array(o_rm, pa.int64()),
                         "clean_text": pa.array(o_txt, pa.string())})

    return grouped_by_bucket(unioned, rebuild, key="doc_id")


LM_MIN_COUNT = 20   # emit bigrams seen at least this often


def q_bigram_lm(sf_dir: str):
    """N-gram language-model training counts: corpus bigram counts with
    conditional probability P(w2 | w1) = n(w1,w2) / n(w1·), for bigrams
    seen ≥ ``LM_MIN_COUNT`` times — the count-collection pass of
    classic LM estimation (and of modern tokenizer/data-quality
    tooling). Shape: per-batch explode to (w1, w2) partial counts
    (map-side combine — the exchange carries distinct bigrams per
    batch, not tokens), ONE bigram-keyed combine; the unigram
    denominators come from the SAME exchange by summing each w1 group,
    so no second corpus scan. Counts are exact integers; the
    conditional probability is emitted as integer parts-per-million
    (floor(n·10⁶/total)) so no cross-engine float-rounding mode can
    skew the compared values."""
    from ..functions.textstats import norm_words
    from ..stages.agg import grouped_count

    def explode(batch: pa.Table) -> pa.Table:
        w1, w2 = [], []
        for t in batch["text"].to_pylist():
            ws = norm_words(t)
            w1.extend(ws[:-1])
            w2.extend(ws[1:])
        return pa.table({"w1": pa.array(w1, pa.string()),
                         "w2": pa.array(w2, pa.string())})

    counts = grouped_count(
        _docs(sf_dir).map_batches(explode, batch_format="pyarrow"),
        ["w1", "w2"], combine="shuffle")

    # unigram totals per w1 from the combined bigram counts; the
    # exchange keys on a hash bucket of w1 (stages/buckets) so one
    # vectorized call covers hundreds of unigram groups instead of one
    # Python invocation per vocabulary entry
    from ..stages.buckets import grouped_by_bucket

    def per_bucket(batch: pa.Table) -> pa.Table:
        import pandas as pd
        df = pd.DataFrame({
            "w1": batch["w1"].to_pylist(),
            "w2": batch["w2"].to_pylist(),
            "n": batch["n"].to_numpy(zero_copy_only=False)})
        tot = df.groupby("w1")["n"].transform("sum").to_numpy()
        keep = df["n"].to_numpy() >= LM_MIN_COUNT
        n = df["n"].to_numpy()[keep]
        ppm = n * 1_000_000 // tot[keep]        # exact integer floor
        return pa.table({
            "w1": pa.array(df["w1"].to_numpy()[keep].tolist(),
                           pa.string()),
            "w2": pa.array(df["w2"].to_numpy()[keep].tolist(),
                           pa.string()),
            "n": pa.array(n, pa.int64()),
            "p_ppm": pa.array(ppm, pa.int64())})

    return grouped_by_bucket(counts, per_bucket, key="w1",
                             coalesce=False)


CCNET_QK_SCALE = 100  # fluency_ppm // 100 → ≤10k histogram cells


def q_ccnet_buckets(sf_dir: str):
    """CCNet-style fluency bucketing (Wenzek et al. 2020, "CCNet:
    Extracting High Quality Monolingual Datasets from Web Crawl Data"):
    score every doc with ≥2 words by its mean bigram conditional
    probability under the corpus LM and split the corpus into
    head / middle / tail terciles — CCNet's perplexity buckets, with
    "fluent = high mean P(w2|w1)" replacing the float perplexity so the
    whole chain is exact-integer and cross-engine stable.

    fluency_ppm = Σ p_ppm(bigram) // n_bigrams, where p_ppm is
    q_bigram_lm's floor-ppm conditional (bigrams below the
    LM_MIN_COUNT=20 emission filter contribute 0 — the filter is also
    what bounds the broadcast model at scale: heavy-hitter bigrams
    only, never vocab²). Terciles come from a BOUNDED histogram of
    qk = fluency_ppm // 100 (≤10⁴ cells regardless of corpus size,
    partial counts combine map-side) index-selected with the shared
    ``curation._hist_quantile`` rule = DuckDB quantile_disc. Three
    passes: model fit (one bigram-keyed exchange), map-only scoring
    against the ``ray.put`` model, bounded-histogram threshold +
    map-only labeling. Nothing driver-side ever exceeds the model /
    histogram bounds."""
    import ray

    from ..functions.curation import _hist_quantile
    from ..functions.textstats import norm_words

    model = {(r["w1"], r["w2"]): r["p_ppm"]
             for r in q_bigram_lm(sf_dir).take_all()}
    model_ref = ray.put(model)

    def score(b: pa.Table) -> pa.Table:
        lm = ray.get(model_ref)
        o_id, o_fl = [], []
        for d, t in zip(b["doc_id"].to_pylist(), b["text"].to_pylist()):
            ws = norm_words(t)
            if len(ws) < 2:
                continue
            s = sum(lm.get((a, c), 0) for a, c in zip(ws[:-1], ws[1:]))
            o_id.append(d)
            o_fl.append(s // (len(ws) - 1))
        fl = np.array(o_fl, np.int64)
        return pa.table({"doc_id": pa.array(o_id, pa.int64()),
                         "fluency_ppm": pa.array(fl, pa.int64()),
                         "qk": pa.array(fl // CCNET_QK_SCALE, pa.int64())})

    scores = _docs(sf_dir).map_batches(
        score, batch_format="pyarrow").materialize()

    def hist(b: pa.Table) -> pa.Table:
        t = pa.table({"qk": b["qk"],
                      "n": pa.array(np.ones(b.num_rows, np.int64))})
        return t.group_by("qk").aggregate([("n", "sum")])

    acc: dict[int, int] = {}
    for b in scores.map_batches(hist, batch_format="pyarrow") \
                   .iter_batches(batch_format="pyarrow"):
        for r in b.to_pylist():
            acc[r["qk"]] = acc.get(r["qk"], 0) + r["n_sum"]
    t1 = _hist_quantile(acc, 1 / 3)
    t2 = _hist_quantile(acc, 2 / 3)

    def label(b: pa.Table) -> pa.Table:
        qk = b["qk"].to_numpy(zero_copy_only=False)
        buckets = np.where(qk > t2, "head",
                           np.where(qk > t1, "middle", "tail"))
        return pa.table({"doc_id": b["doc_id"],
                         "fluency_ppm": b["fluency_ppm"],
                         "bucket": pa.array(buckets.tolist(), pa.string())})

    return scores.map_batches(label, batch_format="pyarrow")


IDX_MIN_DF = 5      # index only terms in ≥ this many docs
IDX_POSTINGS = 20   # bounded posting-list prefix per term


def q_inverted_index(sf_dir: str):
    """Inverted-index build: term → (document frequency, bounded
    posting-list prefix). The posting list is capped at the first
    ``IDX_POSTINGS`` doc_ids (ascending) while df counts ALL docs —
    the scale-honest layout: a hot term ("the") costs K rows per
    batch in the exchange, never its full posting list, exactly the
    two-phase top-K shape of ``cap_per_group``.

    Shape: per-batch explode to DISTINCT (term, doc) pairs with a
    per-batch partial — (term, partial_df, first-K doc prefix) — then
    ONE term-keyed groupby merges partials: df = Σ, postings = K
    smallest of the concatenated prefixes (correct because each
    partial's discarded ids are all larger than its kept K-th)."""
    from ..functions.textstats import norm_words

    def explode_partial(batch: pa.Table) -> pa.Table:
        per_term: dict[str, list] = {}
        for d, t in zip(batch["doc_id"].to_pylist(),
                        batch["text"].to_pylist()):
            for w in set(norm_words(t)):
                per_term.setdefault(w, []).append(d)
        ks = sorted(per_term)
        return pa.table({
            "term": pa.array(ks, pa.string()),
            "pdf": pa.array([len(per_term[k]) for k in ks], pa.int64()),
            "prefix": pa.array(
                [sorted(per_term[k])[:IDX_POSTINGS] for k in ks],
                pa.list_(pa.int64()))})

    def merge_bucket(batch: pa.Table) -> pa.Table:
        # one call per hash bucket of terms: df sums vectorized; the
        # Python prefix-merge loop runs only over terms PASSING the df
        # floor (tiny), never the whole vocabulary
        import pandas as pd
        df = pd.DataFrame({
            "term": batch["term"].to_pylist(),
            "pdf": batch["pdf"].to_numpy(zero_copy_only=False),
            "prefix": batch["prefix"].to_pylist()})
        tot = df.groupby("term")["pdf"].sum()
        keep = tot[tot >= IDX_MIN_DF]
        out_t, out_df, out_post = [], [], []
        sub = df[df["term"].isin(keep.index)]
        for term, grp in sub.groupby("term"):
            ids = sorted(x for lst in grp["prefix"]
                         for x in lst)[:IDX_POSTINGS]
            out_t.append(term)
            out_df.append(int(keep[term]))
            out_post.append(",".join(map(str, ids)))
        return pa.table({
            "term": pa.array(out_t, pa.string()),
            "df": pa.array(out_df, pa.int64()),
            "postings": pa.array(out_post, pa.string())})

    from ..stages.buckets import grouped_by_bucket
    return grouped_by_bucket(
        _docs(sf_dir).map_batches(explode_partial,
                                  batch_format="pyarrow"),
        merge_bucket, key="term")


def q_events_hopping(sf_dir: str):
    from ..functions.windows import hopping_counts
    return hopping_counts(_events(sf_dir, ["ts", "event_type", "value"]))


def collectd_fixture_metric(i: int):
    """Deterministic collectd metric for record i (pure function — the
    DuckDB oracle re-derives every field from range(n))."""
    k = i % 4
    if k == 0:
        return ("cpu", "", "cpu", "idle", [("derive", i * 100)])
    if k == 1:
        return ("interface", "eth0", "if_octets", "",
                [("derive", i), ("derive", 2 * i)])
    if k == 2:
        return ("memory", "", "memory", "used", [("gauge", i + 0.5)])
    return ("load", "", "load", "",
            [("gauge", (i % 10) + 0.25), ("gauge", float(i % 10)),
             ("gauge", (i % 10) / 2)])


def macos_fixture_line(i: int) -> str:
    """One deterministic `log stream --style json` event (pure function
    of i; the SQL oracle re-derives every field from range(n))."""
    import json as _json
    d = {
        "timestamp": f"2026-01-15 05:10:{i % 60:02d}.{(i * 137) % 1000000:06d}+0100",
        "eventMessage": f"macos event {i}",
        "processImagePath": f"/usr/bin/proc{i % 7}",
        "processID": 300 + i % 50,
        "messageType": ["Default", "Info", "Error"][i % 3],
        "processUniqueID": 1000 + i,
        "threadID": i,
        "traceID": i * 3,
        "activityID": i % 11,
        "machTimestamp": 10_000_000_000 + i,
        "senderProgramCounter": i * 7,
    }
    if i % 4:
        d["category"] = f"cat{i % 4}"
    if i % 5:
        d["subsystem"] = f"com.example.s{i % 3}"
    return _json.dumps(d, separators=(",", ":"))


def q_parse_macos(sf_dir: str):
    """macOS unified-log JSON decoder over a deterministic event stream
    (services/macos/macoslogs.go:135-195 parity)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from ..decoders import DecoderConfig
    from ..stages.parse import ParseStage

    n = 200 if "0.001" in sf_dir else 2000
    chunks = []
    for off in range(0, n, 256):
        m = min(256, n - off)
        chunks.append(pa.table({
            "conv_id": pa.array(["macos"] * m),
            "turn_idx": pa.array(range(off, off + m), pa.int32()),
            "role": pa.array([""] * m),
            "text": pa.array([macos_fixture_line(i)
                              for i in range(off, off + m)]),
            "tool": pa.array([""] * m),
            "ts": pa.array([1_700_000_000_000_000 + i
                            for i in range(off, off + m)],
                           pa.timestamp("us")),
        }))
    ds = rd.from_arrow(chunks)
    stage = ParseStage(single=DecoderConfig(format="macos"))

    def proj(batch: pa.Table) -> pa.Table:
        b = stage(batch)
        return pa.table({
            "rec_idx": pc.cast(b["turn_idx"], pa.int64()),
            "hostname": b["hostname"],
            "appname": b["appname"],
            "procid": b["procid"],
            "priority": b["priority"],
            "facility": b["facility"],
            "severity": b["severity"],
            "version": b["version"],
            "time_reported": pc.cast(
                pc.divide(b["time_reported"], 1000), pa.timestamp("us")),
            "message": b["message"],
            "properties": b["properties"],
        })

    return ds.map_batches(proj, batch_format="pyarrow")


def q_parse_collectd(sf_dir: str):
    """collectd binary decoder over a deterministic packet stream:
    types.db DS naming, gauge/derive property domains, value-list JSON
    message (decoders/collectd.go:52-92 parity)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from ..decoders import DecoderConfig
    from ..decoders.collectd import encode_packet
    from ..stages.parse import ParseStage

    n = 200 if "0.001" in sf_dir else 2000
    texts, tss = [], []
    for i in range(n):
        time_s = 1_700_000_000 + i * 10
        pkt = encode_packet(f"cnode{i % 5}", time_s,
                            [collectd_fixture_metric(i)], interval_s=10)
        texts.append(pkt.decode("latin-1"))
        tss.append(time_s * 1_000_000)
    chunks = []
    for off in range(0, n, 256):
        m = min(256, n - off)
        chunks.append(pa.table({
            "conv_id": pa.array(["collectd"] * m),
            "turn_idx": pa.array(range(off, off + m), pa.int32()),
            "role": pa.array([""] * m),
            "text": pa.array(texts[off:off + m]),
            "tool": pa.array([""] * m),
            "ts": pa.array(tss[off:off + m], pa.timestamp("us")),
        }))
    ds = rd.from_arrow(chunks)
    stage = ParseStage(single=DecoderConfig(format="collectd"))

    def proj(batch: pa.Table) -> pa.Table:
        b = stage(batch)
        return pa.table({
            "rec_idx": pc.cast(b["turn_idx"], pa.int64()),
            "hostname": b["hostname"],
            "procid": b["procid"],
            "priority": b["priority"],
            "facility": b["facility"],
            "severity": b["severity"],
            "time_reported": pc.cast(
                pc.divide(b["time_reported"], 1000), pa.timestamp("us")),
            "message": b["message"],
            "properties": b["properties"],
        })

    return ds.map_batches(proj, batch_format="pyarrow")


from .edge_corpus import q_parse_edge_syslog  # noqa: E402


CMS_PROBES = ("table", "value", "key", "row", "hash", "merge",
              "scan", "sort")


def q_cms_terms(sf_dir: str):
    """Count-Min sketch frequency estimates for a probe-term list —
    bounded-memory per-term counts with ZERO term-keyed shuffle (each
    batch ships a ≤ depth×width counter grid); deterministic md5
    hashing so the oracle rebuilds the identical grid
    (functions/sketches.cms_term_counts)."""
    from ..functions.sketches import cms_term_counts
    return cms_term_counts(_docs(sf_dir), CMS_PROBES)


def q_stratified_sample(sf_dir: str):
    """Per-language stratified sampling (corpus rebalancing): keep-rate
    is a per-stratum knob, membership a pure md5 function of doc_id —
    map-only, reproducible across engines and partitionings
    (functions/curation.stratified_sample)."""
    from ..functions.curation import stratified_sample
    return stratified_sample(_docs_full(sf_dir))


def q_bpe_merges(sf_dir: str):
    """Tokenizer-training inner step: corpus-wide adjacent character-
    pair counts (BPE round 0) via one vectorized UTF-32 kernel per
    batch; the exchange is bounded by the charset² pair domain
    (functions/bpe.bpe_merge_candidates)."""
    from ..functions.bpe import bpe_merge_candidates
    return bpe_merge_candidates(_docs(sf_dir))


def q_embedding_quantize(sf_dir: str):
    """Symmetric int8 scalar quantization of the embedding table:
    per-dimension max-abs partials (dim-bounded exchange) → broadcast
    scale vector → embarrassingly-parallel floor-quantize map; exact
    integer code summaries so the oracle is bit-for-bit
    (functions/quantize.quantize_embeddings)."""
    from ..functions.quantize import quantize_embeddings
    return quantize_embeddings(_emb(sf_dir))


def q_profile_docs(sf_dir: str):
    """ANALYZE-style one-pass column statistics for the documents
    table: per column the row/null counts, a uniform-rule KMV distinct
    estimate (exact for every domain below k=256 — lang/source come
    out exact, doc_id/text estimated) and native-typed min/max
    (functions/sketches.profile_table)."""
    from ..functions.sketches import profile_table
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet")
    return profile_table(ds, int_cols=["doc_id", "n_chars"],
                         str_cols=["text", "lang", "source"])


def q_matryoshka_rerank(sf_dir: str):
    """Matryoshka two-stage retrieval: prefix-16-dim coarse top-20
    scan, full-64-dim rerank of the bounded candidate set
    (functions/similarity.matryoshka_rerank)."""
    from ..functions.similarity import matryoshka_rerank
    return matryoshka_rerank(_emb(sf_dir), ANN_QUERY_IDS, k=ANN_K)


def q_mmr_diversify(sf_dir: str):
    """MMR-diversified top-k: exact top-8 cosine pool per query, then
    the greedy rel - max-sim-to-selected fold in integer micro-cosine
    units (functions/similarity.mmr_diversify)."""
    from ..functions.similarity import mmr_diversify
    return mmr_diversify(_emb(sf_dir), ANN_QUERY_IDS, k=ANN_K)


def q_feature_hashing(sf_dir: str):
    """Hashing-trick bag-of-words: map-only signed md5 bucket sums per
    doc, no vocabulary exchange (functions/textstats.
    feature_hash_batch)."""
    from ..functions.textstats import feature_hash_batch
    return _docs(sf_dir).map_batches(feature_hash_batch,
                                     batch_format="pyarrow")


def q_alert_windows(sf_dir: str):
    """Edge-triggered per-user threshold alerts over tumbling windows
    (functions/windows.alert_windows): fires on the below→at-or-above
    crossing only."""
    from ..functions.windows import alert_windows
    return alert_windows(_events(sf_dir, ["ts", "user_id"]))


def q_rate_limit(sf_dir: str):
    """Per-(user, window) rate limiting with auditable drop marks
    (functions/windows.rate_limit): first 3 by (ts, event_id) pass."""
    from ..functions.windows import rate_limit
    return rate_limit(_events(sf_dir, ["event_id", "ts", "user_id"]))


def q_zscore_lengths(sf_dir: str):
    """Per-lang z-score normalization of document length from exact
    INT64 moment partials (functions/textstats.zscore_lengths)."""
    from ..functions.textstats import zscore_lengths
    return zscore_lengths(rd.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "lang", "n_chars"]))


def q_redact_terms(sf_dir: str):
    """Blocklist term redaction audit: per-doc hit counts + scrubbed-
    text md5, map-only (functions/textstats.redact_batch)."""
    from ..functions.textstats import redact_batch
    return _docs(sf_dir).map_batches(redact_batch,
                                     batch_format="pyarrow")


def q_cusum_changepoints(sf_dir: str):
    """Per-type CUSUM regime-shift detection over tumbling-window
    counts (functions/windows.cusum_changepoints), closed-form
    prefix-sum/running-min — no sequential fold on either engine."""
    from ..functions.windows import cusum_changepoints
    return cusum_changepoints(_events(sf_dir, ["ts", "event_type"]))


def q_winsorize_lengths(sf_dir: str):
    """Per-lang p10/p90 winsorization of document length from bounded
    value-domain histograms (functions/curation.winsorize_lengths)."""
    from ..functions.curation import winsorize_lengths
    return winsorize_lengths(rd.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "lang", "n_chars"]))


def q_attribution_linear(sf_dir: str):
    """Linear multi-touch attribution: exact-ppm credit split across
    lookback-window clicks (functions/windows.attribution_linear)."""
    from ..functions.windows import attribution_linear
    return attribution_linear(
        _events(sf_dir, ["event_id", "ts", "user_id", "event_type"]))


def q_psi_drift(sf_dir: str):
    """Per-day PSI distribution-drift monitor over event types in
    exact micro-units (functions/windows.psi_drift)."""
    from ..functions.windows import psi_drift
    return psi_drift(_events(sf_dir, ["ts", "event_type"]))



def q_mad_outliers(sf_dir: str):
    """k=2 MAD robust length outliers per language from the bounded
    (lang, n_chars) histogram (functions/curation.mad_outliers)."""
    from ..functions.curation import mad_outliers
    return mad_outliers(rd.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "lang", "n_chars"]))



def q_chi2_lang_source(sf_dir: str):
    """Chi-square independence test between lang and source: per-cell
    observed counts plus the (o−e)²/e term in micro-units, e = row·col/n
    in one shared IEEE expression — the categorical-drift diagnostic a
    corpus monitor runs between ingest snapshots.

    Scale: the (lang, source) contingency domain is bounded, so count
    partials combine map-side and the driver folds only the tiny grid.
    Exact SQL mirror: "chi2_lang_source"."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["lang", "source"])

    def cnt(b: pa.Table) -> pa.Table:
        t = pa.table({"lang": b["lang"], "source": b["source"],
                      "n": pa.array(np.ones(len(b), np.int64))})
        return t.group_by(["lang", "source"]).aggregate([("n", "sum")])

    acc: dict[tuple[str, str], int] = {}
    for b in ds.map_batches(cnt, batch_format="pyarrow") \
               .iter_batches(batch_format="pyarrow"):
        for r in b.to_pylist():
            k = (r["lang"], r["source"])
            acc[k] = acc.get(k, 0) + r["n_sum"]
    rows = {}
    cols = {}
    for (l, src), o in acc.items():
        rows[l] = rows.get(l, 0) + o
        cols[src] = cols.get(src, 0) + o
    n = sum(acc.values())
    ks = sorted(acc)
    terms = []
    for l, src in ks:
        o = acc[(l, src)]
        e = (rows[l] * cols[src]) / n
        terms.append(int(np.rint((o - e) * (o - e) / e * 1_000_000)))
    return pa.table({
        "lang": pa.array([k[0] for k in ks], pa.string()),
        "source": pa.array([k[1] for k in ks], pa.string()),
        "o": pa.array([acc[k] for k in ks], pa.int64()),
        "term_micro": pa.array(terms, pa.int64()),
    })



def q_wilson_ctr(sf_dir: str):
    """Wilson lower-bound click share per user (z=1.96), one shared
    IEEE expression with the SQL (functions/windows.wilson_ctr)."""
    from ..functions.windows import wilson_ctr
    return wilson_ctr(_events(sf_dir, ["user_id", "event_type"]))



def q_autocorr_daily(sf_dir: str):
    """Lag-1 autocorrelation of daily counts per event type from exact
    integer moments (functions/windows.autocorr_daily)."""
    from ..functions.windows import autocorr_daily
    return autocorr_daily(_events(sf_dir, ["ts", "event_type"]))


def q_seasonal_error(sf_dir: str):
    """Lag-7 seasonal-naive MAE per event type, exact integer sums
    (functions/windows.seasonal_error)."""
    from ..functions.windows import seasonal_error
    return seasonal_error(_events(sf_dir, ["ts", "event_type"]))



def q_bigram_pmi(sf_dir: str):
    """Collocation mining: pointwise mutual information of adjacent
    word pairs, pmi = ln(p_ab / (p_a·p_b)) with p_ab = c_ab/M (bigram
    share) and p_a = c_a/N (token share), emitted for bigrams seen
    ≥ LM_MIN_COUNT times — the phrase-detection pass a tokenizer /
    quality pipeline runs before merging multiword units.

    Scale: bigram counts go through the SAME map-side-combine exchange
    as bigram_lm (distinct bigrams per batch, never tokens); the
    unigram marginals are a broadcast dict (vocabulary-bounded — the
    decontam-benchmark assumption) and M/N are exact int64 folds of the
    two count tables. Only the final ln is IEEE, one shared expression
    with the SQL mirror "bigram_pmi"; ties are impossible so the
    round() modes agree."""
    import ray

    from ..functions.textstats import norm_words
    from ..stages.agg import grouped_count

    # ONE scan, ONE shuffle: bigram rows AND unigram marginal rows
    # share the exchange — unigram rows are tagged w2 = "\x00" (cannot
    # collide with a real token). The materialized count table then
    # serves the broadcast marginals, the exact M/N folds, and the
    # distributed scoring map without re-running the explode.
    UNI = "\x00"

    def explode_both(batch: pa.Table) -> pa.Table:
        w1, w2 = [], []
        for t in batch["text"].to_pylist():
            ws = norm_words(t)
            w1.extend(ws[:-1])
            w2.extend(ws[1:])
            w1.extend(ws)
            w2.extend([UNI] * len(ws))
        return pa.table({"w1": pa.array(w1, pa.string()),
                         "w2": pa.array(w2, pa.string())})

    counts = grouped_count(
        _docs(sf_dir).map_batches(explode_both, batch_format="pyarrow"),
        ["w1", "w2"], combine="shuffle").materialize()
    uc: dict[str, int] = {}
    m_tot = 0
    for b in counts.iter_batches(batch_format="pyarrow"):
        um = pc.equal(b["w2"], UNI)
        ut = b.filter(um)
        for w, n in zip(ut["w1"].to_pylist(), ut["n"].to_pylist()):
            uc[w] = uc.get(w, 0) + int(n)
        m_tot += int(pc.sum(b.filter(pc.invert(um))["n"]).as_py() or 0)
    n_tok = sum(uc.values())
    bi = counts
    bc = ray.put((uc, n_tok, m_tot))

    def score(b: pa.Table) -> pa.Table:
        u, nn, mm = ray.get(bc)
        t = b.filter(pc.and_(pc.greater_equal(b["n"], LM_MIN_COUNT),
                             pc.not_equal(b["w2"], UNI)))
        w1 = t["w1"].to_pylist()
        w2 = t["w2"].to_pylist()
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        ca = np.array([u[a] for a in w1], np.float64)
        cb = np.array([u[b2] for b2 in w2], np.float64)
        pmi = np.log((n / mm) / ((ca / nn) * (cb / nn)))
        return pa.table({
            "w1": t["w1"], "w2": t["w2"],
            "n": pc.cast(t["n"], pa.int64()),
            "pmi_micro": pa.array(
                np.rint(pmi * 1_000_000).astype(np.int64)),
        })

    return bi.map_batches(score, batch_format="pyarrow")



def q_hapax_share(sf_dir: str):
    """Lexical novelty: each document's share of corpus hapax legomena
    (words occurring exactly once in the whole corpus) among its words,
    in half-up micro units — the novelty/noise signal a curation pass
    uses to find OCR junk and genuinely fresh text at the same time.

    Scale: ONE map-side-combined unigram count pass (vocabulary-bounded
    driver fold, same broadcast assumption as bigram_pmi); the hapax
    SET broadcast once via ray.put; then a map-only per-doc share pass.
    Counts are exact ints; the share is float-free half-up integer
    rounding. Exact SQL mirror: "hapax_share"."""
    import ray

    from ..functions.textstats import norm_words
    from ..stages.agg import grouped_count

    def explode(batch: pa.Table) -> pa.Table:
        w = []
        for t in batch["text"].to_pylist():
            w.extend(norm_words(t))
        return pa.table({"w": pa.array(w, pa.string())})

    uni = grouped_count(
        _docs(sf_dir).map_batches(explode, batch_format="pyarrow"),
        ["w"], combine="driver")
    hapax = {w for w, n in zip(uni["w"].to_pylist(),
                               uni["n"].to_pylist()) if n == 1}
    bc = ray.put(hapax)

    def share(b: pa.Table) -> pa.Table:
        hx = ray.get(bc)
        ids, nw, nh, sh = [], [], [], []
        for d, t in zip(b["doc_id"].to_pylist(), b["text"].to_pylist()):
            ws = norm_words(t)
            if not ws:
                continue
            h = sum(1 for w in ws if w in hx)
            ids.append(d)
            nw.append(len(ws))
            nh.append(h)
            sh.append((h * 2_000_000 + len(ws)) // (2 * len(ws)))
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "n_words": pa.array(nw, pa.int64()),
            "n_hapax": pa.array(nh, pa.int64()),
            "share_micro": pa.array(sh, pa.int64()),
        })

    return _docs(sf_dir).map_batches(share, batch_format="pyarrow")



def q_fano_factor(sf_dir: str):
    """Daily-count burstiness (Fano factor) per event type
    (functions/windows.fano_factor)."""
    from ..functions.windows import fano_factor
    return fano_factor(_events(sf_dir, ["ts", "event_type"]))


def q_first_event_counts(sf_dir: str):
    """First-event type per user, counted per type
    (functions/windows.first_event_counts)."""
    from ..functions.windows import first_event_counts
    return first_event_counts(
        _events(sf_dir, ["event_id", "ts", "user_id", "event_type"]))



def q_dod_change(sf_dir: str):
    """Day-over-day daily-count change per event type
    (functions/windows.dod_change)."""
    from ..functions.windows import dod_change
    return dod_change(_events(sf_dir, ["ts", "event_type"]))



def q_corr_words_chars(sf_dir: str):
    """Pearson correlation between word count and char count per
    language — the redundancy screen a feature-selection pass runs
    before training a quality model. The five moments (Σx, Σy, Σxy,
    Σx², Σy²) are exact int64 map-side partials (order-independent;
    int64-safe to ~10¹² docs at these magnitudes) grouped by lang; the
    final r is ONE shared IEEE expression, rounded to 6 dp. Exact SQL
    mirror: "corr_words_chars". Output: (lang, n, r6)."""
    from ..functions.textstats import norm_words

    def moments(b: pa.Table) -> pa.Table:
        langs = b["lang"].to_pylist()
        xs, ys = [], []
        for t in b["text"].to_pylist():
            xs.append(len(norm_words(t)))
            ys.append(len(t))
        x = np.array(xs, np.int64)
        y = np.array(ys, np.int64)
        t = pa.table({
            "lang": pa.array(langs, pa.string()),
            "n": pa.array(np.ones(len(b), np.int64)),
            "sx": pa.array(x), "sy": pa.array(y),
            "sxy": pa.array(x * y), "sxx": pa.array(x * x),
            "syy": pa.array(y * y),
        })
        return t.group_by(["lang"]).aggregate(
            [("n", "sum"), ("sx", "sum"), ("sy", "sum"),
             ("sxy", "sum"), ("sxx", "sum"), ("syy", "sum")])

    acc: dict[str, list[int]] = {}
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["lang", "text"])
    for b in ds.map_batches(
            moments,
            batch_format="pyarrow").iter_batches(batch_format="pyarrow"):
        for r in b.to_pylist():
            a = acc.setdefault(r["lang"], [0, 0, 0, 0, 0, 0])
            for i, k in enumerate(("n_sum", "sx_sum", "sy_sum",
                                   "sxy_sum", "sxx_sum", "syy_sum")):
                a[i] += r[k]
    langs, ns, rs = [], [], []
    for lang in sorted(acc):
        n, sx, sy, sxy, sxx, syy = acc[lang]
        den = (float(n) * sxx - float(sx) * sx)             * (float(n) * syy - float(sy) * sy)
        if n < 2 or den <= 0.0:
            continue
        r = (float(n) * sxy - float(sx) * sy) / np.sqrt(den)
        langs.append(lang)
        ns.append(n)
        rs.append(float(np.round(r, 6)))
    return pa.table({
        "lang": pa.array(langs, pa.string()),
        "n": pa.array(ns, pa.int64()),
        "r6": pa.array(rs, pa.float64()),
    })


def q_hourly_profile(sf_dir: str):
    """Hour-of-day activity profile per event type — the periodicity
    fingerprint behind capacity planning. Bounded (type, hour) grid,
    map-side combine (functions-free: one grouped_count). Exact SQL
    mirror: "hourly_profile". Output: (event_type, hour, n)."""
    from ..stages.agg import grouped_count

    def pre(b: pa.Table) -> pa.Table:
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        hour = (us // 3_600_000_000) % 24
        return pa.table({"event_type": b["event_type"],
                         "hour": pa.array(hour, pa.int64())})

    return grouped_count(_events(sf_dir, ["ts", "event_type"]),
                         ["event_type", "hour"], pre=pre)



def q_dau_mau(sf_dir: str):
    """DAU/MAU stickiness per day, fully distributed distinct folds
    (functions/windows.dau_mau)."""
    from ..functions.windows import dau_mau
    return dau_mau(_events(sf_dir, ["ts", "user_id"]))


def q_user_value_deciles(sf_dir: str):
    """Lifetime-value user deciles by deterministic value thresholds
    (functions/windows.user_value_deciles)."""
    from ..functions.windows import user_value_deciles
    return user_value_deciles(_events(sf_dir, ["user_id", "value"]))



def q_langid_confusion(sf_dir: str):
    """Confusion matrix of the stopword language-ID heuristic against
    the corpus lang label — the eval every classifier-in-the-pipeline
    needs. Reuses langid_batch verbatim for the prediction; per-batch
    (lang, lang_pred) count partials combine map-side over the bounded
    (langs+1)² grid. Exact SQL mirror: "langid_confusion". Output:
    (lang, lang_pred, n)."""
    from ..functions.textstats import langid_batch
    from ..stages.agg import grouped_count

    def pre(b: pa.Table) -> pa.Table:
        pred = langid_batch(b)
        return pa.table({"lang": b["lang"],
                         "lang_pred": pred["lang_pred"]})

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "lang", "text"])
    return grouped_count(ds, ["lang", "lang_pred"], pre=pre)



def q_vocab_growth(sf_dir: str):
    """Heaps-law vocabulary growth: distinct-word count after each
    doc_id decile checkpoint (first-occurrence doc per word) — the
    lexical-dynamics curve a corpus grower tracks to spot saturation.
    Output: (k, doc_max, vocab) for k = 1..10, doc_max = max_doc·k/10.

    Scale: per-batch (word, min doc_id) partials combine map-side; the
    driver folds only the vocabulary (the hapax/bigram broadcast
    assumption). Checkpoints derive from max(doc_id) — no doc-scale
    histogram anywhere. Exact SQL mirror: "vocab_growth"."""
    from ..functions.textstats import norm_words

    def firsts(b: pa.Table) -> pa.Table:
        ws, ds_ = [], []
        for d, t in zip(b["doc_id"].to_pylist(), b["text"].to_pylist()):
            for w in set(norm_words(t)):
                ws.append(w)
                ds_.append(d)
        t2 = pa.table({"wo": pa.array(ws, pa.string()),
                       "fd": pa.array(ds_, pa.int64())})
        return t2.group_by(["wo"]).aggregate([("fd", "min")])

    first: dict[str, int] = {}
    mx = 0
    for b in _docs(sf_dir).map_batches(firsts, batch_format="pyarrow")                           .iter_batches(batch_format="pyarrow"):
        for r in b.to_pylist():
            w, fd = r["wo"], r["fd_min"]
            if w not in first or fd < first[w]:
                first[w] = fd
            if fd > mx:
                mx = fd
    # mx from word firsts misses trailing wordless docs; take the true
    # max doc_id with a tiny aggregate
    import pyarrow.parquet  # noqa: F401  (cheap metadata path below)
    mx = 0
    for b in rd.read_parquet(f"{sf_dir}/documents.parquet",
                             columns=["doc_id"])                .map_batches(lambda t: pa.table({
                   "m": pa.array([int(pc.max(t["doc_id"]).as_py())],
                                 pa.int64())}),
                   batch_format="pyarrow")                .iter_batches(batch_format="pyarrow"):
        for r in b.to_pylist():
            mx = max(mx, r["m"])
    fds = np.array(sorted(first.values()), np.int64)
    ks, dms, vs = [], [], []
    for k in range(1, 11):
        dm = (mx * k) // 10
        ks.append(k)
        dms.append(dm)
        vs.append(int(np.searchsorted(fds, dm, side="right")))
    return pa.table({
        "k": pa.array(ks, pa.int64()),
        "doc_max": pa.array(dms, pa.int64()),
        "vocab": pa.array(vs, pa.int64()),
    })


def q_heavy_hitters(sf_dir: str):
    """Guaranteed heavy hitters (count > N/200) via Misra-Gries
    candidates + exact recount (functions/sketches.heavy_hitters)."""
    from ..functions.sketches import heavy_hitters
    return heavy_hitters(_docs(sf_dir))


def q_scd2_intervals(sf_dir: str):
    """SCD type-2 validity intervals per user
    (functions/windows.scd2_intervals)."""
    from ..functions.windows import scd2_intervals
    return scd2_intervals(
        _events(sf_dir, ["event_id", "ts", "user_id", "event_type"]))


def q_dup_rate_by_source(sf_dir: str):
    """Per-source exact-duplicate exposure rate
    (functions/dedup.dup_rate_by_source)."""
    from ..functions.dedup import dup_rate_by_source
    return dup_rate_by_source(
        rd.read_parquet(f"{sf_dir}/documents.parquet",
                        columns=["text", "source"]))


def q_quantile_normalize(sf_dir: str):
    """Within-source length percentile (PERCENT_RANK semantics) per doc
    (functions/curation.quantile_normalize)."""
    from ..functions.curation import quantile_normalize
    return quantile_normalize(
        rd.read_parquet(f"{sf_dir}/documents.parquet",
                        columns=["doc_id", "source", "n_chars"]))


def q_ab_test_z(sf_dir: str):
    """Two-proportion conversion z-test between even/odd user cohorts
    (functions/windows.ab_test_z)."""
    from ..functions.windows import ab_test_z
    return ab_test_z(_events(sf_dir, ["user_id", "event_type"]))


def q_churn_weekly(sf_dir: str):
    """Week-over-week user churn (functions/windows.churn_weekly)."""
    from ..functions.windows import churn_weekly
    return churn_weekly(_events(sf_dir, ["user_id", "ts"]))


def q_event_type_lift(sf_dir: str):
    """User-granular market-basket lift between event types
    (functions/windows.event_type_lift)."""
    from ..functions.windows import event_type_lift
    return event_type_lift(_events(sf_dir, ["user_id", "event_type"]))


def q_rolling_active_7d(sf_dir: str):
    """7-day rolling active users per day
    (functions/windows.rolling_active_7d)."""
    from ..functions.windows import rolling_active_7d
    return rolling_active_7d(_events(sf_dir, ["user_id", "ts"]))


def q_benford_digits(sf_dir: str):
    """First-significant-digit (Benford) screen over event values
    (functions/windows.benford_digits)."""
    from ..functions.windows import benford_digits
    return benford_digits(_events(sf_dir, ["value"]))


def q_distinct_hll(sf_dir: str):
    """HyperLogLog distinct-word estimate — 64 int registers per
    worker, associative max-merge, exact-integer estimator floats
    (functions/sketches.hll_distinct_terms)."""
    from ..functions.sketches import hll_distinct_terms
    return hll_distinct_terms(_docs(sf_dir))


def q_dedup_edit(sf_dir: str):
    """Edit-distance near-dup pairs: MinHash-band candidates verified
    by exact levenshtein over the normalized text
    (functions/dedup.edit_distance_pairs)."""
    from ..functions.dedup import edit_distance_pairs
    return edit_distance_pairs(_docs(sf_dir))


def q_dedup_prefix(sf_dir: str):
    """Exact Jaccard pairs via PPJoin-style prefix filtering — the
    sub-quadratic EXACT near-dup path (functions/dedup.
    prefix_filter_pairs); must produce the identical pair set to the
    triangle path, so it shares dedup_ngram's exact SQL oracle."""
    from ..functions.dedup import prefix_filter_pairs
    return prefix_filter_pairs(_docs(sf_dir))


def q_ann_quantized(sf_dir: str):
    """Top-k similarity over int8-quantized codes — the quantized-store
    serving path: int8×int8 dot products accumulated in int64, exact
    integer ordering end-to-end (functions/quantize.quantized_topk);
    the oracle rebuilds codes AND scores from the same floor-quantizer
    in SQL."""
    from ..functions.quantize import quantized_topk
    return quantized_topk(_emb(sf_dir), ANN_QUERY_IDS, k=ANN_K)


# snapshot_diff's version-B derivation rule — applied identically by the
# engine map and the SQL oracle so the diff target is deterministic:
# %13 → removed, else %7 → text + ' [rev2]', and every %11 doc also
# spawns a brand-new key at doc_id + DIFF_NEW_OFFSET.
DIFF_NEW_OFFSET = 10_000_000


def q_snapshot_diff(sf_dir: str):
    """Table-version reconciliation (incremental-sync primitive):
    classify every key as added / removed / changed / unchanged between
    version A (documents) and a deterministically-derived version B —
    payload-hash rows only cross ONE key-bucket exchange
    (functions/diff.snapshot_diff)."""
    from ..functions.diff import snapshot_diff

    def derive_b(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        texts = b["text"].to_pylist()
        keep = ids % 13 != 0
        out_ids = list(ids[keep])
        out_txt = [t + " [rev2]" if i % 7 == 0 else t
                   for i, t in zip(ids[keep], np.asarray(texts,
                                                         dtype=object)[keep])]
        new = ids % 11 == 0
        out_ids += list(ids[new] + DIFF_NEW_OFFSET)
        out_txt += list(np.asarray(texts, dtype=object)[new])
        return pa.table({"doc_id": pa.array(out_ids, pa.int64()),
                         "text": pa.array(out_txt, pa.string())})

    a = _docs(sf_dir)
    b = _docs(sf_dir).map_batches(derive_b, batch_format="pyarrow")
    return snapshot_diff(a, b, key="doc_id", payload="text")


def q_curated_docs(sf_dir: str):
    """End-to-end corpus-curation flagship: global-quantile quality
    gate → exact dedup among survivors → exact-rational mix rebalance,
    composed as ONE streaming job with a single text scan
    (functions/curation.curate_docs); the oracle chains the same three
    per-stage SQL rules."""
    from ..functions.curation import curate_docs
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text", "lang"])
    return curate_docs(docs)


DAY_US = 86_400_000_000


def q_events_rollup(sf_dir: str):
    """Multi-granularity ROLLUP aggregate — (event_type, day) fine
    cells, per-type subtotals and the grand total from ONE scan: the
    coarser levels are derived from the combined fine level by exact
    integer summary-of-summary folds (no second pass over the data, no
    extra exchange; GROUP BY ROLLUP in the oracle). Sentinels 'ALL'/-1
    mark rolled-up dimensions so no nullable column crosses the
    engine/SQL compare."""
    from ..stages.agg import grouped_stats

    def pre(b: pa.Table) -> pa.Table:
        ts = pc.cast(b["ts"], pa.int64())
        return pa.table({
            "event_type": b["event_type"],
            "day": pc.divide(ts, DAY_US),
            "cents": pc.cast(pc.round(pc.multiply(b["value"], 100)),
                             pa.int64()),
        })

    fine = grouped_stats(
        rd.read_parquet(f"{sf_dir}/events.parquet",
                        columns=["event_type", "ts", "value"]),
        ["event_type", "day"], [("cents", "count"), ("cents", "sum")],
        pre=pre, combine="driver")
    if fine.num_rows == 0 or "event_type" not in fine.column_names:
        # empty corpus: zero rows on BOTH engines (the oracle's HAVING
        # count(*) > 0 drops DuckDB's NULL-sum grand-total row)
        return pa.table({"event_type": pa.array([], pa.string()),
                         "day": pa.array([], pa.int64()),
                         "n": pa.array([], pa.int64()),
                         "sum_cents": pa.array([], pa.int64())})
    import pandas as pd
    f = pd.DataFrame({"event_type": fine["event_type"].to_pylist(),
                      "day": fine["day"].to_pylist(),
                      "n": fine["n"].to_pylist(),
                      "sum_cents": fine["sum_cents"].to_pylist()})
    by_type = (f.groupby("event_type", as_index=False)[["n", "sum_cents"]]
               .sum())
    by_type["day"] = -1
    grand = pd.DataFrame({"event_type": ["ALL"], "day": [-1],
                          "n": [f["n"].sum()],
                          "sum_cents": [f["sum_cents"].sum()]})
    out = pd.concat([f, by_type, grand], ignore_index=True)
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "day": pa.array(out["day"].astype("int64"), pa.int64()),
        "n": pa.array(out["n"].astype("int64"), pa.int64()),
        "sum_cents": pa.array(out["sum_cents"].astype("int64"), pa.int64()),
    })


def q_events_cube(sf_dir: str):
    """GROUP BY CUBE(event_type, day) from ONE scan: the fine level is
    the same grouped_stats combine as events_rollup; BOTH one-dim
    subtotals AND the grand total are exact integer summary-of-summary
    folds of the fine cells (no extra exchange). Sentinels 'ALL'/-1
    replace NULL grouping markers. Exact SQL mirror "events_cube"."""
    from ..stages.agg import grouped_stats

    def pre(b: pa.Table) -> pa.Table:
        ts = pc.cast(b["ts"], pa.int64())
        return pa.table({
            "event_type": b["event_type"],
            "day": pc.divide(ts, DAY_US),
            "cents": pc.cast(pc.round(pc.multiply(b["value"], 100)),
                             pa.int64()),
        })

    fine = grouped_stats(
        rd.read_parquet(f"{sf_dir}/events.parquet",
                        columns=["event_type", "ts", "value"]),
        ["event_type", "day"], [("cents", "count"), ("cents", "sum")],
        pre=pre, combine="driver")
    empty = pa.table({"event_type": pa.array([], pa.string()),
                      "day": pa.array([], pa.int64()),
                      "n": pa.array([], pa.int64()),
                      "sum_cents": pa.array([], pa.int64())})
    if fine.num_rows == 0 or "event_type" not in fine.column_names:
        return empty
    import pandas as pd
    f = pd.DataFrame({"event_type": fine["event_type"].to_pylist(),
                      "day": fine["day"].to_pylist(),
                      "n": fine["n"].to_pylist(),
                      "sum_cents": fine["sum_cents"].to_pylist()})
    by_type = (f.groupby("event_type", as_index=False)[["n", "sum_cents"]]
               .sum())
    by_type["day"] = -1
    by_day = (f.groupby("day", as_index=False)[["n", "sum_cents"]]
              .sum())
    by_day["event_type"] = "ALL"
    grand = pd.DataFrame({"event_type": ["ALL"], "day": [-1],
                          "n": [f["n"].sum()],
                          "sum_cents": [f["sum_cents"].sum()]})
    out = pd.concat([f, by_type, by_day, grand], ignore_index=True)
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "day": pa.array(out["day"].astype("int64"), pa.int64()),
        "n": pa.array(out["n"].astype("int64"), pa.int64()),
        "sum_cents": pa.array(out["sum_cents"].astype("int64"),
                              pa.int64()),
    })


def q_late_events(sf_dir: str):
    """Watermark-style late-data detection over the event stream —
    running-max event time by arrival order via a distributed segmented
    prefix scan (functions/windows.late_event_counts); max event_id
    comes from parquet footer statistics, no extra scan."""
    import pyarrow.parquet as pq

    from ..functions.windows import late_event_counts
    md = pq.ParquetFile(f"{sf_dir}/events.parquet").metadata
    col = next(j for j in range(md.num_columns)
               if md.row_group(0).column(j).path_in_schema == "event_id")
    max_id = max(md.row_group(i).column(col).statistics.max
                 for i in range(md.num_row_groups))
    return late_event_counts(
        _events(sf_dir, ["event_id", "event_type", "ts"]), max_id)


SAMPLE_Q_PREFIX = 0x20  # keep-rate 32/256 = 1/8 of event_ids


def q_sampled_quantiles(sf_dir: str):
    """Quantiles over a DETERMINISTIC hash sample — the scale path for
    percentile estimation when the value domain is unbounded (the exact
    counting-sort of events_quantiles needs a bounded cell domain).
    Membership is a pure md5 function of event_id (first byte < 0x20 →
    1/8 rate), so the sample — and therefore the estimate — is
    bit-reproducible across engines, partitionings and cluster sizes;
    the quantile over the sample reuses the exact ceil(p·n)-1 selection
    on 2-dp cents. Exchange: per-batch (type, cents) partial counts of
    SAMPLED rows only."""
    import hashlib
    import math
    quantiles = (0.50, 0.90, 0.99)
    ds = _events(sf_dir, ["event_id", "event_type", "value"])

    def partial(b: pa.Table) -> pa.Table:
        ids = b["event_id"].to_pylist()
        keep = np.array([hashlib.md5(str(i).encode()).digest()[0]
                         < SAMPLE_Q_PREFIX for i in ids], bool)
        t = b.filter(pa.array(keep))
        cents = pc.cast(pc.round(pc.multiply(t["value"], 100)), pa.int64())
        g = pa.table({"event_type": t["event_type"], "cents": cents,
                      "n": pa.array(np.ones(t.num_rows, np.int64))})
        return g.group_by(["event_type", "cents"]).aggregate([("n", "sum")])

    acc: dict[str, dict[int, int]] = {}
    for b in ds.map_batches(partial, batch_format="pyarrow") \
               .iter_batches(batch_format="pyarrow"):
        for r in b.to_pylist():
            d = acc.setdefault(r["event_type"], {})
            d[r["cents"]] = d.get(r["cents"], 0) + r["n_sum"]
    rows = []
    for et in sorted(acc):
        counts = acc[et]
        n = sum(counts.values())
        targets = {p: max(0, math.ceil(p * n) - 1) for p in quantiles}
        got: dict[float, int] = {}
        seen = 0
        for cents in sorted(counts):
            lo, seen = seen, seen + counts[cents]
            for p, idx in targets.items():
                if lo <= idx < seen:
                    got[p] = cents
        rows.append((et, n) + tuple(round(got[p] / 100.0, 6)
                                    for p in quantiles))
    return pa.table({
        "event_type": pa.array([r[0] for r in rows], pa.string()),
        "n_sampled": pa.array([r[1] for r in rows], pa.int64()),
        "p50": pa.array([r[2] for r in rows], pa.float64()),
        "p90": pa.array([r[3] for r in rows], pa.float64()),
        "p99": pa.array([r[4] for r in rows], pa.float64()),
    })


def q_pagerank_tools(sf_dir: str):
    """One exact-integer PageRank power-iteration step over the
    conversation→tool invocation graph — in-mass per tool in units of
    1/(360360·N) with lcm-based 1/outdeg shares, ONE conv-keyed bucket
    exchange (functions/graph.pagerank_tool_mass)."""
    from ..functions.graph import pagerank_tool_mass
    from ..gen import ensure_transcripts
    path = ensure_transcripts(sf_dir)
    ds = rd.read_parquet(path, columns=["conv_id", "tool"])
    return pagerank_tool_mass(ds)


def q_gopher_rules(sf_dir: str):
    """Gopher document-quality rules (Rae et al. 2021 §A1.1) — per-doc
    exact-integer pass/fail flags for word count, mean word length,
    symbol ratio, alpha-word share and stopword presence plus the
    conjunction (functions/textstats.gopher_rules_batch). Map-only.
    Exact SQL mirror in corpus_oracles.py "gopher_rules"."""
    from ..functions.textstats import gopher_rules_batch
    return _docs(sf_dir).map_batches(gopher_rules_batch,
                                     batch_format="pyarrow")


def q_mixture_sample(sf_dir: str):
    """α=1/2 temperature mixture sampling over the language strata
    (XLM/mT5 rebalancing rule) — keep prob sqrt(n_min/n_s), decided by
    the square-root-free exact integer coin u²·n_s < n_min·2⁶⁴
    (functions/curation.mixture_sample). One tiny count exchange +
    map-only filter. Exact SQL mirror "mixture_sample"."""
    from ..functions.curation import mixture_sample
    return mixture_sample(_docs_full(sf_dir))


def q_token_budget_select(sf_dir: str):
    """Quality-ranked token-budget selection: best docs by (quality
    DESC, doc_id) until 1/4 of corpus tokens — the top-B-tokens
    curation step, computed WITHOUT a global sort (bounded score-cell
    histogram + boundary-cell segmented prefix scan;
    functions/curation.token_budget_select). Exact SQL mirror
    "token_budget_select" (window cumsum)."""
    from ..functions.curation import token_budget_select
    return token_budget_select(_docs(sf_dir))


def q_jl_project(sf_dir: str):
    """Johnson-Lindenstrauss signed projection to 8 components over
    integer-quantized embeddings (functions/quantize.jl_project) —
    exact integer arithmetic end-to-end, map-only, sign matrix
    rebuilt per worker from its md5 seed. Exact SQL mirror
    "jl_project"."""
    from ..functions.quantize import jl_project
    return jl_project(_emb(sf_dir))


def q_upsert_latest(sf_dir: str):
    """CDC latest-wins compaction: one row per (user_id, event_type),
    winner = max event_id (functions/windows.upsert_latest) — map-side
    key combiner + ONE user-keyed bucket exchange, whale-safe. Exact
    SQL mirror "upsert_latest"."""
    from ..functions.windows import upsert_latest
    return upsert_latest(_events(sf_dir, ["user_id", "event_type",
                                          "event_id", "value"]))


def q_epoch_shuffle(sf_dir: str):
    """Deterministic per-epoch training shuffle without a global sort
    (functions/curation.epoch_shuffle): md5 order keys, 256-cell
    histogram offsets broadcast once, (epoch, cell)-keyed bucket
    exchange, in-cell numbering. Exact SQL mirror "epoch_shuffle"."""
    from ..functions.curation import epoch_shuffle
    return epoch_shuffle(_docs_ids(sf_dir))


def _docs_ids(sf_dir: str):
    return rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id"])


def q_bpe_encode(sf_dir: str):
    """Tokenizer train+apply: round-0 top-20 BPE merges (bounded
    pair-count exchange) applied in rank order to every word via the
    shared single-pass replace contract (functions/bpe.bpe_encode).
    Map-only apply with the merge list broadcast once. Exact SQL
    mirror "bpe_encode" (20 generated replace steps)."""
    from ..functions.bpe import bpe_encode
    return bpe_encode(_docs(sf_dir))


def q_unigram_entropy(sf_dir: str):
    """Per-doc unigram Shannon entropy with the order-independent
    integer-micro inner sum (functions/textstats.unigram_entropy).
    Map-only. Exact SQL mirror "unigram_entropy"."""
    from ..functions.textstats import unigram_entropy
    return unigram_entropy(_docs(sf_dir))


def q_source_overlap(sf_dir: str):
    """Pairwise cross-source shingle-Jaccard contamination matrix
    (functions/overlap.source_overlap): int64 shingle hashes, ONE
    bucket-keyed exchange, |S|²-bounded partials. Exact SQL mirror
    "source_overlap"."""
    from ..functions.overlap import source_overlap
    return source_overlap(
        rd.read_parquet(f"{sf_dir}/documents.parquet",
                        columns=["text", "source"]))


def q_ngram_diversity(sf_dir: str):
    """Per-source shingle type-token ratio
    (functions/overlap.ngram_diversity): map-side postings sums, one
    hash-keyed bucket exchange for global types, |S|-bounded partials.
    Exact SQL mirror "ngram_diversity"."""
    from ..functions.overlap import ngram_diversity
    return ngram_diversity(
        rd.read_parquet(f"{sf_dir}/documents.parquet",
                        columns=["text", "source"]))


def q_shingle_novelty(sf_dir: str):
    """Vocabulary-growth curve: per-doc count of shingles unseen in
    any lower-doc_id doc (functions/overlap.shingle_novelty) — ONE
    hash-keyed exchange finds min-owner per shingle, bounded per-doc
    partials co-group with size rows under a doc-keyed exchange; no
    O(docs) driver state. Exact SQL mirror "shingle_novelty"."""
    from ..functions.overlap import shingle_novelty
    return shingle_novelty(_docs(sf_dir))


def q_kmeans_assign(sf_dir: str):
    """Two-iteration exact-integer Lloyd k-means over the embedding
    table (functions/kmeans.kmeans_assign): micro-unit quantized
    vectors, k=8 lowest-vec_id seeds, int64 distances, floor-division
    centroid update — broadcast centroids, bounded k·dim partial-sum
    exchange, map-only passes. Exact SQL mirror "kmeans_assign"."""
    from ..functions.kmeans import kmeans_assign
    return kmeans_assign(_emb(sf_dir))


def q_bm25_scores(sf_dir: str):
    """Per-(doc, term) BM25 relevance scores for a fixed query-term
    set (functions/textstats.bm25_scores): bounded stats exchange,
    map-only scoring, identical IEEE expression tree on both engines
    rounded to 6 dp. Exact SQL mirror "bm25_scores"."""
    from ..functions.textstats import bm25_scores
    return bm25_scores(_docs(sf_dir))



MW_LANG_A, MW_LANG_B = "en", "zh"


def mann_whitney_u(na_v, nb_v) -> tuple[int, int, int, float]:
    """Exact Mann-Whitney U from per-value group counts, where na_v/nb_v
    are aligned count arrays in ASCENDING-value order (the values
    themselves never enter the math — only their order defines ranks):
    returns (n_a, n_b, u2_a = 2·U_A exact int, z) with midrank ties and
    the tie-corrected normal approximation. 2× scaling keeps every rank
    quantity integer; only the final z is IEEE (one shared expression
    with the SQL mirror). Pure driver math over the bounded value grid."""
    na_v = np.asarray(na_v, dtype=np.int64)
    nb_v = np.asarray(nb_v, dtype=np.int64)
    nv = na_v + nb_v
    cum = np.concatenate(([0], np.cumsum(nv)[:-1]))
    r2a = int((na_v * (2 * cum + nv + 1)).sum())
    na, nb = int(na_v.sum()), int(nb_v.sum())
    u2a = r2a - na * (na + 1)
    ties = int((nv ** 3 - nv).sum())
    n = na + nb
    var = na * nb / 12.0 * ((n + 1) - ties / (n * (n - 1.0)))
    z = (u2a / 2.0 - na * nb / 2.0) / np.sqrt(var)
    return na, nb, u2a, float(z)


def q_mann_whitney(sf_dir: str):
    """Nonparametric length-drift test: Mann-Whitney U (rank-sum with
    midrank ties) comparing document char lengths between the two
    largest languages — the distribution-free alternative to ks_lengths
    a data-quality monitor runs when lengths are heavy-tailed. ONE
    map-side-combined (lang, n_chars) grid (bounded by the length
    domain, never doc count) feeds exact integer rank sums; the z score
    is one shared IEEE expression. Exact SQL mirror "mann_whitney".
    Output: (n_a, n_b, u2_a, z6)."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["lang", "n_chars"])

    def keep_pair(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_in(
            batch["lang"], value_set=pa.array([MW_LANG_A, MW_LANG_B])))

    from ..stages.agg import grouped_count
    grid = grouped_count(ds, ["lang", "n_chars"], pre=keep_pair).to_pylist()
    vals = sorted({r["n_chars"] for r in grid})
    byv = {(r["lang"], r["n_chars"]): r["n"] for r in grid}
    na_v = [byv.get((MW_LANG_A, v), 0) for v in vals]
    nb_v = [byv.get((MW_LANG_B, v), 0) for v in vals]
    na, nb, u2a, z = mann_whitney_u(na_v, nb_v)
    return pa.table({
        "n_a": pa.array([na], pa.int64()),
        "n_b": pa.array([nb], pa.int64()),
        "u2_a": pa.array([u2a], pa.int64()),
        "z6": pa.array([float(np.round(z, 6))], pa.float64()),
    })


def q_js_divergence(sf_dir: str):
    """Per-source language-mix JS divergence vs the corpus mixture
    (functions/overlap.js_divergence)."""
    from ..functions.overlap import js_divergence
    return js_divergence(_docs_full(sf_dir))


QUERIES = {
    "gopher_rules": q_gopher_rules,
    "mixture_sample": q_mixture_sample,
    "token_budget_select": q_token_budget_select,
    "bm25_scores": q_bm25_scores,
    "kmeans_assign": q_kmeans_assign,
    "unigram_entropy": q_unigram_entropy,
    "bpe_encode": q_bpe_encode,
    "upsert_latest": q_upsert_latest,
    "ngram_diversity": q_ngram_diversity,
    "shingle_novelty": q_shingle_novelty,
    "epoch_shuffle": q_epoch_shuffle,
    "source_overlap": q_source_overlap,
    "jl_project": q_jl_project,
    "parse_collectd": q_parse_collectd,
    "parse_macos": q_parse_macos,
    "parse_edge_syslog": q_parse_edge_syslog,
    "topk_terms": q_topk_terms,
    "events_hopping": q_events_hopping,
    "text_quality": q_text_quality,
    "melt_stats": q_melt_stats,
    "text_langid": q_text_langid,
    "doc_fingerprints": q_doc_fingerprints,
    "dedup_exact": q_dedup_exact,
    "dedup_minhash": q_dedup_minhash,
    "dedup_ngram": q_dedup_ngram,
    "dedup_simhash": q_dedup_simhash,
    "dedup_simhash_pairs": q_dedup_simhash_pairs,
    "dedup_embedding": q_dedup_embedding,
    "dedup_embedding_lsh": q_dedup_embedding_lsh,
    "semdedup": q_semdedup,
    "dsir_select": q_dsir_select,
    "hard_negatives": q_hard_negatives,
    "sample_docs": q_sample_docs,
    "cap_per_source": q_cap_per_source,
    "chunk_docs": q_chunk_docs,
    "pack_sequences": q_pack_sequences,
    "quality_filter": q_quality_filter,
    "rank_docs": q_rank_docs,
    "rebalance_mix": q_rebalance_mix,
    "lang_centroid_dist": q_lang_centroid_dist,
    "inverted_index": q_inverted_index,
    "weighted_sample": q_weighted_sample,
    "bigram_lm": q_bigram_lm,
    "ccnet_buckets": q_ccnet_buckets,
    "bloom_decontam": q_bloom_decontam,
    "dup_span_fraction": q_dup_span_fraction,
    "dedup_spans_removed": q_dedup_spans_removed,
    "distinct_terms_lang": q_distinct_terms_lang,
    "shard_docs": q_shard_docs,
    "ann_range": q_ann_range,
    "knn_classify": q_knn_classify,
    "retention_cohorts": q_retention_cohorts,
    "decontaminate": q_decontaminate,
    "tfidf_terms": q_tfidf_terms,
    "text_repetition": q_text_repetition,
    "distinct_kmv": q_distinct_kmv,
    "ann_topk": q_ann_topk,
    "ann_lsh": q_ann_lsh,
    "ann_ivf": q_ann_ivf,
    "media_features": q_media_features,
    "media_frames": q_media_frames,
    "dedup_filtered_docs": q_dedup_filtered_docs,
    "dedup_clusters": q_dedup_clusters,
    "events_tumbling": q_events_tumbling,
    "events_sessions": q_events_sessions,
    "events_asof": q_events_asof,
    "events_range_counts": q_events_range_counts,
    "events_running": q_events_running,
    "events_topn": q_events_topn,
    "events_pivot": q_events_pivot,
    "users_no_big_purchase": q_users_no_big_purchase,
    "events_bursts": q_events_bursts,
    "events_funnel": q_events_funnel,
    "events_interval_join": q_events_interval_join,
    "events_funnel3": q_events_funnel3,
    "events_match_pattern": q_events_match_pattern,
    "lang_embedding_stats": q_lang_embedding_stats,
    "source_accounting": q_source_accounting,
    "source_journald": q_source_journald,
    "cms_terms": q_cms_terms,
    "stratified_sample": q_stratified_sample,
    "bpe_merges": q_bpe_merges,
    "embedding_quantize": q_embedding_quantize,
    "snapshot_diff": q_snapshot_diff,
    "pagerank_tools": q_pagerank_tools,
    "sampled_quantiles": q_sampled_quantiles,
    "events_rollup": q_events_rollup,
    "events_cube": q_events_cube,
    "rrf_fusion": q_rrf_fusion,
    "curated_docs": q_curated_docs,
    "late_events": q_late_events,
    "ann_quantized": q_ann_quantized,
    "dedup_prefix": q_dedup_prefix,
    "profile_docs": q_profile_docs,
    "matryoshka_rerank": q_matryoshka_rerank,
    "mmr_diversify": q_mmr_diversify,
    "feature_hashing": q_feature_hashing,
    "alert_windows": q_alert_windows,
    "rate_limit": q_rate_limit,
    "zscore_lengths": q_zscore_lengths,
    "redact_terms": q_redact_terms,
    "cusum_changepoints": q_cusum_changepoints,
    "winsorize_lengths": q_winsorize_lengths,
    "dedup_edit": q_dedup_edit,
    "distinct_hll": q_distinct_hll,
    "attribution_linear": q_attribution_linear,
    "psi_drift": q_psi_drift,
    "mad_outliers": q_mad_outliers,
    "chi2_lang_source": q_chi2_lang_source,
    "wilson_ctr": q_wilson_ctr,
    "autocorr_daily": q_autocorr_daily,
    "seasonal_error": q_seasonal_error,
    "bigram_pmi": q_bigram_pmi,
    "hapax_share": q_hapax_share,
    "fano_factor": q_fano_factor,
    "benford_digits": q_benford_digits,
    "heavy_hitters": q_heavy_hitters,
    "scd2_intervals": q_scd2_intervals,
    "js_divergence": q_js_divergence,
    "mann_whitney": q_mann_whitney,
    "dup_rate_by_source": q_dup_rate_by_source,
    "quantile_normalize": q_quantile_normalize,
    "ab_test_z": q_ab_test_z,
    "churn_weekly": q_churn_weekly,
    "event_type_lift": q_event_type_lift,
    "rolling_active_7d": q_rolling_active_7d,
    "zipf_slope": q_zipf_slope,
    "first_event_counts": q_first_event_counts,
    "dod_change": q_dod_change,
    "corr_words_chars": q_corr_words_chars,
    "hourly_profile": q_hourly_profile,
    "dau_mau": q_dau_mau,
    "user_value_deciles": q_user_value_deciles,
    "langid_confusion": q_langid_confusion,
    "vocab_growth": q_vocab_growth,
}


def bench_subset():
    """Representative corpus ops for bench.py."""
    return [
        ("text_quality", q_text_quality),
        ("dedup_minhash", q_dedup_minhash),
        ("ann_topk", q_ann_topk),
        ("dedup_clusters", q_dedup_clusters),
        ("rank_docs", q_rank_docs),
        ("dedup_spans_removed", q_dedup_spans_removed),
        ("semdedup", q_semdedup),
        ("inverted_index", q_inverted_index),
        ("curated_docs", q_curated_docs),
        ("pagerank_tools", q_pagerank_tools),
        ("bigram_pmi", q_bigram_pmi),
        # the five r05-bucketed event ops (VERDICT r04 #1: track their
        # cost in the bench suite now that they're segmented kernels)
        ("events_asof", q_events_asof),
        ("events_range_counts", q_events_range_counts),
        ("events_funnel", q_events_funnel),
        ("events_running", q_events_running),
        ("retention_cohorts", q_retention_cohorts),
    ]

