"""Pairwise cross-source shingle overlap (corpus contamination matrix).

For every pair of `source` values, the Jaccard similarity of their
distinct 3-word-shingle sets — the corpus-level diagnostic behind
"is subcorpus A contaminated with subcorpus B" checks (the
source-granular cousin of per-doc decontamination in
functions/decontam.py).

Distributed shape (100-TB-safe, bounded by |sources|² not |docs|²):
  1. map pass: per-batch distinct (shingle_hash64, source) rows — the
     compact int64 identity hash from functions/dedup._shingle_hash64,
     so the exchange ships 8-byte keys, never shingle strings (the r03
     MinHash lesson);
  2. ONE bucket-keyed exchange on the shingle hash
     (stages/buckets.grouped_by_bucket) co-locates every copy of a
     shingle; within a bucket a sorted segmented sweep dedupes
     (hash, source) and accumulates a |S|×|S| pair-count matrix plus
     per-source distinct counts — per-bucket OUTPUT is O(|S|²) rows,
     independent of bucket size;
  3. driver merge of the bounded partials (n_buckets · |S|² ints) and
     one exact division per emitted pair.

Work inside a bucket is linear in the bucket's rows; the per-shingle
inner loop is bounded by the source cardinality |S| (20 in the test
tables; config-scale, not data-scale, in any real corpus).

Only pairs with n_common > 0 are emitted (absent pairs carry no
information and would make the output |S|² regardless of overlap).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .dedup import _shingle_hash64, shingles_of

OVERLAP_BUCKETS = 64


def source_overlap(docs_ds):
    """Dataset of (source_a, source_b, n_a, n_b, n_common, jaccard)
    rows, source_a < source_b lexicographically, jaccard rounded to
    6 dp with the identical expression tree as the SQL mirror."""
    from ..stages.buckets import grouped_by_bucket, run_starts

    def explode(b: pa.Table) -> pa.Table:
        hs: list[int] = []
        srcs: list[str] = []
        seen: set[tuple[int, str]] = set()
        for t, src in zip(b["text"].to_pylist(),
                          b["source"].to_pylist()):
            for s in shingles_of(t):
                key = (_shingle_hash64(s), src)
                if key not in seen:
                    seen.add(key)
                    hs.append(key[0])
                    srcs.append(src)
        return pa.table({"h": pa.array(hs, pa.int64()),
                         "source": pa.array(srcs, pa.string())})

    def bucket_partials(b: pa.Table) -> pa.Table:
        h = b["h"].combine_chunks().to_numpy(zero_copy_only=False)
        src = b["source"].combine_chunks()
        codes = src.dictionary_encode()
        names = codes.dictionary.to_pylist()
        idx = codes.indices.to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        # global dedupe of (h, source) then segment by shingle hash
        order = np.lexsort((idx, h))
        h, idx = h[order], idx[order]
        keep = np.ones(len(h), dtype=bool)
        keep[1:] = (h[1:] != h[:-1]) | (idx[1:] != idx[:-1])
        h, idx = h[keep], idx[keep]
        ns = len(names)
        per_source = np.bincount(idx, minlength=ns).astype(np.int64)
        pair = np.zeros((ns, ns), dtype=np.int64)
        starts = np.flatnonzero(run_starts(h))
        ends = np.append(starts[1:], len(h))
        for s, e in zip(starts, ends):
            if e - s > 1:
                members = idx[s:e]          # distinct by construction
                pair[np.ix_(members, members)] += 1
        ii, jj = np.nonzero(np.triu(pair, k=1))
        a = [names[i] for i in ii]
        bcol = [names[j] for j in jj]
        # per-source sizes ride along as (source, source, n) diagonal
        # rows so everything is one bounded table
        return pa.table({
            "source_a": pa.array(a + names, pa.string()),
            "source_b": pa.array(bcol + names, pa.string()),
            "n": pa.array(np.concatenate(
                [pair[ii, jj], per_source]), pa.int64())})

    parts = grouped_by_bucket(docs_ds.map_batches(
        explode, batch_format="pyarrow"), bucket_partials,
        key="h", n_buckets=OVERLAP_BUCKETS)

    pairs: dict[tuple[str, str], int] = {}
    sizes: dict[str, int] = {}
    for blk in parts.iter_batches(batch_format="pyarrow"):
        for sa, sb, n in zip(blk["source_a"].to_pylist(),
                             blk["source_b"].to_pylist(),
                             blk["n"].to_pylist()):
            if sa == sb:
                sizes[sa] = sizes.get(sa, 0) + n
            else:
                k = (sa, sb) if sa < sb else (sb, sa)
                pairs[k] = pairs.get(k, 0) + n

    rows = sorted(pairs.items())
    out = pa.table({
        "source_a": pa.array([k[0] for k, _ in rows], pa.string()),
        "source_b": pa.array([k[1] for k, _ in rows], pa.string()),
        "n_a": pa.array([sizes[k[0]] for k, _ in rows], pa.int64()),
        "n_b": pa.array([sizes[k[1]] for k, _ in rows], pa.int64()),
        "n_common": pa.array([v for _, v in rows], pa.int64()),
        "jaccard": pa.array(
            [round(float(v) / float(sizes[k[0]] + sizes[k[1]] - v), 6)
             for k, v in rows], pa.float64())})
    import ray.data as rd
    return rd.from_arrow(out)


def ngram_diversity(docs_ds):
    """Per-source shingle type-token ratio — the lexical-diversity /
    template-detection diagnostic (a low ratio means the source keeps
    re-emitting the same n-grams).

    postings = Σ over docs of |distinct shingles(doc)| (map-side sums,
    |S|-bounded partials); types = globally distinct (shingle, source)
    pairs, counted after the same hash-keyed bucket exchange
    source_overlap uses (int64 hashes, per-bucket dedupe, |S|-bounded
    count partials). ttr = types/postings rounded 6 dp with the shared
    expression tree.

    Output: (source, n_postings, n_types, ttr)."""
    from ..stages.buckets import grouped_by_bucket, run_starts

    def explode(b: pa.Table) -> pa.Table:
        hs: list[int] = []
        srcs: list[str] = []
        post: dict[str, int] = {}
        seen: set[tuple[int, str]] = set()
        for t, src in zip(b["text"].to_pylist(),
                          b["source"].to_pylist()):
            sh = shingles_of(t)
            post[src] = post.get(src, 0) + len(sh)
            for s in sh:
                key = (_shingle_hash64(s), src)
                if key not in seen:
                    seen.add(key)
                    hs.append(key[0])
                    srcs.append(src)
        # postings partials ride along as h = NULL-standin rows
        # (h = i64 min sentinel can collide with nothing: real hashes
        # are md5-derived and the sentinel row count is |S| per batch)
        return pa.table({
            "h": pa.array(hs + [-(1 << 63)] * len(post), pa.int64()),
            "source": pa.array(srcs + list(post), pa.string()),
            "n": pa.array([0] * len(hs) + list(post.values()),
                          pa.int64())})

    def bucket_counts(b: pa.Table) -> pa.Table:
        h = b["h"].combine_chunks().to_numpy(zero_copy_only=False)
        src = b["source"].combine_chunks()
        nn = b["n"].combine_chunks().to_numpy(zero_copy_only=False)
        codes = src.dictionary_encode()
        names = codes.dictionary.to_pylist()
        idx = codes.indices.to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        post_mask = h == -(1 << 63)
        ns = len(names)
        postings = np.zeros(ns, dtype=np.int64)
        np.add.at(postings, idx[post_mask], nn[post_mask])
        h, idx = h[~post_mask], idx[~post_mask]
        order = np.lexsort((idx, h))
        h, idx = h[order], idx[order]
        keep = np.ones(len(h), dtype=bool)
        keep[1:] = (h[1:] != h[:-1]) | (idx[1:] != idx[:-1])
        types = np.bincount(idx[keep], minlength=ns).astype(np.int64)
        return pa.table({
            "source": pa.array(names * 2, pa.string()),
            "kind": pa.array(["types"] * ns + ["postings"] * ns,
                             pa.string()),
            "n": pa.array(np.concatenate([types, postings]),
                          pa.int64())})

    parts = grouped_by_bucket(
        docs_ds.map_batches(explode, batch_format="pyarrow"),
        bucket_counts, key="h", n_buckets=OVERLAP_BUCKETS)

    types: dict[str, int] = {}
    posts: dict[str, int] = {}
    for blk in parts.iter_batches(batch_format="pyarrow"):
        for s, k, n in zip(blk["source"].to_pylist(),
                           blk["kind"].to_pylist(),
                           blk["n"].to_pylist()):
            d = types if k == "types" else posts
            d[s] = d.get(s, 0) + n
    names = sorted(set(types) | set(posts))
    out = pa.table({
        "source": pa.array(names, pa.string()),
        "n_postings": pa.array([posts.get(s, 0) for s in names],
                               pa.int64()),
        "n_types": pa.array([types.get(s, 0) for s in names],
                            pa.int64()),
        "ttr": pa.array(
            [round(float(types.get(s, 0)) / float(posts[s]), 6)
             if posts.get(s, 0) else 0.0 for s in names],
            pa.float64())})
    import ray.data as rd
    return rd.from_arrow(out)


def shingle_novelty(docs_ds):
    """Vocabulary-growth curve (Heaps-law diagnostic): for every doc,
    how many of its distinct shingles appear in NO earlier doc
    (earlier = lower doc_id) — the marginal-novelty signal behind
    "is more data still adding new content".

    Shape: per-doc distinct (shingle_hash, doc_id) rows; ONE
    hash-keyed bucket exchange; within a bucket the FIRST owner of
    each shingle (min doc_id) is found by a sorted segmented sweep and
    per-doc novelty counts are emitted as bounded partials (≤ docs per
    bucket). The partials then co-group with the per-doc size rows
    under a doc_id-keyed bucket exchange — NO O(docs) driver state
    anywhere (the result stays a distributed Dataset).

    Output: (doc_id, n_shingles, n_new) — n_new sums to the global
    distinct-shingle count by construction."""
    from ..stages.buckets import grouped_by_bucket

    def explode(b: pa.Table) -> pa.Table:
        hs: list[int] = []
        ds: list[int] = []
        for did, t in zip(b["doc_id"].to_pylist(),
                          b["text"].to_pylist()):
            for s in shingles_of(t):
                hs.append(_shingle_hash64(s))
                ds.append(did)
        return pa.table({"h": pa.array(hs, pa.int64()),
                         "doc_id": pa.array(ds, pa.int64())})

    rows = docs_ds.map_batches(explode, batch_format="pyarrow")

    def bucket_firsts(b: pa.Table) -> pa.Table:
        h = b["h"].combine_chunks().to_numpy(zero_copy_only=False)
        did = b["doc_id"].combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((did, h))
        h, did = h[order], did[order]
        starts = np.ones(len(h), dtype=bool)
        starts[1:] = h[1:] != h[:-1]
        owners = did[starts]                  # min doc_id per shingle
        uniq, counts = np.unique(owners, return_counts=True)
        z = np.zeros(len(uniq), dtype=np.int64)
        return pa.table({"doc_id": pa.array(uniq, pa.int64()),
                         "n_shingles": pa.array(z, pa.int64()),
                         "n_new": pa.array(counts, pa.int64())})

    firsts = grouped_by_bucket(rows, bucket_firsts, key="h",
                               n_buckets=OVERLAP_BUCKETS)

    def sizes(b: pa.Table) -> pa.Table:
        o_d, o_n = [], []
        for did, t in zip(b["doc_id"].to_pylist(),
                          b["text"].to_pylist()):
            o_d.append(did)
            o_n.append(len(shingles_of(t)))
        z = [0] * len(o_d)
        return pa.table({"doc_id": pa.array(o_d, pa.int64()),
                         "n_shingles": pa.array(o_n, pa.int64()),
                         "n_new": pa.array(z, pa.int64())})

    both = docs_ds.map_batches(sizes, batch_format="pyarrow") \
        .union(firsts)

    def fold(b: pa.Table) -> pa.Table:
        did = b["doc_id"].combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        nsh = b["n_shingles"].combine_chunks() \
            .to_numpy(zero_copy_only=False)
        nnew = b["n_new"].combine_chunks() \
            .to_numpy(zero_copy_only=False)
        order = np.argsort(did, kind="stable")
        did = did[order]
        starts = np.ones(len(did), dtype=bool)
        starts[1:] = did[1:] != did[:-1]
        seg = np.cumsum(starts) - 1
        n = int(seg[-1]) + 1 if len(seg) else 0
        sh = np.zeros(n, dtype=np.int64)
        nw = np.zeros(n, dtype=np.int64)
        np.add.at(sh, seg, nsh[order])
        np.add.at(nw, seg, nnew[order])
        return pa.table({"doc_id": pa.array(did[starts], pa.int64()),
                         "n_shingles": pa.array(sh, pa.int64()),
                         "n_new": pa.array(nw, pa.int64())})

    return grouped_by_bucket(both, fold, key="doc_id",
                             n_buckets=OVERLAP_BUCKETS)


def js_divergence(docs_ds):
    """Per-source language-mix drift: Jensen-Shannon divergence between
    each source's language distribution and the corpus-wide one — the
    mixture monitor a crawl pipeline runs to flag a shard whose
    composition drifted from the corpus recipe. Counts are exact int64
    from ONE map-side-combined (source, lang) grid (bounded cells);
    each JS term is the same IEEE expression as the SQL mirror
    "js_divergence" (0 · ln 0 := 0 on the P side; Q > 0 always).
    Output: (source, js6)."""
    import numpy as np

    from ..stages.agg import grouped_count

    grid = grouped_count(docs_ds, ["source", "lang"])
    rows = grid.to_pylist()
    langs = sorted({r["lang"] for r in rows})
    sources = sorted({r["source"] for r in rows})
    n = {(r["source"], r["lang"]): r["n"] for r in rows}
    nl = {g: sum(n.get((s, g), 0) for s in sources) for g in langs}
    tot = sum(nl.values())
    out_s, out_js = [], []
    for s in sources:
        ns = sum(n.get((s, g), 0) for g in langs)
        js = 0.0
        for g in langs:
            p = n.get((s, g), 0) / ns
            q = nl[g] / tot
            m = (p + q) / 2
            if p > 0:
                js += 0.5 * p * np.log(p / m)
            js += 0.5 * q * np.log(q / m)
        out_s.append(s)
        out_js.append(float(np.round(js, 6)))
    return pa.table({"source": pa.array(out_s, pa.string()),
                     "js6": pa.array(out_js, pa.float64())})
