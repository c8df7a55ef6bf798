"""Similarity search over the ``embeddings`` table (list<float> column).

- brute_force_topk: exact cosine top-k — per-batch float64 matmul of
  the candidate block against a BROADCAST query matrix (ray.put once,
  ray.get per task), per-batch partial top-k, tiny final merge. The
  baseline and the oracle surface.
- lsh_topk: random-hyperplane LSH variant — candidates restricted to
  buckets within ``probe_bits`` sign flips of the query's bucket. The
  scale path (bucket shuffle instead of all-candidates matmul);
  recall vs brute force is asserted in tests.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

DEFAULT_K = 5
LSH_PLANES = 6
LSH_SEED = 42
IVF_NPROBE = 3


def _norm_rows(m: np.ndarray) -> np.ndarray:
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def _query_matrix(emb_ds, query_ids: list[int], normalize: bool = True):
    qarr = pa.array(sorted(int(q) for q in set(query_ids)), pa.int64())

    def pick(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(pc.cast(batch["vec_id"], pa.int64()), value_set=qarr)
        return batch.filter(mask)

    # project BEFORE the filter so every block (incl. empty ones) carries
    # the same 2-column schema through the pipeline
    rows = (emb_ds.select_columns(["vec_id", "embedding"])
            .map_batches(pick, batch_format="pyarrow").take_all())
    rows.sort(key=lambda r: r["vec_id"])
    ids = np.array([r["vec_id"] for r in rows], dtype=np.int64)
    if not rows:  # no query id present in the store → empty result path
        return ids, np.empty((0, 0), dtype=np.float64)
    mat = np.array([r["embedding"] for r in rows], dtype=np.float64)
    return ids, (_norm_rows(mat) if normalize else mat)


# above this many partial rows the final merge moves off the driver
# into a query_id-bucketed reduce (tree-reduce tail; VERDICT r02 #5:
# at ~10⁶ blocks × 100s of queries × k the driver pull is multi-GB)
MERGE_DRIVER_MAX_ROWS = 1 << 18


def _topk_finalize(tbl: pa.Table, k: int, score_col: str,
                   score_type: type) -> pa.Table:
    """THE shared deterministic merge rule ((score DESC, vec_id ASC),
    ranks 1..k per query), vectorized over any number of queries."""
    np_type = np.float64 if score_type is float else np.int64
    pa_type = pa.float64() if score_type is float else pa.int64()
    q = np.asarray(tbl["query_id"].to_pylist(), dtype=np.int64)
    v = np.asarray(tbl["vec_id"].to_pylist(), dtype=np.int64)
    s = np.asarray(tbl[score_col].to_pylist(), dtype=np_type)
    q_out, r_out, v_out, s_out = [], [], [], []
    for qid in np.unique(q):
        m = q == qid
        idx = np.lexsort((v[m], -s[m]))[:k]
        q_out.extend([int(qid)] * len(idx))
        r_out.extend(range(1, len(idx) + 1))
        v_out.extend(int(x) for x in v[m][idx])
        s_out.extend(score_type(x) for x in s[m][idx])
    return pa.table({
        "query_id": pa.array(q_out, pa.int64()),
        "rank": pa.array(r_out, pa.int64()),
        "vec_id": pa.array(v_out, pa.int64()),
        score_col: pa.array(s_out, pa_type),
    })


def _merge_topk(partials_ds, k: int, score_col: str = "cosine",
                score_type: type = float):
    """Final top-k merge of the per-block partial candidate rows.

    The partial set is the classic tree-reduce tail (≤ n_blocks ×
    n_queries × k rows). Small tails (≤ MERGE_DRIVER_MAX_ROWS, checked
    by bounded streaming) merge on the driver — no extra exchange, no
    empty-range-partition log noise. Bigger tails take the distributed
    path: hash-bucket by query_id (every candidate of a query lands in
    ONE bucket) and apply the identical finalize rule per bucket —
    removing the driver ceiling at any block count. Both paths share
    ``_topk_finalize``, and parity is pinned in tests/test_corpus.py.
    Returns a Dataset for a uniform query surface."""
    import ray.data as rd

    from ..pipelines.analytics import _bounded_batches
    parts = _bounded_batches(partials_ds, MERGE_DRIVER_MAX_ROWS)
    if parts is not None:
        np_type = np.float64 if score_type is float else np.int64
        if not parts:
            parts = [pa.table({
                "query_id": pa.array([], pa.int64()),
                "vec_id": pa.array([], pa.int64()),
                score_col: pa.array([], pa.from_numpy_dtype(np_type))})]
        tbl = pa.concat_tables(parts, promote_options="default")
        return rd.from_arrow(_topk_finalize(tbl, k, score_col, score_type))

    from ..stages.buckets import grouped_by_bucket

    def bucket_final(batch: pa.Table) -> pa.Table:
        return _topk_finalize(batch, k, score_col, score_type)

    return grouped_by_bucket(partials_ds, bucket_final, key="query_id",
                             coalesce=False)


def brute_force_topk(emb_ds, query_ids: list[int], k: int = DEFAULT_K):
    """(query_id, rank, vec_id, cosine): exact top-k cosine neighbors of
    each query among all non-query vectors. Ordering: (round(cos, 6)
    DESC, vec_id ASC) — deterministic under float noise."""
    import ray

    qids, qmat = _query_matrix(emb_ds, query_ids)
    broadcast = ray.put((qids, qmat))
    qid_set = set(int(q) for q in query_ids)

    def partial_topk(batch: pa.Table) -> pa.Table:
        b_qids, b_qmat = ray.get(broadcast)
        cids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
        keep = np.array([c not in qid_set for c in cids])
        if not keep.any():
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "vec_id": pa.array([], pa.int64()),
                             "cosine": pa.array([], pa.float64())})
        cids = cids[keep]
        cmat = _norm_rows(np.array(
            batch["embedding"].to_pylist(), dtype=np.float64)[keep])
        sims = np.round(b_qmat @ cmat.T, 6)  # queries × block
        q_out, v_out, s_out = [], [], []
        kk = min(k, sims.shape[1])
        for qi in range(len(b_qids)):
            # partial top-k inside the block (deterministic order)
            idx = np.lexsort((cids, -sims[qi]))[:kk]
            q_out.extend([int(b_qids[qi])] * len(idx))
            v_out.extend(int(cids[j]) for j in idx)
            s_out.extend(float(sims[qi, j]) for j in idx)
        return pa.table({"query_id": pa.array(q_out, pa.int64()),
                         "vec_id": pa.array(v_out, pa.int64()),
                         "cosine": pa.array(s_out, pa.float64())})

    partials = emb_ds.map_batches(partial_topk, batch_format="pyarrow")
    return _merge_topk(partials, k)


def hard_negatives(emb_ds, query_ids: list[int], k: int = DEFAULT_K):
    """Hard-negative mining for contrastive/retrieval training: for
    each query vector, the exact top-k most-similar vectors with a
    DIFFERENT label — the highest-cosine wrong-class candidates are
    the informative negatives. Same shape as brute_force_topk
    (broadcast queries + their labels once, per-block vectorized
    partial top-k, shared ``_merge_topk`` finalize), plus one label
    mask per query inside the block. Output schema = ann_topk's:
    (query_id, rank, vec_id, cosine)."""
    import ray

    qids, qmat = _query_matrix(emb_ds, query_ids)
    qarr = pa.array([int(q) for q in qids], pa.int64())

    def pick_labels(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(pc.cast(batch["vec_id"], pa.int64()),
                        value_set=qarr)
        return batch.select(["vec_id", "label"]).filter(mask)

    lrows = emb_ds.map_batches(pick_labels,
                               batch_format="pyarrow").take_all()
    lab_of = {r["vec_id"]: r["label"] for r in lrows}
    qlabels = np.array([lab_of[int(q)] for q in qids], np.int64)
    broadcast = ray.put((qids, qmat, qlabels))
    qid_set = set(int(q) for q in query_ids)

    empty = pa.table({"query_id": pa.array([], pa.int64()),
                      "vec_id": pa.array([], pa.int64()),
                      "cosine": pa.array([], pa.float64())})

    def partial_topk(batch: pa.Table) -> pa.Table:
        b_qids, b_qmat, b_qlab = ray.get(broadcast)
        cids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
        keep = np.array([c not in qid_set for c in cids])
        if not keep.any():
            return empty
        cids = cids[keep]
        clab = np.asarray(batch["label"].to_pylist(),
                          dtype=np.int64)[keep]
        cmat = _norm_rows(np.array(
            batch["embedding"].to_pylist(), dtype=np.float64)[keep])
        sims = np.round(b_qmat @ cmat.T, 6)
        q_out, v_out, s_out = [], [], []
        for qi in range(len(b_qids)):
            neg = clab != b_qlab[qi]
            if not neg.any():
                continue
            ids_n, sims_n = cids[neg], sims[qi][neg]
            idx = np.lexsort((ids_n, -sims_n))[:min(k, len(ids_n))]
            q_out.extend([int(b_qids[qi])] * len(idx))
            v_out.extend(int(ids_n[j]) for j in idx)
            s_out.extend(float(sims_n[j]) for j in idx)
        return pa.table({"query_id": pa.array(q_out, pa.int64()),
                         "vec_id": pa.array(v_out, pa.int64()),
                         "cosine": pa.array(s_out, pa.float64())})

    partials = emb_ds.map_batches(partial_topk, batch_format="pyarrow")
    return _merge_topk(partials, k)


def ivf_topk(emb_ds, query_ids: list[int], k: int = DEFAULT_K,
             nprobe: int = IVF_NPROBE):
    """IVF approximate top-k: the ``label`` column is the coarse
    quantizer cell (at scale: a trained k-means assignment). Cell
    centroids are computed with a map-side partial-sum combine (tiny
    shuffle), each query probes its ``nprobe`` nearest cells, and
    candidate blocks only score rows whose label is probed. Same output
    schema as brute_force_topk."""
    import ray

    # per-label centroid: per-batch partial (label, sum, count) → driver
    # combine (labels are few — this is the classic combiner shape)
    def partial_sums(batch: pa.Table):
        labels = np.asarray(batch["label"].to_pylist(), dtype=np.int64)
        mat = np.array(batch["embedding"].to_pylist(), dtype=np.float64)
        out = {}
        for lb in np.unique(labels):
            m = labels == lb
            out[int(lb)] = (mat[m].sum(axis=0), int(m.sum()))
        return pa.table({
            "label": pa.array(list(out), pa.int64()),
            "vsum": pa.array([v[0].tolist() for v in out.values()],
                             pa.large_list(pa.float64())),
            "cnt": pa.array([v[1] for v in out.values()], pa.int64())})

    parts = emb_ds.map_batches(partial_sums,
                               batch_format="pyarrow").take_all()
    sums: dict[int, list] = {}
    for r in parts:
        s = sums.setdefault(r["label"], [np.zeros(len(r["vsum"])), 0])
        s[0] += np.asarray(r["vsum"])
        s[1] += r["cnt"]
    cell_ids = sorted(sums)
    centroids = _norm_rows(np.stack([sums[c][0] / sums[c][1]
                                     for c in cell_ids]))

    qids, qmat = _query_matrix(emb_ds, query_ids)
    qsims = qmat @ centroids.T
    probed: dict[int, set] = {}
    for qi in range(len(qids)):
        top = np.argsort(-qsims[qi])[:nprobe]
        probed[int(qids[qi])] = {cell_ids[j] for j in top}
    broadcast = ray.put((qids, qmat, probed))
    qid_set = set(int(q) for q in query_ids)

    def partial_topk(batch: pa.Table) -> pa.Table:
        b_qids, b_qmat, b_probed = ray.get(broadcast)
        cids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
        labels = np.asarray(batch["label"].to_pylist(), dtype=np.int64)
        cmat = _norm_rows(np.array(batch["embedding"].to_pylist(),
                                   dtype=np.float64))
        sims = np.round(b_qmat @ cmat.T, 6)
        q_out, v_out, s_out = [], [], []
        for qi in range(len(b_qids)):
            cells = b_probed[int(b_qids[qi])]
            keep = np.array([int(l) in cells and int(c) not in qid_set
                             for l, c in zip(labels, cids)])
            if not keep.any():
                continue
            kc, ks = cids[keep], sims[qi][keep]
            idx = np.lexsort((kc, -ks))[:k]
            q_out.extend([int(b_qids[qi])] * len(idx))
            v_out.extend(int(kc[j]) for j in idx)
            s_out.extend(float(ks[j]) for j in idx)
        return pa.table({"query_id": pa.array(q_out, pa.int64()),
                         "vec_id": pa.array(v_out, pa.int64()),
                         "cosine": pa.array(s_out, pa.float64())})

    partials = emb_ds.map_batches(partial_topk, batch_format="pyarrow")
    return _merge_topk(partials, k)


def kmeans_train(emb_ds, n_cells: int = 10, iters: int = 5):
    """Spherical k-means over the embedding column — the trained coarse
    quantizer for IVF at scale (the stored ``label`` column stands in
    for it on the fixtures).

    Ray-Data-native Lloyd iterations: each pass is ONE map_batches that
    scores the block against the BROADCAST centroids (ray.put once per
    iteration) and emits per-cell partial (sum, count) rows; the k-row
    combine happens on the driver. Nothing materializes the dataset and
    the shuffle volume is k × n_blocks partial rows per iteration.

    Deterministic for a fixed input layout: init = the n_cells lowest
    vec_ids among the per-block head rows (seedless, data-derived);
    ties in assignment break toward the lower cell id. Returns the
    (n_cells, dim) L2-normalized centroid matrix."""
    import ray

    init_rows = sorted(
        ((r["vec_id"], r["embedding"]) for r in
         emb_ds.select_columns(["vec_id", "embedding"])
         .map_batches(lambda b: b.slice(0, min(b.num_rows, n_cells)),
                      batch_format="pyarrow").take_all()),
        key=lambda r: r[0])[:n_cells]
    cents = _norm_rows(np.array([e for _i, e in init_rows],
                                dtype=np.float64))

    for _ in range(iters):
        broadcast = ray.put(cents)

        def partial(batch: pa.Table) -> pa.Table:
            c = ray.get(broadcast)
            mat = _norm_rows(np.array(batch["embedding"].to_pylist(),
                                      dtype=np.float64))
            cell = np.argmax(mat @ c.T, axis=1)  # ties → lower cell id
            cells, sums, cnts = [], [], []
            for lb in np.unique(cell):
                m = cell == lb
                cells.append(int(lb))
                sums.append(mat[m].sum(axis=0).tolist())
                cnts.append(int(m.sum()))
            return pa.table({
                "cell": pa.array(cells, pa.int64()),
                "vsum": pa.array(sums, pa.large_list(pa.float64())),
                "cnt": pa.array(cnts, pa.int64())})

        acc: dict[int, list] = {}
        for r in emb_ds.select_columns(["embedding"]).map_batches(
                partial, batch_format="pyarrow").take_all():
            s = acc.setdefault(r["cell"], [np.zeros(cents.shape[1]), 0])
            s[0] += np.asarray(r["vsum"])
            s[1] += r["cnt"]
        new = cents.copy()  # empty cells keep their previous centroid
        for cell, (vsum, cnt) in acc.items():
            new[cell] = vsum / cnt
        cents = _norm_rows(new)
    return cents


def _bucket_of(mat: np.ndarray, planes: np.ndarray) -> np.ndarray:
    bits = (mat @ planes.T) > 0
    return (bits * (1 << np.arange(planes.shape[0]))).sum(axis=1)


def lsh_topk(emb_ds, query_ids: list[int], k: int = DEFAULT_K,
             n_planes: int = LSH_PLANES, probe_bits: int = 1):
    """Approximate top-k: random-hyperplane buckets; each candidate block
    keeps only vectors whose bucket is within ``probe_bits`` bit flips of
    a query bucket, then scores those exactly. Same output schema as
    brute_force_topk. At scale the bucket id becomes the shuffle/
    partition key; here the filter happens block-local, so no shuffle at
    all."""
    import ray

    rng = np.random.default_rng(LSH_SEED)
    planes = rng.standard_normal((n_planes, 64))
    qids, qmat = _query_matrix(emb_ds, query_ids)
    qbuckets = _bucket_of(qmat, planes)
    probe = set()
    for qb in qbuckets:
        probe.add(int(qb))
        if probe_bits >= 1:
            for b in range(n_planes):
                probe.add(int(qb) ^ (1 << b))
    broadcast = ray.put((qids, qmat, planes, probe))
    qid_set = set(int(q) for q in query_ids)

    def partial_topk(batch: pa.Table) -> pa.Table:
        b_qids, b_qmat, b_planes, b_probe = ray.get(broadcast)
        cids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
        cmat = np.array(batch["embedding"].to_pylist(), dtype=np.float64)
        cmat = _norm_rows(cmat)
        buckets = _bucket_of(cmat, b_planes)
        keep = np.array([int(b) in b_probe and int(c) not in qid_set
                         for b, c in zip(buckets, cids)])
        empty = pa.table({"query_id": pa.array([], pa.int64()),
                          "vec_id": pa.array([], pa.int64()),
                          "cosine": pa.array([], pa.float64())})
        if not keep.any():
            return empty
        cids = cids[keep]
        cmat = cmat[keep]
        sims = np.round(b_qmat @ cmat.T, 6)
        q_out, v_out, s_out = [], [], []
        kk = min(k, sims.shape[1])
        for qi in range(len(b_qids)):
            idx = np.lexsort((cids, -sims[qi]))[:kk]
            q_out.extend([int(b_qids[qi])] * len(idx))
            v_out.extend(int(cids[j]) for j in idx)
            s_out.extend(float(sims[qi, j]) for j in idx)
        return pa.table({"query_id": pa.array(q_out, pa.int64()),
                         "vec_id": pa.array(v_out, pa.int64()),
                         "cosine": pa.array(s_out, pa.float64())})

    partials = emb_ds.map_batches(partial_topk, batch_format="pyarrow")
    return _merge_topk(partials, k)


RANGE_TAU = 0.30


def range_search(emb_ds, query_ids: list[int], tau: float = RANGE_TAU):
    """All candidates within cosine ≥ tau of each query — the radius
    variant of the ANN surface. Unlike top-k there is NO merge step:
    membership is a pure per-row predicate against the broadcast query
    matrix, so the whole operator is one embarrassingly-parallel
    map_batches (output size is data-dependent; at scale, write it out
    rather than collecting). Scores round to 6 dp before the threshold
    so float noise cannot flip membership between engines."""
    import ray

    qids, qmat = _query_matrix(emb_ds, query_ids)
    broadcast = ray.put((qids, qmat))
    qid_set = set(int(q) for q in query_ids)

    def part(batch: pa.Table) -> pa.Table:
        b_qids, b_qmat = ray.get(broadcast)
        cids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
        keep = np.array([c not in qid_set for c in cids])
        empty = pa.table({"query_id": pa.array([], pa.int64()),
                          "vec_id": pa.array([], pa.int64()),
                          "cosine": pa.array([], pa.float64())})
        if not keep.any():
            return empty
        cids = cids[keep]
        cmat = _norm_rows(np.array(
            batch["embedding"].to_pylist(), dtype=np.float64)[keep])
        sims = np.round(b_qmat @ cmat.T, 6)
        qi, ci = np.nonzero(sims >= tau)
        if not len(qi):
            return empty
        return pa.table({
            "query_id": pa.array(b_qids[qi].astype(np.int64)),
            "vec_id": pa.array(cids[ci].astype(np.int64)),
            "cosine": pa.array(sims[qi, ci]),
        })

    return emb_ds.map_batches(part, batch_format="pyarrow")


def knn_classify(emb_ds, query_ids: list[int], k: int = DEFAULT_K):
    """k-NN majority-vote label per query: exact top-k neighbors
    (brute_force_topk's bounded partial/merge), then the neighbors'
    labels are fetched with an is_in fetch of ≤ queries×k keys (never
    the reverse) and the vote is a driver fold over that tiny set.
    Ties break toward the smaller label. Output
    (query_id, label, votes)."""
    topk = brute_force_topk(emb_ds, query_ids, k=k).take_all()
    need = sorted({r["vec_id"] for r in topk})
    nset = pa.array(need, pa.int64())

    def fetch(b: pa.Table) -> pa.Table:
        return b.filter(pc.is_in(b["vec_id"], value_set=nset)) \
                .select(["vec_id", "label"])

    labels = {r["vec_id"]: r["label"] for r in
              emb_ds.map_batches(fetch, batch_format="pyarrow")
              .take_all()}
    votes: dict[int, dict[int, int]] = {}
    for r in topk:
        d = votes.setdefault(r["query_id"], {})
        lb = int(labels[r["vec_id"]])
        d[lb] = d.get(lb, 0) + 1
    qs = sorted(votes)
    win, n_votes = [], []
    for q in qs:
        d = votes[q]
        lb = min(d, key=lambda x: (-d[x], x))
        win.append(lb)
        n_votes.append(d[lb])
    return pa.table({
        "query_id": pa.array(qs, pa.int64()),
        "label": pa.array(win, pa.int64()),
        "votes": pa.array(n_votes, pa.int64()),
    })


MATRYOSHKA_PREFIX = 16
MATRYOSHKA_M = 20


def matryoshka_rerank(emb_ds, query_ids: list[int], k: int = DEFAULT_K,
                      prefix_dims: int = MATRYOSHKA_PREFIX,
                      m: int = MATRYOSHKA_M):
    """Matryoshka two-stage retrieval (MRL, Kusupati et al. 2022,
    arXiv:2205.13147): stage 1 scans every candidate with only the
    FIRST ``prefix_dims`` dims of the embedding — the cheap coarse
    pass, and the only full scan (a 4x-narrower matmul whose bytes are
    what matters at 100 TB) — keeping the exact top-``m`` per query by
    (round(prefix_cos, 6) DESC, vec_id). Stage 2 reranks just those
    <= |Q|*m candidates with the FULL vector: a bounded is_in fetch
    (the knn_classify pattern) plus one tiny matmul, never a second
    scan. Output schema = ann_topk's (query_id, rank, vec_id, cosine
    [full-dim, round 6]). Exact SQL mirror: "matryoshka_rerank"."""
    import ray
    import ray.data as rd

    qids, qraw = _query_matrix(emb_ds, query_ids, normalize=False)
    if qraw.size == 0:
        return rd.from_arrow(pa.table({
            "query_id": pa.array([], pa.int64()),
            "rank": pa.array([], pa.int64()),
            "vec_id": pa.array([], pa.int64()),
            "cosine": pa.array([], pa.float64())}))
    qpre = _norm_rows(qraw[:, :prefix_dims])
    broadcast = ray.put((qids, qpre))
    qid_np = np.asarray(qids, dtype=np.int64)

    empty = pa.table({"query_id": pa.array([], pa.int64()),
                      "vec_id": pa.array([], pa.int64()),
                      "pcos": pa.array([], pa.float64())})

    def partial_prefix(batch: pa.Table) -> pa.Table:
        b_qids, b_qpre = ray.get(broadcast)
        cids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
        keep = ~np.isin(cids, qid_np)
        if not keep.any():
            return empty
        cids = cids[keep]
        cmat = np.array(batch["embedding"].to_pylist(),
                        dtype=np.float64)[keep]
        cpre = _norm_rows(cmat[:, :prefix_dims])
        sims = np.round(b_qpre @ cpre.T, 6)  # queries x block
        q_out, v_out, s_out = [], [], []
        kk = min(m, sims.shape[1])
        for qi in range(len(b_qids)):
            idx = np.lexsort((cids, -sims[qi]))[:kk]
            q_out.extend([int(b_qids[qi])] * len(idx))
            v_out.extend(int(cids[j]) for j in idx)
            s_out.extend(float(sims[qi, j]) for j in idx)
        return pa.table({"query_id": pa.array(q_out, pa.int64()),
                         "vec_id": pa.array(v_out, pa.int64()),
                         "pcos": pa.array(s_out, pa.float64())})

    partials = emb_ds.map_batches(partial_prefix, batch_format="pyarrow")
    cand_rows = _merge_topk(partials, m, score_col="pcos").take_all()

    cand_ids = sorted({int(r["vec_id"]) for r in cand_rows})
    cvids, craw = _query_matrix(emb_ds, cand_ids, normalize=False)
    cfull = _norm_rows(craw)
    qfull = _norm_rows(qraw)
    cpos = {int(v): i for i, v in enumerate(cvids)}
    qpos = {int(q): i for i, q in enumerate(qids)}
    q_out, v_out, s_out = [], [], []
    for r in cand_rows:
        q_out.append(int(r["query_id"]))
        v_out.append(int(r["vec_id"]))
        s_out.append(float(np.round(
            qfull[qpos[q_out[-1]]] @ cfull[cpos[v_out[-1]]], 6)))
    tbl = pa.table({"query_id": pa.array(q_out, pa.int64()),
                    "vec_id": pa.array(v_out, pa.int64()),
                    "cosine": pa.array(s_out, pa.float64())})
    return rd.from_arrow(_topk_finalize(tbl, k, "cosine", float))


MMR_POOL = 8


def mmr_diversify(emb_ds, query_ids: list[int], k: int = DEFAULT_K,
                  m: int = MMR_POOL):
    """Maximal-marginal-relevance diversified top-k (Carbonell &
    Goldstein 1998) with equal relevance/diversity weights, in exact
    integer micro-cosine units: the candidate pool is the exact
    top-``m`` full-dim cosine list per query (the distributed scan —
    the same partial-top-k map as ann_topk); selection is the classic
    greedy fold — step 1 takes the most relevant candidate, step t
    takes argmax of rel_i - max_{j in selected} sim_ij (ties toward
    the smaller vec_id). rel/sim are int64 round(cos * 1e6), so the
    fold is order-exact on both engines. The fold is bounded by
    |Q|*m rows plus one pool x pool sim matrix and runs on the driver,
    like rrf_fusion's fusion fold. Output (query_id, step, vec_id,
    mmr_score). Exact SQL mirror: "mmr_diversify"."""
    cand = brute_force_topk(emb_ds, query_ids, k=m).take_all()
    cand_ids = sorted({int(r["vec_id"]) for r in cand})
    if not cand_ids:
        return pa.table({"query_id": pa.array([], pa.int64()),
                         "step": pa.array([], pa.int64()),
                         "vec_id": pa.array([], pa.int64()),
                         "mmr_score": pa.array([], pa.int64())})
    cvids, craw = _query_matrix(emb_ds, cand_ids, normalize=False)
    cfull = _norm_rows(craw)
    sim_micro = np.rint(
        np.round(cfull @ cfull.T, 6) * 1e6).astype(np.int64)
    cpos = {int(v): i for i, v in enumerate(cvids)}
    per_q: dict[int, list[tuple[int, int]]] = {}
    for r in cand:
        per_q.setdefault(int(r["query_id"]), []).append(
            (int(r["vec_id"]), int(np.rint(r["cosine"] * 1e6))))
    q_out, st_out, v_out, s_out = [], [], [], []
    for qid in sorted(per_q):
        pool = per_q[qid]
        chosen: list[int] = []
        chosen_ids: set[int] = set()
        for step in range(1, min(k, len(pool)) + 1):
            best_vid = best_score = None
            for vid, rel in pool:
                if vid in chosen_ids:
                    continue
                score = rel if not chosen else rel - int(max(
                    sim_micro[cpos[vid], c] for c in chosen))
                if best_vid is None or score > best_score or \
                        (score == best_score and vid < best_vid):
                    best_vid, best_score = vid, score
            chosen.append(cpos[best_vid])
            chosen_ids.add(best_vid)
            q_out.append(qid)
            st_out.append(step)
            v_out.append(best_vid)
            s_out.append(best_score)
    return pa.table({"query_id": pa.array(q_out, pa.int64()),
                     "step": pa.array(st_out, pa.int64()),
                     "vec_id": pa.array(v_out, pa.int64()),
                     "mmr_score": pa.array(s_out, pa.int64())})
