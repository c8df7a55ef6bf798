"""Symmetric int8 scalar quantization of an embedding column.

The standard storage/serving compression for embedding tables at scale:
per-dimension symmetric max-abs scaling,

    q_d(v) = clamp(floor(v_d · 127 / amax_d), -127, 127)

where ``amax_d = max |v_d|`` over the whole corpus. floor (not round)
is the quantizer so the engine and the SQL oracle share one exactly-
specified rule; both sides compute the identical IEEE-double expression
``(v * 127) / amax`` (f32 values widened to f64, same operation order),
and max/abs are exact, so the codes match bit-for-bit cross-engine.

Distributed shape (100-TB-safe):
  1. pass 1 — per-batch per-dimension max-abs partials (rows bounded by
     the dimension count, not the corpus) → driver merge to the amax
     vector;
  2. the amax vector is broadcast once via ``ray.put`` (closure
     capture), NOT re-shipped per batch;
  3. pass 2 — embarrassingly-parallel map emitting integer summaries of
     each vector's code block (sum / L1 / position-weighted checksum),
     all exact int64.

Zero-amax dimensions (constant-zero columns) quantize to 0.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray


def _batch_matrix(b: pa.Table, col: str) -> np.ndarray:
    """(n, dim) float64 matrix from a fixed-length list<float> column.

    ``flatten()``, not ``.values``: on a sliced ListArray (as Ray block
    splits produce) ``.values`` returns the WHOLE child buffer ignoring
    the slice offset, while flatten() honors it."""
    arr = b[col].combine_chunks()
    dim = len(arr[0]) if len(arr) else 0
    return np.asarray(arr.flatten().to_numpy(zero_copy_only=False),
                      dtype=np.float64).reshape(-1, dim)


def dimension_max_abs(emb_ds) -> np.ndarray:
    """Exact per-dimension max(|v|) via bounded partial rows."""

    def partial(b: pa.Table) -> pa.Table:
        m = _batch_matrix(b, "embedding")
        amax = np.abs(m).max(axis=0) if m.size else np.empty(0)
        return pa.table({"d": pa.array(np.arange(amax.size), pa.int32()),
                         "amax": pa.array(amax, pa.float64())})

    acc: dict[int, float] = {}
    for b in emb_ds.map_batches(partial, batch_format="pyarrow") \
                   .iter_batches(batch_format="pyarrow"):
        for d, a in zip(b["d"].to_pylist(), b["amax"].to_pylist()):
            # setdefault so all-zero dimensions still appear (amax 0.0)
            if a >= acc.setdefault(d, 0.0):
                acc[d] = a
    return np.array([acc[d] for d in sorted(acc)], dtype=np.float64)


def quantize_embeddings(emb_ds):
    """Dataset of per-vector int8-code summaries.

    Output columns: vec_id, q_sum (Σ codes), q_l1 (Σ |codes|),
    q_checksum (Σ codes·(d+1)) — all exact int64, so the DuckDB oracle
    reproduces them bit-for-bit from the same floor-quantizer."""
    amax = dimension_max_abs(emb_ds)
    amax_ref = ray.put(amax)

    def quant(b: pa.Table) -> pa.Table:
        a = ray.get(amax_ref)
        m = _batch_matrix(b, "embedding")
        safe = np.where(a > 0.0, a, 1.0)
        q = np.floor((m * 127.0) / safe)
        q = np.clip(q, -127, 127).astype(np.int64)
        q[:, a == 0.0] = 0
        w = np.arange(1, q.shape[1] + 1, dtype=np.int64)
        return pa.table({
            "vec_id": b["vec_id"],
            "q_sum": pa.array(q.sum(axis=1), pa.int64()),
            "q_l1": pa.array(np.abs(q).sum(axis=1), pa.int64()),
            "q_checksum": pa.array((q * w).sum(axis=1), pa.int64()),
        })

    return emb_ds.map_batches(quant, batch_format="pyarrow")


def quantized_topk(emb_ds, query_ids: list[int], k: int = 5):
    """Similarity search over the int8 codes — the ANN serving path a
    quantized embedding store actually runs: scores are int8×int8 dot
    products accumulated in int64, so scoring and ordering
    (score DESC, vec_id ASC) are EXACT integer arithmetic with no float
    rounding mode anywhere; the DuckDB oracle rebuilds codes and scores
    bit-for-bit from the same floor-quantizer.

    Shape mirrors similarity.brute_force_topk, sharing its query-fetch
    and deterministic-merge helpers: dim-bounded amax partials (one
    extra narrow pass), broadcast query codes via ``ray.put``,
    per-block partial top-k, bounded driver merge."""
    import ray
    import ray.data as rd

    from .similarity import _merge_topk, _query_matrix

    amax = dimension_max_abs(emb_ds)
    safe = np.where(amax > 0.0, amax, 1.0)

    def codes_of(m: np.ndarray) -> np.ndarray:
        q = np.floor((m * 127.0) / safe)
        q = np.clip(q, -127, 127).astype(np.int64)
        q[:, amax == 0.0] = 0
        return q

    qset = set(int(q) for q in query_ids)
    qids, qmat = _query_matrix(emb_ds, query_ids, normalize=False)
    if qids.size == 0:  # no query id present → typed empty result
        return rd.from_arrow(pa.table({
            "query_id": pa.array([], pa.int64()),
            "rank": pa.array([], pa.int64()),
            "vec_id": pa.array([], pa.int64()),
            "score": pa.array([], pa.int64())}))
    qcodes = codes_of(qmat)
    broadcast = ray.put((qids, qcodes))

    def partial_topk(batch: pa.Table) -> pa.Table:
        b_qids, b_qcodes = ray.get(broadcast)
        cids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
        keep = np.array([c not in qset for c in cids])
        empty = pa.table({"query_id": pa.array([], pa.int64()),
                          "vec_id": pa.array([], pa.int64()),
                          "score": pa.array([], pa.int64())})
        if not keep.any():
            return empty
        cids = cids[keep]
        cmat = _batch_matrix(batch, "embedding")[keep]
        scores = b_qcodes @ codes_of(cmat).T  # int64 exact
        q_out, v_out, s_out = [], [], []
        kk = min(k, scores.shape[1])
        for qi in range(len(b_qids)):
            idx = np.lexsort((cids, -scores[qi]))[:kk]
            q_out.extend([int(b_qids[qi])] * len(idx))
            v_out.extend(int(cids[j]) for j in idx)
            s_out.extend(int(scores[qi, j]) for j in idx)
        return pa.table({"query_id": pa.array(q_out, pa.int64()),
                         "vec_id": pa.array(v_out, pa.int64()),
                         "score": pa.array(s_out, pa.int64())})

    parts = emb_ds.map_batches(partial_topk, batch_format="pyarrow")
    return _merge_topk(parts, k, score_col="score", score_type=int)


# ---------------------------------------------------------------------------
# Johnson-Lindenstrauss signed random projection (exact integer form)
# ---------------------------------------------------------------------------

JL_K = 8  # projected dimensionality


def _jl_signs(dim: int, k: int) -> np.ndarray:
    """Deterministic ±1 (dim, k) sign matrix: s(d, j) = +1 iff the
    first md5 hex digit of "d:j" (both 1-based) is < '8' — the
    Achlioptas {±1} JL family with a hash-derived, engine-independent
    seed. Built once per worker (tiny: dim×k)."""
    import hashlib
    s = np.empty((dim, k), np.int64)
    for d in range(1, dim + 1):
        for j in range(1, k + 1):
            s[d - 1, j - 1] = (
                1 if int(hashlib.md5(f"{d}:{j}".encode())
                         .hexdigest()[0], 16) < 8 else -1)
    return s


def jl_project(emb_ds):
    """Johnson-Lindenstrauss dimensionality reduction to ``JL_K`` signed
    components — the cheap embedding-compression step before sketching
    or LSH at scale. All arithmetic is EXACT: vectors quantize to
    integer micro-units q_d = floor(v_d · 10⁶) (identical IEEE floor
    in the DuckDB mirror), the ±1 sign matrix is a pure function of
    (d, j) via md5, and each output component y_j = Σ_d s(d,j)·q_d is
    an integer sum — order-independent, so the distributed block
    layout can never change the result (float JL projections cannot
    make that promise).

    Map-only: the sign matrix is rebuilt from its hash seed per worker
    (dim×k ints — cheaper than shipping it); one (vec_id, j, y) row
    per vector per component. Long format (not list<int>) keeps the
    driver hash comparison and the SQL mirror trivial."""
    cache: dict[tuple[int, int], np.ndarray] = {}

    def fn(b: pa.Table) -> pa.Table:
        m = _batch_matrix(b, "embedding")
        n, dim = m.shape
        if (dim, JL_K) not in cache:
            cache[(dim, JL_K)] = _jl_signs(dim, JL_K)
        s = cache[(dim, JL_K)]
        q = np.floor(m * 1000000.0).astype(np.int64)
        y = q @ s                                   # (n, k) exact int64
        ids = np.repeat(
            np.asarray(b["vec_id"].to_pylist(), np.int64), JL_K)
        return pa.table({
            "vec_id": pa.array(ids, pa.int64()),
            "j": pa.array(np.tile(np.arange(1, JL_K + 1, dtype=np.int64),
                                  n), pa.int64()),
            "y": pa.array(y.reshape(-1), pa.int64())})

    return emb_ds.map_batches(fn, batch_format="pyarrow")
