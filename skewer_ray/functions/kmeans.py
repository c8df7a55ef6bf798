"""Distributed Lloyd k-means over the embedding table — exact form.

The clustering primitive behind embedding-space curation (SemDeDup's
cluster stage, DSIR domain buckets, IVF coarse quantizers): two Lloyd
iterations — assign to deterministic seeds, recompute centroids,
reassign — expressed so EVERY number is exact integer arithmetic and
the DuckDB oracle reproduces assignments bit-for-bit:

- vectors quantize to integer micro-units ``q_d = floor(v_d · 10⁶)``
  (the jl_project rule — identical IEEE floor on both engines);
- seeds are the ``k`` smallest ``vec_id`` rows (engine-independent);
- distances are ``Σ_d (q_d − c_d)²`` in int64 (micro-unit values are
  ≲2·10⁶, so a squared diff is ≲4·10¹² and a 1024-dim sum ≲4·10¹⁵ —
  comfortably inside int64);
- updated centroid components are exact FLOOR divisions
  ``Σ q_d // n`` (numpy ``//`` floors; the SQL mirror uses the
  ``(s - pymod(s, n)) // n`` construction because DuckDB's ``//``
  truncates toward zero for negatives);
- ties (equal dist²) break to the lowest centroid id on both sides.

Distributed shape (100-TB-safe):
  1. bounded bottom-k partials find the seed ids AND vectors in one
     pass (k rows per block → driver merge of ≤ k·blocks tiny rows);
  2. the (k, dim) centroid matrix is broadcast ONCE via ``ray.put``
     and read inside ``map_batches`` — never re-shipped per batch;
  3. the update pass emits per-batch per-cluster partial sums
     (k·dim rows per batch, independent of batch row count) — a
     map-side combine, merged on the driver (bounded: k·dim ints);
  4. the final assignment pass is embarrassingly parallel.

No global sort, no all-to-all shuffle, no full materialization: the
only driver-held state is O(k·dim).

Reference parity note: the reference engine has no clustering op; this
extends the corpus-curation family (SURVEY §2 "beyond-reference" ops)
alongside semdedup/dsir_select which consume exactly this primitive.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from .quantize import _batch_matrix

KMEANS_K = 8
KMEANS_SCALE = 1_000_000.0


def _seed_rows(emb_ds, k: int, col: str):
    """The k smallest-vec_id rows WITH their vectors, via bounded
    per-block partials (k rows per block → driver merge of k·blocks
    tiny rows) — one pass finds the seed ids AND their vectors, no
    second filter scan."""

    def partial(b: pa.Table) -> pa.Table:
        ids = b["vec_id"].combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        keep = np.sort(np.argsort(ids)[:k])
        return b.select(["vec_id", col]).take(pa.array(keep, pa.int64()))

    acc: dict[int, list[float]] = {}
    for b in (emb_ds.select_columns(["vec_id", col])
              .map_batches(partial, batch_format="pyarrow")
              .iter_batches(batch_format="pyarrow")):
        for r in b.to_pylist():
            acc[int(r["vec_id"])] = r[col]
        if len(acc) > k:
            for vid in sorted(acc)[k:]:
                del acc[vid]
    ids = np.array(sorted(acc), dtype=np.int64)
    mat = np.array([acc[i] for i in ids], dtype=np.float64)
    return ids, mat


def _quantize(m: np.ndarray) -> np.ndarray:
    return np.floor(m * KMEANS_SCALE).astype(np.int64)


def _dist2(q: np.ndarray, cents: np.ndarray) -> np.ndarray:
    """(n, k) exact int64 squared distances via the expanded form."""
    qq = (q * q).sum(axis=1)[:, None]
    cc = (cents * cents).sum(axis=1)[None, :]
    return qq - 2 * (q @ cents.T) + cc


def kmeans_assign(emb_ds):
    """Two-iteration Lloyd assignment: (vec_id, cluster, dist2) rows
    where ``cluster`` is the seed vec_id of the owning centroid after
    ONE centroid update, ``dist2`` the exact int64 squared distance in
    micro-units. See module docstring for the exactness contract."""
    seed_ids, seed_mat = _seed_rows(emb_ds, KMEANS_K, "embedding")
    cents0 = _quantize(seed_mat)          # (k, dim), rows by cid asc
    bc0 = ray.put((seed_ids, cents0))

    def partial_sums(b: pa.Table) -> pa.Table:
        cids, cents = ray.get(bc0)
        q = _quantize(_batch_matrix(b, "embedding"))
        if q.size == 0:
            return pa.table({"cid": pa.array([], pa.int64()),
                             "d": pa.array([], pa.int64()),
                             "s": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        assign = np.argmin(_dist2(q, cents), axis=1)  # first min = low cid
        kk, dim = cents.shape
        onehot = np.zeros((kk, q.shape[0]), dtype=np.int64)
        onehot[assign, np.arange(q.shape[0])] = 1
        sums = onehot @ q                              # (k, dim) exact
        counts = np.bincount(assign, minlength=kk).astype(np.int64)
        return pa.table({
            "cid": pa.array(np.repeat(cids, dim), pa.int64()),
            "d": pa.array(np.tile(np.arange(dim, dtype=np.int64), kk),
                          pa.int64()),
            "s": pa.array(sums.reshape(-1), pa.int64()),
            "n": pa.array(np.repeat(counts, dim), pa.int64())})

    sums: dict[tuple[int, int], int] = {}
    counts: dict[int, int] = {}
    for b in emb_ds.map_batches(partial_sums, batch_format="pyarrow") \
                   .iter_batches(batch_format="pyarrow"):
        for cid, d, s, n in zip(b["cid"].to_pylist(), b["d"].to_pylist(),
                                b["s"].to_pylist(), b["n"].to_pylist()):
            sums[(cid, d)] = sums.get((cid, d), 0) + s
            if d == 0:
                counts[cid] = counts.get(cid, 0) + n

    dim = cents0.shape[1]
    cents1 = cents0.copy()
    for i, cid in enumerate(seed_ids.tolist()):
        n = counts.get(cid, 0)
        if n > 0:  # empty cluster keeps its seed centroid
            row = np.array([sums[(cid, d)] for d in range(dim)],
                           dtype=np.int64)
            cents1[i] = row // n          # numpy // floors (exact)
    bc1 = ray.put((seed_ids, cents1))

    def final_assign(b: pa.Table) -> pa.Table:
        cids, cents = ray.get(bc1)
        q = _quantize(_batch_matrix(b, "embedding"))
        if q.size == 0:
            return pa.table({"vec_id": pa.array([], pa.int64()),
                             "cluster": pa.array([], pa.int64()),
                             "dist2": pa.array([], pa.int64())})
        d2 = _dist2(q, cents)
        assign = np.argmin(d2, axis=1)
        return pa.table({
            "vec_id": pc.cast(b["vec_id"], pa.int64()),
            "cluster": pa.array(cids[assign], pa.int64()),
            "dist2": pa.array(d2[np.arange(len(assign)), assign],
                              pa.int64())})

    return emb_ds.map_batches(final_assign, batch_format="pyarrow")
