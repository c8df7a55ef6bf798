"""Distributed cardinality sketch: KMV (k-minimum-values) distinct
count over a derived key stream (here: the corpus vocabulary).

The 100-TB pattern this demonstrates: estimating COUNT(DISTINCT x)
without the all-to-all shuffle an exact distinct needs. Each batch
contributes its k smallest md5(key) values (a few KB), the driver keeps
the global k smallest, and the k-th smallest hash h_(k) estimates the
cardinality as (k-1) / h_(k) (Bar-Yossef et al. 2002, the KMV/bottom-k
estimator). Exchange volume is O(batches × k) hashes — independent of
both row count and cardinality.

Unlike HyperLogLog, KMV over md5 is fully deterministic for a given
dataset, so the DuckDB oracle reproduces the ESTIMATE bit-for-bit
(ORDER BY md5 LIMIT k in SQL); the estimator itself is still ±1/√k
relative error vs the true cardinality (~6% at k=256).
"""

from __future__ import annotations

import hashlib

import numpy as np

import pyarrow as pa

from .textstats import norm_words

KMV_K = 256
# the estimator maps h_(k) to (0,1) via the first 15 hex digits (60
# bits): BIGINT-safe in DuckDB, and 16**15 = 2**60 is an exact double,
# so Python and SQL round identically
_FRAC_DIGITS = 15
_FRAC_DEN = float(16 ** _FRAC_DIGITS)


def kmv_distinct_terms(docs_ds):
    """One-row table (k, n_hashes, estimate): approximate distinct-word
    count of the corpus. ``estimate`` equals the exact count whenever
    fewer than k distinct hashes exist (the sketch is lossless below k).
    """

    def local(batch: pa.Table) -> pa.Table:
        hs: set[str] = set()
        for t in batch["text"].to_pylist():
            for w in set(norm_words(t)):
                hs.add(hashlib.md5(w.encode()).hexdigest())
        return pa.table({"h": pa.array(sorted(hs)[:KMV_K], pa.string())})

    rows = docs_ds.map_batches(local, batch_format="pyarrow").take_all()
    top = sorted({r["h"] for r in rows})[:KMV_K]
    est = kmv_estimate(top)
    return pa.table({"k": pa.array([KMV_K], pa.int64()),
                     "n_hashes": pa.array([len(top)], pa.int64()),
                     "estimate": pa.array([est], pa.float64())})


def kmv_oracle_sql(words_cte: str | None = None) -> str:
    """The identical estimator in DuckDB over the documents view.

    ``words_cte`` lets the caller supply the canonical shared words CTE
    (corpus_oracles._W) so the word-split definition cannot drift from
    the other text oracles."""
    if words_cte is None:
        words_cte = """
WITH w AS (
  SELECT CASE WHEN trim(text) = '' THEN []
              ELSE string_split_regex(lower(trim(text)), '\\s+') END AS words
  FROM documents
)"""
    return words_cte + f""",
h AS (SELECT DISTINCT md5(t) AS h FROM (SELECT unnest(words) AS t FROM w)),
top AS (SELECT h FROM h ORDER BY h LIMIT {KMV_K})
SELECT {KMV_K} AS k, count(*) AS n_hashes,
       CASE WHEN count(*) < {KMV_K} THEN CAST(count(*) AS DOUBLE)
            ELSE round(({KMV_K} - 1) /
                 (CAST(('0x' || substr(max(h), 1, {_FRAC_DIGITS})) AS BIGINT)
                  / power(16, {_FRAC_DIGITS})), 6)
       END AS estimate
FROM top"""


# ---------------------------------------------------------------------------
# Count-Min sketch: approximate per-term frequencies without a
# term-keyed shuffle
# ---------------------------------------------------------------------------

CMS_DEPTH = 4      # independent hash rows
CMS_WIDTH = 512    # cells per row


def _cms_cell(d: int, term: str) -> int:
    """Row-d cell index: first 15 hex digits of md5("{d}:{term}") mod
    CMS_WIDTH — BIGINT-safe, reproduced verbatim in the SQL oracle."""
    h = hashlib.md5(f"{d}:{term}".encode()).hexdigest()
    return int(h[:_FRAC_DIGITS], 16) % CMS_WIDTH


def cms_term_counts(docs_ds, probe_terms: tuple[str, ...]):
    """(term, estimate) for each probe term, where estimate is the
    Count-Min upper bound min_d cells[d][h_d(term)] (Cormode &
    Muthukrishnan 2005) over total word occurrences.

    100-TB shape: each batch emits ≤ depth×width partial counter rows
    (a few KB, independent of row count and vocabulary); the driver
    merge touches only the depth×width grid. Versus the exact
    ``topk_terms`` path this trades a bounded overestimate for ZERO
    term-keyed exchange. Deterministic md5 hashing means the DuckDB
    oracle rebuilds the identical grid and estimates bit-for-bit.
    """

    def local(batch: pa.Table) -> pa.Table:
        counts: dict[str, int] = {}
        for t in batch["text"].to_pylist():
            for w in norm_words(t):
                counts[w] = counts.get(w, 0) + 1
        grid: dict[tuple[int, int], int] = {}
        for w, n in counts.items():
            for d in range(CMS_DEPTH):
                k = (d, _cms_cell(d, w))
                grid[k] = grid.get(k, 0) + n
        ks = sorted(grid)
        return pa.table({
            "d": pa.array([k[0] for k in ks], pa.int64()),
            "cell": pa.array([k[1] for k in ks], pa.int64()),
            "n": pa.array([grid[k] for k in ks], pa.int64()),
        })

    cells = np.zeros((CMS_DEPTH, CMS_WIDTH), dtype=np.int64)
    for b in docs_ds.map_batches(local, batch_format="pyarrow") \
                    .iter_batches(batch_format="pyarrow"):
        # np.add.at, NOT fancy-index +=: one iter batch may concatenate
        # several partial grids, so (d, cell) pairs repeat
        np.add.at(cells,
                  (b["d"].to_numpy(zero_copy_only=False),
                   b["cell"].to_numpy(zero_copy_only=False)),
                  b["n"].to_numpy(zero_copy_only=False))
    terms = sorted(probe_terms)
    est = [int(min(cells[d][_cms_cell(d, t)]
               for d in range(CMS_DEPTH)))
           for t in terms]
    return pa.table({"term": pa.array(terms, pa.string()),
                     "estimate": pa.array(est, pa.int64())})


def cms_oracle_sql(probe_terms: tuple[str, ...], words_cte: str) -> str:
    """The identical grid + min-estimate in DuckDB: word occurrence
    counts → (d, cell) sums with the same md5 cell function → min over
    rows per probe term."""
    probes = ", ".join("'" + t.replace("'", "''") + "'"
                       for t in sorted(probe_terms))
    cell = (f"CAST(('0x' || substr(md5(CAST(d AS VARCHAR) || ':' || t),"
            f" 1, {_FRAC_DIGITS})) AS BIGINT) % {CMS_WIDTH}")
    return words_cte + f""",
occ AS (SELECT t, count(*) AS n
        FROM (SELECT unnest(words) AS t FROM w) GROUP BY t),
grid AS (SELECT d, {cell} AS cell, sum(n) AS cn
         FROM occ CROSS JOIN (SELECT unnest(range({CMS_DEPTH})) AS d)
         GROUP BY 1, 2),
probe AS (SELECT t AS term, d, {cell} AS cell
          FROM (SELECT unnest([{probes}]) AS t)
          CROSS JOIN (SELECT unnest(range({CMS_DEPTH})) AS d))
SELECT term,
       CAST(min(coalesce(grid.cn, 0)) AS BIGINT) AS estimate
FROM probe LEFT JOIN grid ON probe.d = grid.d AND probe.cell = grid.cell
GROUP BY term"""


def kmv_estimate(top: list[str]) -> float:
    """THE shared KMV estimator rule (exact below k = ``KMV_K``):
    callers pass the globally k-smallest distinct md5 hex hashes."""
    if len(top) < KMV_K:
        return float(len(top))
    kth_frac = int(top[KMV_K - 1][:_FRAC_DIGITS], 16) / _FRAC_DEN
    return round((KMV_K - 1) / kth_frac, 6)


def profile_table(ds, int_cols: list[str], str_cols: list[str]) -> pa.Table:
    """ANALYZE-style column statistics in ONE pass: per column the row
    count, null count, KMV distinct estimate (exact whenever the
    column's domain is below k — so small-domain columns get exact
    counts from the same uniform rule) and min/max (native-typed
    comparison, emitted as strings).

    Shape: each batch emits one partial row per column carrying scalar
    stats plus its ≤k smallest value hashes; the driver merge touches
    columns × batches rows. No shuffle, no second scan — the engine's
    statistics collection a planner would run before choosing joins."""
    cols = [(c, "i") for c in int_cols] + [(c, "s") for c in str_cols]

    def partial(b: pa.Table) -> pa.Table:
        names, ns, nulls = [], [], []
        min_i, max_i, min_s, max_s, hs = [], [], [], [], []
        for c, kind in cols:
            vals = b[c].to_pylist()
            nn = sum(1 for v in vals if v is None)
            present = [v for v in vals if v is not None]
            names.append(c)
            ns.append(len(vals))
            nulls.append(nn)
            top = sorted({hashlib.md5(str(v).encode()).hexdigest()
                          for v in present})[:KMV_K]
            hs.append(top)
            if kind == "i":
                min_i.append(min(present) if present else None)
                max_i.append(max(present) if present else None)
                min_s.append(None)
                max_s.append(None)
            else:
                min_i.append(None)
                max_i.append(None)
                min_s.append(min(present) if present else None)
                max_s.append(max(present) if present else None)
        return pa.table({
            "column": pa.array(names, pa.string()),
            "n": pa.array(ns, pa.int64()),
            "n_null": pa.array(nulls, pa.int64()),
            "min_i": pa.array(min_i, pa.int64()),
            "max_i": pa.array(max_i, pa.int64()),
            "min_s": pa.array(min_s, pa.string()),
            "max_s": pa.array(max_s, pa.string()),
            "hashes": pa.array(hs, pa.large_list(pa.string())),
        })

    acc: dict[str, dict] = {}
    for b in ds.map_batches(partial, batch_format="pyarrow") \
               .iter_batches(batch_format="pyarrow"):
        for r in b.to_pylist():
            a = acc.setdefault(r["column"], {
                "n": 0, "n_null": 0, "min_i": None, "max_i": None,
                "min_s": None, "max_s": None, "hs": set()})
            a["n"] += r["n"]
            a["n_null"] += r["n_null"]
            for f in ("min_i", "min_s"):
                v = r[f]
                if v is not None and (a[f] is None or v < a[f]):
                    a[f] = v
            for f in ("max_i", "max_s"):
                v = r[f]
                if v is not None and (a[f] is None or v > a[f]):
                    a[f] = v
            a["hs"].update(r["hashes"])

    rows = []
    for c, kind in cols:  # already in declaration order
        a = acc[c]
        top = sorted(a["hs"])[:KMV_K]
        mn = a["min_i"] if kind == "i" else a["min_s"]
        mx = a["max_i"] if kind == "i" else a["max_s"]
        rows.append((c, a["n"], a["n_null"], kmv_estimate(top),
                     "" if mn is None else str(mn),
                     "" if mx is None else str(mx)))
    return pa.table({
        "column": pa.array([r[0] for r in rows], pa.string()),
        "n": pa.array([r[1] for r in rows], pa.int64()),
        "n_null": pa.array([r[2] for r in rows], pa.int64()),
        "n_distinct": pa.array([r[3] for r in rows], pa.float64()),
        "min_repr": pa.array([r[4] for r in rows], pa.string()),
        "max_repr": pa.array([r[5] for r in rows], pa.string()),
    })


HLL_P = 6  # 2^6 = 64 registers (alpha_64 = 0.709, Flajolet et al. 2007)
_HLL_REM_BITS = 60 - HLL_P          # md5[:15 hex] = 60-bit hash
_HLL_REM_MASK = (1 << _HLL_REM_BITS) - 1
_HLL_SCALE = 1 << (_HLL_REM_BITS + 1)   # 2^55: exact-int 2^-M scaling


def hll_distinct_terms(docs_ds):
    """HyperLogLog distinct-word estimate (Flajolet et al. 2007) —
    the O(m)-state cousin of KMV: each worker keeps only 64 int
    registers (max leading-zero rank per register over md5-hashed
    words), register vectors max-merge associatively, and the driver
    folds m integers per block. Every float in the estimator is
    derived from EXACT integers (the 2^-M sum is computed as the int64
    sum of 2^(55-M), order-independent), so the DuckDB mirror is
    bit-identical including the small-range linear-counting branch.
    One row: (m, hll_estimate, zero_registers). Exact SQL mirror:
    "distinct_hll"."""
    import math

    m = 1 << HLL_P

    def local(batch: pa.Table) -> pa.Table:
        regs = np.zeros(m, np.int64)
        done: set[str] = set()
        for t in batch["text"].to_pylist():
            for w in set(norm_words(t)):
                if w in done:
                    continue
                done.add(w)
                h = int(hashlib.md5(w.encode()).hexdigest()[:15], 16)
                j = h >> _HLL_REM_BITS
                rem = h & _HLL_REM_MASK
                rho = (_HLL_REM_BITS + 1 - rem.bit_length()) if rem \
                    else _HLL_REM_BITS + 1
                if rho > regs[j]:
                    regs[j] = rho
        return pa.table({"j": pa.array(np.arange(m), pa.int64()),
                         "M": pa.array(regs, pa.int64())})

    acc = np.zeros(m, np.int64)
    for b in docs_ds.map_batches(local, batch_format="pyarrow") \
                    .iter_batches(batch_format="pyarrow"):
        jj = b["j"].to_numpy(zero_copy_only=False)
        mm = b["M"].to_numpy(zero_copy_only=False)
        np.maximum.at(acc, jj, mm)
    s = sum(1 << (_HLL_REM_BITS + 1 - int(v)) for v in acc)
    v = int(np.count_nonzero(acc == 0))
    e = 0.709 * m * m * float(_HLL_SCALE) / s
    if e <= 2.5 * m and v > 0:
        est = round(m * math.log(m / v), 6)
    else:
        est = round(e, 6)
    return pa.table({"m": pa.array([m], pa.int64()),
                     "hll_estimate": pa.array([est], pa.float64()),
                     "zero_registers": pa.array([v], pa.int64())})


MG_K = 200


def _mg_truncate(counts: dict[str, int], k: int) -> dict[str, int]:
    """Misra-Gries summary from exact counts: subtract the minimal d so
    at most k-1 entries stay positive (equivalent to running the k-1
    counter algorithm over the stream; see Agarwal et al., Mergeable
    Summaries, PODS'12)."""
    if len(counts) < k:
        return dict(counts)
    vals = sorted(counts.values(), reverse=True)
    d = vals[k - 1]  # k-th largest: after -d at most k-1 stay positive
    return {t: v - d for t, v in counts.items() if v - d > 0}


def heavy_hitters(docs_ds, k: int = MG_K):
    """Heavy hitters with a frequency GUARANTEE: every word whose count
    exceeds N/k (N = total words), found without ever shuffling the
    full term-count table.

    Pass 1 (map-only + tree combine): each block emits a Misra-Gries
    summary (≤ k-1 counters) plus its word total; a coarse repartition
    then pre-merges the block summaries in ~one task per core (MG merge
    = counter sum + one re-truncate — associative, Agarwal et al.
    PODS'12 — so the merged summary provably still contains every
    global item with count > N/k). The driver folds only the ≤ cores
    pre-merged summaries: O(cores × k) driver work, not O(blocks × k),
    and still independent of vocabulary size. Pass 2 (map-only): exact
    recount of the ≤ k-1 candidates against a closure-captured
    membership set (≤ k-1 short strings — small enough that per-task
    pickling beats a ray.put round-trip); candidates at or below the
    threshold are discarded, so the output is EXACT — (term, n) with
    n * k > N — and the SQL mirror "heavy_hitters" is a plain HAVING
    filter. Two scans, zero all-to-all shuffles."""
    import ray

    def mg_partial(batch: pa.Table) -> pa.Table:
        from collections import Counter
        c: Counter[str] = Counter()
        total = 0
        for t in batch["text"].to_pylist():
            ws = norm_words(t)
            total += len(ws)
            c.update(ws)
        summ = _mg_truncate(c, k)
        terms = sorted(summ)
        return pa.table({
            "term": pa.array(terms + [""], pa.string()),
            "n": pa.array([summ[t] for t in terms] + [0], pa.int64()),
            "total": pa.array([0] * len(terms) + [total], pa.int64()),
        })

    def mg_premerge(batch: pa.Table) -> pa.Table:
        # batch = several block summaries concatenated (≤ k rows each):
        # sum per term, keep the total rows intact, truncate ONCE
        acc: dict[str, int] = {}
        total = 0
        terms = batch["term"].to_pylist()
        ns = batch["n"].to_pylist()
        for t, n_, tot in zip(terms, ns, batch["total"].to_pylist()):
            total += tot
            if t:
                acc[t] = acc.get(t, 0) + n_
        summ = _mg_truncate(acc, k)
        keys = sorted(summ)
        return pa.table({
            "term": pa.array(keys + [""], pa.string()),
            "n": pa.array([summ[t] for t in keys] + [0], pa.int64()),
            "total": pa.array([0] * len(keys) + [total], pa.int64()),
        })

    cpus = int(ray.cluster_resources().get("CPU", 8)) \
        if ray.is_initialized() else 8
    pre = (docs_ds.map_batches(mg_partial, batch_format="pyarrow")
           .repartition(max(8, cpus))
           .map_batches(mg_premerge, batch_format="pyarrow"))

    merged: dict[str, int] = {}
    grand_total = 0
    for b in pre.iter_batches(batch_format="pyarrow"):
        for r in b.to_pylist():
            grand_total += r["total"]
            if r["term"]:
                merged[r["term"]] = merged.get(r["term"], 0) + r["n"]
        merged = _mg_truncate(merged, k)

    candidates = frozenset(merged)

    def recount(batch: pa.Table) -> pa.Table:
        from collections import Counter
        c: Counter[str] = Counter()
        for t in batch["text"].to_pylist():
            c.update(w for w in norm_words(t) if w in candidates)
        terms = sorted(c)
        return pa.table({
            "term": pa.array(terms, pa.string()),
            "n": pa.array([c[t] for t in terms], pa.int64()),
        })

    exact: dict[str, int] = {}
    for b in (docs_ds.map_batches(recount, batch_format="pyarrow")
              .iter_batches(batch_format="pyarrow")):
        for r in b.to_pylist():
            exact[r["term"]] = exact.get(r["term"], 0) + r["n"]

    hits = sorted((t, n) for t, n in exact.items()
                  if n * k > grand_total)
    return pa.table({
        "term": pa.array([t for t, _ in hits], pa.string()),
        "n": pa.array([n for _, n in hits], pa.int64()),
    })
