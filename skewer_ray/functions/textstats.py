"""Text analysis over the ``documents`` table: token counting (BPE-ish
regex), quality scoring, n-gram-heuristic language ID, document
fingerprinting (winnowed k-gram min-hash).

All per-batch functions are pyarrow-Table → pyarrow-Table and run under
``map_batches(batch_format="pyarrow")``; the regexes are compiled once
at module import (once per worker process).
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# BPE-ish tokenizer: alpha runs, digit runs, single punctuation marks.
# Kept RE2-compatible so the DuckDB oracle's regexp_extract_all agrees.
TOKEN_RE = re.compile(r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]")
_PUNCT_RE = re.compile(r"[^A-Za-z0-9\s]")
_WS_RE = re.compile(r"\s+")

EN_STOP = ("the", "a", "of", "and", "to", "in", "is", "it")
# tiny per-language stopword lists for the n-gram/stopword heuristic;
# checked in priority order (deterministic tie-break)
LANG_WORDLISTS = [
    ("en", EN_STOP),
    ("de", ("der", "die", "das", "und", "ist", "nicht", "ein")),
    ("fr", ("le", "la", "et", "est", "les", "des", "une")),
    ("es", ("el", "los", "y", "es", "las", "una", "que")),
]


def norm_words(text: str) -> list[str]:
    """lower + whitespace split — the canonical word stream."""
    return _WS_RE.split(text.lower().strip()) if text.strip() else []


def tokens_of(text: str) -> list[str]:
    return TOKEN_RE.findall(text)


def text_stats_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, n_chars, n_tokens, n_words, punct_ratio, stop_ratio,
    quality) — the quality-scoring stage."""
    texts = batch["text"].to_pylist()
    n_chars, n_tokens, n_words, pr, sr, q = [], [], [], [], [], []
    stop = set(EN_STOP)
    for t in texts:
        words = norm_words(t)
        toks = tokens_of(t)
        npunct = len(_PUNCT_RE.findall(t))
        nw = len(words)
        nt = len(toks)
        hits = sum(1 for w in words if w in stop)
        punct_ratio = npunct / nt if nt else 0.0
        stop_ratio = hits / nw if nw else 0.0
        score = (0.4 * min(nw, 100) / 100
                 + 0.3 * (1.0 - punct_ratio)
                 + 0.3 * min(1.0, 5.0 * stop_ratio))
        n_chars.append(len(t))
        n_tokens.append(nt)
        n_words.append(nw)
        pr.append(punct_ratio)
        sr.append(stop_ratio)
        q.append(score)
    return pa.table({
        "doc_id": batch["doc_id"],
        "n_chars": pa.array(n_chars, pa.int64()),
        "n_tokens": pa.array(n_tokens, pa.int64()),
        "n_words": pa.array(n_words, pa.int64()),
        "punct_ratio": pa.array(pr, pa.float64()),
        "stop_ratio": pa.array(sr, pa.float64()),
        "quality": pa.array(q, pa.float64()),
    })


def langid_batch(batch: pa.Table) -> pa.Table:
    """Stopword-hit language heuristic: the language with the most word
    hits wins; zero hits or a tie between leaders → "und". Priority
    order of LANG_WORDLISTS breaks residual ordering questions."""
    texts = batch["text"].to_pylist()
    sets = [(lang, frozenset(ws)) for lang, ws in LANG_WORDLISTS]
    out = []
    for t in texts:
        words = norm_words(t)
        scores = [(sum(1 for w in words if w in ws), lang)
                  for lang, ws in sets]
        best = max(s for s, _l in scores)
        if best == 0:
            out.append("und")
            continue
        leaders = [lang for s, lang in scores if s == best]
        out.append(leaders[0] if len(leaders) == 1 else "und")
    return pa.table({"doc_id": batch["doc_id"],
                     "lang_pred": pa.array(out, pa.string())})


def fingerprint_batch(batch: pa.Table, k: int = 5) -> pa.Table:
    """Document fingerprints: exact content hash (md5 over the
    whitespace-normalized text) + a winnowed rolling fingerprint (the
    lexicographic MIN of md5 over every k-word window — the document-
    level winnowing fingerprint; docs sharing it share a k-gram)."""
    texts = batch["text"].to_pylist()
    exact, winnow = [], []
    for t in texts:
        words = norm_words(t)
        norm = " ".join(words)
        exact.append(hashlib.md5(norm.encode()).hexdigest())
        if len(words) >= k:
            grams = (" ".join(words[i:i + k])
                     for i in range(len(words) - k + 1))
            winnow.append(min(hashlib.md5(g.encode()).hexdigest()
                              for g in grams))
        else:
            winnow.append(hashlib.md5(norm.encode()).hexdigest())
    return pa.table({"doc_id": batch["doc_id"],
                     "exact_md5": pa.array(exact, pa.string()),
                     "winnow_fp": pa.array(winnow, pa.string())})


def repetition_batch(batch: pa.Table) -> pa.Table:
    """Gopher-style within-document repetition signals (map-only):

    - ``dup_3gram_frac``: fraction of 3-word-shingle occurrences that
      are repeats of an earlier shingle in the SAME doc — the classic
      boilerplate/spam signal (Rae et al. 2021 §A1.1).
    - ``top_word_frac``: occurrence share of the single most frequent
      word — catches degenerate "word word word ..." docs.

    Docs with <3 words have no shingles → dup_3gram_frac 0; empty docs
    score 0 on both. Ratios of exact integer counts rounded to 6 dp on
    both sides keep the DuckDB oracle bit-identical."""
    from collections import Counter
    ids, dup_f, top_f = [], [], []
    for d, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
        words = norm_words(t)
        total = max(0, len(words) - 2)
        if total:
            sh = Counter(" ".join(words[i:i + 3]) for i in range(total))
            dup = (total - len(sh)) / total
        else:
            dup = 0.0
        if words:
            top = Counter(words).most_common(1)[0][1] / len(words)
        else:
            top = 0.0
        ids.append(d)
        dup_f.append(round(dup, 6))
        top_f.append(round(top, 6))
    return pa.table({"doc_id": pa.array(ids, pa.int64()),
                     "dup_3gram_frac": pa.array(dup_f, pa.float64()),
                     "top_word_frac": pa.array(top_f, pa.float64())})


# Gopher rule constants (Rae et al. 2021 §A1.1, adapted to the
# canonical whitespace word stream; all thresholds exact-integer)
GOPHER_MIN_WORDS = 50
GOPHER_MAX_WORDS = 100_000
GOPHER_MIN_MWL = 3       # mean word length lower bound
GOPHER_MAX_MWL = 10      # mean word length upper bound
GOPHER_SYMBOL_X10 = 1    # symbol-to-word ratio <= 0.1  (10*sym <= n)
GOPHER_ALPHA_NUM = 4     # >= 80% of words contain a letter (5a >= 4n)
GOPHER_MIN_STOP = 2      # >= 2 distinct EN stopwords present


def gopher_rules_batch(batch: pa.Table) -> pa.Table:
    """Gopher quality rules (Rae et al. 2021 §A1.1) as a map-only
    stage: per-doc pass/fail flags for the five document-level rules
    plus the conjunction. Every rule is an EXACT integer comparison
    (cross-multiplied ratios — no float thresholds), so the DuckDB
    oracle reproduces each flag bit-for-bit:

    - ``r_words``:  50 <= n_words <= 100000
    - ``r_wlen``:   mean word length in [3, 10]
                    (3*n <= sum(len(w)) <= 10*n, n > 0)
    - ``r_symbol``: '#'/'...' occurrences <= 10% of words
    - ``r_alpha``:  >= 80% of words contain a letter (5a >= 4n)
    - ``r_stop``:   >= 2 distinct EN stopwords present

    Flags are int64 0/1 (not bool) so the driver's sorted-value hash
    is unambiguous across engines."""
    alpha_re = re.compile(r"[a-z]")
    stop = frozenset(EN_STOP)
    ids = batch["doc_id"]
    cols: dict[str, list[int]] = {k: [] for k in (
        "n_words", "r_words", "r_wlen", "r_symbol", "r_alpha",
        "r_stop", "keep")}
    for t in batch["text"].to_pylist():
        ws = norm_words(t)
        n = len(ws)
        wl = sum(len(w) for w in ws)
        nsym = t.count("#") + t.count("...")
        nalpha = sum(1 for w in ws if alpha_re.search(w))
        nstop = len(stop.intersection(ws))
        r_words = int(GOPHER_MIN_WORDS <= n <= GOPHER_MAX_WORDS)
        r_wlen = int(n > 0 and GOPHER_MIN_MWL * n <= wl
                     <= GOPHER_MAX_MWL * n)
        r_symbol = int(10 * nsym <= GOPHER_SYMBOL_X10 * n)
        r_alpha = int(5 * nalpha >= GOPHER_ALPHA_NUM * n)
        r_stop = int(nstop >= GOPHER_MIN_STOP)
        keep = r_words & r_wlen & r_symbol & r_alpha & r_stop
        for k, v in (("n_words", n), ("r_words", r_words),
                     ("r_wlen", r_wlen), ("r_symbol", r_symbol),
                     ("r_alpha", r_alpha), ("r_stop", r_stop),
                     ("keep", keep)):
            cols[k].append(v)
    return pa.table({"doc_id": ids, **{
        k: pa.array(v, pa.int64()) for k, v in cols.items()}})


# BM25 (Robertson/Sparck-Jones; the Lucene +1 idf variant) over a
# fixed query-term set — corpus-level relevance mining
BM25_K1 = 1.2
BM25_B = 0.75
BM25_TERMS = ("data", "join", "stream", "vector")


def bm25_scores(docs_ds):
    """Per-(doc, term) BM25 partial scores for a fixed query-term set:
    score = idf_t · tf·(k1+1) / (tf + k1·(1−b+b·dl/avgdl)) with
    k1 = 1.2, b = 0.75 and the Lucene non-negative idf
    ln((N − df + 0.5)/(df + 0.5) + 1). Rows are emitted only where
    tf > 0 and are NEVER summed across terms — float addition order
    would differ between engines; per-row scores are pure functions of
    exact integer inputs (tf, dl, N, df, Σdl) evaluated with the
    IDENTICAL expression tree in the DuckDB mirror, rounded to 6 dp.

    Shape: pass 1 gathers (N, Σdl, df_t …) via one-row-per-batch
    partials — the exchange is bounded by the query size, never the
    vocabulary; pass 2 is map-only scoring (the tiny stats ride the
    task closure)."""
    import math

    k = len(BM25_TERMS)

    def stats(b: pa.Table) -> pa.Table:
        nd, tw = b.num_rows, 0
        dfs = [0] * k
        for t in b["text"].to_pylist():
            ws = norm_words(t)
            tw += len(ws)
            seen = set(ws)
            for i, term in enumerate(BM25_TERMS):
                dfs[i] += term in seen
        return pa.table({"nd": pa.array([nd], pa.int64()),
                         "tw": pa.array([tw], pa.int64()),
                         **{f"df_{i}": pa.array([dfs[i]], pa.int64())
                            for i in range(k)}})

    n_docs, total_w = 0, 0
    df = [0] * k
    for b in (docs_ds.map_batches(stats, batch_format="pyarrow")
              .iter_batches(batch_format="pyarrow")):
        for r in b.to_pylist():
            n_docs += r["nd"]
            total_w += r["tw"]
            for i in range(k):
                df[i] += r[f"df_{i}"]

    nd = float(n_docs)
    avgdl = total_w / nd if n_docs else 1.0
    idf = {term: math.log((nd - df[i] + 0.5) / (df[i] + 0.5) + 1.0)
           for i, term in enumerate(BM25_TERMS) if df[i] > 0}

    def score(b: pa.Table) -> pa.Table:
        o_id, o_t, o_tf, o_s = [], [], [], []
        for d, t in zip(b["doc_id"].to_pylist(),
                        b["text"].to_pylist()):
            ws = norm_words(t)
            dl = len(ws)
            for term, idf_t in idf.items():
                tf = ws.count(term)
                if tf:
                    s = idf_t * (tf * (BM25_K1 + 1)) / (
                        tf + BM25_K1 * (1 - BM25_B + BM25_B * (dl / avgdl)))
                    o_id.append(d)
                    o_t.append(term)
                    o_tf.append(tf)
                    o_s.append(round(s, 6))
        return pa.table({"doc_id": pa.array(o_id, pa.int64()),
                         "term": pa.array(o_t, pa.string()),
                         "tf": pa.array(o_tf, pa.int64()),
                         "score": pa.array(o_s, pa.float64())})

    return docs_ds.map_batches(score, batch_format="pyarrow")


# Unigram Shannon entropy — per-doc lexical-diversity scoring for
# corpus curation (low-entropy docs = repetitive/templated text)
ENT_SCALE = 1_000_000.0


def unigram_entropy(docs_ds):
    """Per-doc Shannon entropy of the unigram distribution over the
    canonical word stream: H = ln(n) − (Σ_w c_w·ln c_w)/n.

    Exactness contract: the inner sum is computed as int64 micro-units
    ``ent_micro = Σ_w floor(c_w · ln(c_w) · 10⁶)`` — each term is a
    deterministic IEEE-double floor, and integer addition is
    order-independent, so the distributed block layout cannot perturb
    the total the way a float Σ would. The reported ``entropy`` is the
    single expression ``round(ln(n) − ent_micro/(n·10⁶), 6)`` evaluated
    with the identical tree in the DuckDB mirror. Map-only, no
    exchange. Empty docs report zeros."""
    import math
    from collections import Counter

    def fn(b: pa.Table) -> pa.Table:
        o_n, o_d, o_e, o_h = [], [], [], []
        for t in b["text"].to_pylist():
            ws = norm_words(t)
            n = len(ws)
            if n == 0:
                o_n.append(0); o_d.append(0); o_e.append(0)
                o_h.append(0.0)
                continue
            c = Counter(ws)
            ent = sum(int(math.floor(k * math.log(k) * ENT_SCALE))
                      for k in c.values())
            o_n.append(n)
            o_d.append(len(c))
            o_e.append(ent)
            o_h.append(round(math.log(n) - ent / (n * ENT_SCALE), 6))
        return pa.table({
            "doc_id": b["doc_id"],
            "n_words": pa.array(o_n, pa.int64()),
            "n_distinct": pa.array(o_d, pa.int64()),
            "ent_micro": pa.array(o_e, pa.int64()),
            "entropy": pa.array(o_h, pa.float64())})

    return docs_ds.map_batches(fn, batch_format="pyarrow")


FEATHASH_BUCKETS = 64


def feature_hash_batch(batch: pa.Table,
                       n_buckets: int = FEATHASH_BUCKETS) -> pa.Table:
    """Hashing-trick bag-of-words (Weinberger et al. 2009, "Feature
    Hashing for Large Scale Multitask Learning"): every word occurrence
    lands in bucket md5[:8] mod ``n_buckets`` with sign +-1 from the
    9th md5 hex digit's parity, and a document's feature vector is the
    signed occurrence sum per bucket — the fixed-width representation
    that needs NO vocabulary exchange (the whole point at 100 TB: no
    global term dictionary, no shuffle; the op is map-only and the
    output is bounded by docs x n_buckets). Emits only nonzero
    (doc_id, bucket, weight) rows. The md5 is computed once per
    DISTINCT word via a per-batch cache (the word stream inside a doc
    is doc-local, so the per-doc loop does not cross rows). Exact SQL
    mirror: "feature_hashing"."""
    cache: dict[str, tuple[int, int]] = {}
    out_d: list[int] = []
    out_b: list[int] = []
    out_w: list[int] = []
    for did, text in zip(batch["doc_id"].to_pylist(),
                         batch["text"].to_pylist()):
        acc: dict[int, int] = {}
        for w in norm_words(text):
            bs = cache.get(w)
            if bs is None:
                h = hashlib.md5(w.encode()).hexdigest()
                bs = cache[w] = (int(h[:8], 16) % n_buckets,
                                 1 if int(h[8], 16) % 2 == 0 else -1)
            acc[bs[0]] = acc.get(bs[0], 0) + bs[1]
        for b in sorted(acc):
            if acc[b]:
                out_d.append(did)
                out_b.append(b)
                out_w.append(acc[b])
    return pa.table({"doc_id": pa.array(out_d, pa.int64()),
                     "bucket": pa.array(out_b, pa.int64()),
                     "weight": pa.array(out_w, pa.int64())})


def zscore_lengths(docs_ds):
    """Group-wise normalization — per-lang z-score of document length
    (the feature-scaling pass a curation mix needs before combining
    per-source signals): moments are exact INT64 partial sums
    (n, sum, sum-of-squares) folded map-side, so the exchange is
    3 integers per (lang, block); the final z uses one fixed IEEE
    expression tree — mu = s/n; v = ss/n - mu*mu; z = round((x - mu)
    / sqrt(v), 6) — evaluated identically by the SQL mirror, with
    z = 0 pinned when the group is constant (v = 0). Output
    (doc_id, lang, n_chars, z). Exact SQL mirror: "zscore_lengths"."""
    import ray

    def partial(b: pa.Table) -> pa.Table:
        x = pc.cast(b["n_chars"], pa.int64())
        t = pa.table({"lang": b["lang"], "n": pa.array(
            np.ones(len(b), np.int64)), "s": x,
            "ss": pc.multiply(x, x)})
        return t.group_by(["lang"]).aggregate(
            [("n", "sum"), ("s", "sum"), ("ss", "sum")])

    parts = docs_ds.select_columns(["lang", "n_chars"]) \
        .map_batches(partial, batch_format="pyarrow").take_all()
    mom: dict[str, list[int]] = {}
    for r in parts:
        m = mom.setdefault(r["lang"], [0, 0, 0])
        m[0] += int(r["n_sum"])
        m[1] += int(r["s_sum"])
        m[2] += int(r["ss_sum"])
    broadcast = ray.put(mom)

    def score(b: pa.Table) -> pa.Table:
        moms = ray.get(broadcast)
        d = pc.dictionary_encode(b["lang"])
        if isinstance(d, pa.ChunkedArray):
            d = d.combine_chunks()
        idx = d.indices.to_numpy(zero_copy_only=False)
        x = pc.cast(b["n_chars"], pa.float64()) \
            .to_numpy(zero_copy_only=False)
        z = np.zeros(len(idx), np.float64)
        for j, lang in enumerate(d.dictionary.to_pylist()):
            n, s, ss = moms[lang]
            mu = s / n
            v = ss / n - mu * mu
            if v > 0:
                m = idx == j
                z[m] = np.round((x[m] - mu) / np.sqrt(v), 6)
        return pa.table({
            "doc_id": pc.cast(b["doc_id"], pa.int64()),
            "lang": b["lang"],
            "n_chars": pc.cast(b["n_chars"], pa.int64()),
            "z": pa.array(z, pa.float64()),
        })

    return docs_ds.select_columns(["doc_id", "lang", "n_chars"]) \
        .map_batches(score, batch_format="pyarrow")


REDACT_TERMS = ("customer", "vector")
_REDACT_RE = re.compile(r"\b(" + "|".join(REDACT_TERMS) + r")\b")


def redact_batch(batch: pa.Table) -> pa.Table:
    """Dictionary-based redaction — the GDPR blocklist scrub (same
    family as stages/anonymize's host pseudonymization, but over the
    corpus): whole-word blocklist hits are replaced by <REDACTED>;
    per-doc hit count plus the md5 of the scrubbed text (never the
    text itself) ride the output, so the audit table stays narrow.
    The regex is compiled once at import (per worker process); the op
    is map-only — the blocklist is part of the plan, no exchange at
    any scale. Exact SQL mirror: "redact_terms"."""
    texts = batch["text"].to_pylist()
    n_hits = [len(_REDACT_RE.findall(t)) for t in texts]
    scrubbed = [_REDACT_RE.sub("<REDACTED>", t) for t in texts]
    return pa.table({
        "doc_id": pc.cast(batch["doc_id"], pa.int64()),
        "n_hits": pa.array(n_hits, pa.int64()),
        "scrub_md5": pa.array(
            [hashlib.md5(s.encode()).hexdigest() for s in scrubbed],
            pa.string()),
    })


TREND_DAY_US = 86_400_000_000


def trending_terms(ds, k: int = 5):
    """Per-day top-k terms — the "trending" board every log/telemetry
    console renders (and the per-window heavy-hitter view behind
    burst-topic detection in training-data curation).

    Exact, bounded shape: per-batch (day, term) partial counts →
    (day, term)-keyed shuffle combine (each pair's TOTAL lives in one
    block after the combine, so per-block per-day top-k partials are
    exact) → driver merge of ≤ days × blocks × k partial rows (days
    are bounded by the time range, never by corpus size). Tie-break
    (n DESC, term ASC) is shared with the SQL mirror.

    Output: (d, rank, term, n) with rank 1..k per day."""
    import numpy as np

    from ..stages.agg import grouped_count

    def explode(batch: pa.Table) -> pa.Table:
        days_out: list[int] = []
        terms: list[str] = []
        us = pc.cast(pc.cast(batch["ts"], pa.timestamp("us")),
                     pa.int64()).to_numpy(zero_copy_only=False)
        for d, t in zip(us // TREND_DAY_US, batch["text"].to_pylist()):
            ws = norm_words(t)
            terms.extend(ws)
            days_out.extend([int(d)] * len(ws))
        return pa.table({"d": pa.array(days_out, pa.int64()),
                         "term": pa.array(terms, pa.string())})

    counts = grouped_count(ds.map_batches(explode, batch_format="pyarrow"),
                           ["d", "term"], combine="shuffle")

    def block_topk(batch: pa.Table) -> pa.Table:
        d = np.asarray(batch["d"].to_pylist(), dtype=np.int64)
        n = np.asarray(batch["n"].to_pylist(), dtype=np.int64)
        terms = np.asarray(batch["term"].to_pylist(), dtype=object)
        order = np.lexsort((terms, -n, d))
        d_s, n_s, t_s = d[order], n[order], terms[order]
        # first k rows of each day run
        starts = np.ones(len(d_s), dtype=bool)
        if len(d_s) > 1:
            starts[1:] = d_s[1:] != d_s[:-1]
        pos = np.arange(len(d_s)) - \
            np.repeat(np.flatnonzero(starts),
                      np.diff(np.append(np.flatnonzero(starts), len(d_s))))
        keep = pos < k
        return pa.table({"d": pa.array(d_s[keep], pa.int64()),
                         "term": pa.array(list(t_s[keep]), pa.string()),
                         "n": pa.array(n_s[keep], pa.int64())})

    best: dict[int, list[tuple[int, str]]] = {}
    for b in (counts.map_batches(block_topk, batch_format="pyarrow")
              .iter_batches(batch_format="pyarrow")):
        for r in b.to_pylist():
            best.setdefault(r["d"], []).append((-r["n"], r["term"]))
    out_d, out_r, out_t, out_n = [], [], [], []
    for d in sorted(best):
        for i, (neg_n, t) in enumerate(sorted(best[d])[:k]):
            out_d.append(d)
            out_r.append(i + 1)
            out_t.append(t)
            out_n.append(-neg_n)
    return pa.table({"d": pa.array(out_d, pa.int64()),
                     "rank": pa.array(out_r, pa.int64()),
                     "term": pa.array(out_t, pa.string()),
                     "n": pa.array(out_n, pa.int64())})


MELT_METRICS = ("n_chars", "n_tokens", "n_words", "punct_ratio",
                "stop_ratio", "quality")


def melt_stats(ds):
    """UNPIVOT / melt — the wide→long reshape every feature store and
    metrics warehouse applies before storage: the per-doc quality stats
    become (doc_id, metric, value) rows, one per metric. Map-only
    (the reshape is per-row; no exchange at all), so it streams at any
    scale; integer metrics are cast to float64 so one value column
    carries all six."""

    def melt(batch: pa.Table) -> pa.Table:
        s = text_stats_batch(batch)
        parts = []
        for m in MELT_METRICS:
            parts.append(pa.table({
                "doc_id": s["doc_id"],
                "metric": pa.array([m] * s.num_rows, pa.string()),
                "value": pc.cast(s[m], pa.float64()),
            }))
        return pa.concat_tables(parts)

    return ds.map_batches(melt, batch_format="pyarrow")
