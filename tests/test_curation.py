"""Curation operators (functions/curation.py) and template mining
(functions/templates.py)."""

from __future__ import annotations

import hashlib

import pyarrow as pa

from skewer_ray.functions.templates import MASK_RULES, mask_templates

SF = "/root/testdata/sf0.001"


# ---------------------------------------------------------------------------
# template mining
# ---------------------------------------------------------------------------

def test_mask_templates_collapses_variables():
    col = pa.array([
        '2026-01-02T03:04:05.123Z GET "/api/v1/users/42" took 17ms',
        '2026-03-04 05:06:07+01:00 GET "/api/v2/users/9000" took 3ms',
        "Jan  2 15:04:05 host sshd[123]: session deadbeef01 opened",
    ])
    out = mask_templates(col).to_pylist()
    assert out[0] == out[1] == "<TS> GET <STR> took <N>ms"
    assert out[2] == "<TS> host sshd[<N>]: session <HEX> opened"


def test_hex_mask_requires_a_letter():
    """Pure digit runs must stay <N> regardless of length — epoch
    timestamps and 8+-digit counters must not fragment into <HEX>."""
    col = pa.array([
        "ts=1734567890 id 12345678 x deadbeef01",
        "took 1234567ms and 12345678ms",
        "mixed 12ab34cd99 short cafe beef",
    ])
    out = mask_templates(col).to_pylist()
    assert out[0] == "ts=<N> id <N> x <HEX>"
    assert out[1] == "took <N>ms and <N>ms"
    assert out[2] == "mixed <HEX> short cafe beef"


def test_mask_rules_are_re2_and_ordered():
    # every rule must compile under RE2 semantics in DuckDB too —
    # checked by the oracle; here: stable order and no backrefs
    for pat, _ in MASK_RULES:
        assert "\\1" not in pat and "(?P<" not in pat


def test_log_templates_counts(ray_session):
    from skewer_ray.pipelines.queries import q_log_templates
    t = q_log_templates(SF)  # pyarrow Table (tiny driver-side merge)
    total = sum(t["n"].to_pylist())
    assert total > 0
    # masking collapses the space: far fewer templates than lines
    assert t.num_rows < total / 2


# ---------------------------------------------------------------------------
# curation
# ---------------------------------------------------------------------------

def test_sample_docs_is_deterministic_membership(ray_session):
    from skewer_ray.functions.curation import SAMPLE_PREFIX
    from skewer_ray.pipelines.corpus import q_sample_docs
    ids = sorted(r["doc_id"] for r in q_sample_docs(SF).take_all())
    assert ids == sorted(set(ids))
    for d in ids[:50]:
        assert hashlib.md5(str(d).encode()).digest()[0] < SAMPLE_PREFIX
    # roughly keep_below/256 of the corpus (loose bound: 2x either way)
    import ray.data as rd
    n = rd.read_parquet(f"{SF}/documents.parquet").count()
    frac = len(ids) / n
    assert 0.5 * SAMPLE_PREFIX / 256 < frac < 2.0 * SAMPLE_PREFIX / 256


def test_cap_per_group_exact_vs_sort(ray_session):
    """Two-phase top-K equals the naive global sort-then-rank answer."""
    import ray.data as rd

    from skewer_ray.functions.curation import cap_per_group
    ds = rd.read_parquet(f"{SF}/documents.parquet",
                         columns=["doc_id", "lang", "source"])
    got = {(r["source"], r["doc_id"])
           for r in cap_per_group(ds, k=7).take_all()}
    df = ds.to_pandas()
    want = set()
    for src, sub in df.groupby("source"):
        for d in sorted(sub["doc_id"])[:7]:
            want.add((src, d))
    assert got == want


def test_chunk_docs_covers_text(ray_session):
    """Chunks reassemble the original text: stride < size overlap."""
    import ray.data as rd

    from skewer_ray.functions.curation import chunk_docs
    ds = rd.read_parquet(f"{SF}/documents.parquet",
                         columns=["doc_id", "text"])
    docs = {r["doc_id"]: r["text"] for r in ds.take_all()}
    out = chunk_docs(ds).take_all()
    by_doc: dict[int, list] = {}
    for r in out:
        by_doc.setdefault(r["doc_id"], []).append((r["chunk_idx"], r["chunk"]))
    for d, text in docs.items():
        if not text:
            assert d not in by_doc
            continue
        chunks = sorted(by_doc[d])
        # contiguous indices from 0; each chunk matches its slice
        assert [i for i, _ in chunks] == list(range(len(chunks)))
        for i, c in chunks:
            assert c == text[i * 150:i * 150 + 200]
        # final chunk reaches the end of the document
        last_i = chunks[-1][0]
        assert last_i * 150 + len(chunks[-1][1]) == len(text)


def test_repetition_signals_brute_force(ray_session):
    """dup-3-gram fraction and top-word share vs a direct recompute,
    plus hand cases: fully repetitive vs all-unique text."""
    import pyarrow as pa
    from collections import Counter

    from skewer_ray.functions.textstats import norm_words, repetition_batch

    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array([
            "spam spam spam spam spam spam",   # one distinct 3-gram
            "one two three four five six",     # all unique
            "ab",                              # <3 words
            "",                                # empty
        ]),
    })
    out = {r["doc_id"]: r for r in repetition_batch(tbl).to_pylist()}
    assert out[1]["dup_3gram_frac"] == round(3 / 4, 6)  # 4 occ, 1 uniq
    assert out[1]["top_word_frac"] == 1.0
    assert out[2]["dup_3gram_frac"] == 0.0
    assert out[2]["top_word_frac"] == round(1 / 6, 6)
    assert out[3]["dup_3gram_frac"] == 0.0 and out[3]["top_word_frac"] == 1.0
    assert out[4]["dup_3gram_frac"] == 0.0 and out[4]["top_word_frac"] == 0.0

    import ray.data as rd
    ds = rd.read_parquet(f"{SF}/documents.parquet",
                         columns=["doc_id", "text"])
    docs = {r["doc_id"]: r["text"] for r in ds.take_all()}
    got = {r["doc_id"]: r
           for r in ds.map_batches(repetition_batch,
                                   batch_format="pyarrow").take_all()}
    for d in list(docs)[:30]:
        w = norm_words(docs[d])
        total = max(0, len(w) - 2)
        sh = Counter(" ".join(w[i:i + 3]) for i in range(total))
        want = round((total - len(sh)) / total, 6) if total else 0.0
        assert got[d]["dup_3gram_frac"] == want


def test_kmv_estimate_tracks_exact_distinct(ray_session):
    """KMV estimate within the ±1/sqrt(k) band of the true vocabulary
    size; lossless when distinct < k."""
    import ray.data as rd

    from skewer_ray.functions.sketches import kmv_distinct_terms
    from skewer_ray.functions.textstats import norm_words
    ds = rd.read_parquet(f"{SF}/documents.parquet",
                         columns=["doc_id", "text"])
    vocab = set()
    for r in ds.take_all():
        vocab.update(norm_words(r["text"]))
    t = kmv_distinct_terms(ds).to_pylist()[0]
    if t["n_hashes"] < t["k"]:
        assert t["estimate"] == float(len(vocab))  # lossless regime
    else:
        rel = abs(t["estimate"] - len(vocab)) / len(vocab)
        assert rel < 3 / (t["k"] ** 0.5)  # 3 sigma of the KMV error


# ---------------------------------------------------------------------------
# sequence packing
# ---------------------------------------------------------------------------

def test_pack_sequences_matches_serial_scan(ray_session):
    """The segmented distributed scan equals a single-process
    concat-and-cut recomputation, even with tiny buckets that force
    packs to straddle segment boundaries."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from skewer_ray.functions.curation import pack_sequences
    from skewer_ray.functions.textstats import norm_words

    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "text"])
    rows = sorted(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))
    budget = 97          # deliberately not a divisor of anything
    expect: dict[int, list] = {}
    cum = 0
    for doc_id, text in rows:
        toks = len(norm_words(text))
        pid = cum // budget
        a = expect.setdefault(pid, [0, 0, doc_id, doc_id])
        a[0] += 1
        a[1] += toks
        a[3] = doc_id
        cum += toks

    ds = rd.read_parquet(f"{SF}/documents.parquet",
                         columns=["doc_id", "text"])
    got = pack_sequences(ds, max_key=rows[-1][0], budget=budget,
                         n_buckets=7).take_all()
    assert len(got) == len(expect)
    for r in got:
        e = expect[r["pack_id"]]
        assert [r["n_docs"], r["tokens"], r["first_doc"],
                r["last_doc"]] == e
    # every document is packed exactly once
    assert sum(r["n_docs"] for r in got) == len(rows)


def test_rank_docs_matches_driver_sort(ray_session):
    """Histogram-offset + in-cell numbering ≡ a plain global sort:
    ranks are the 1..N permutation of (quality DESC, doc_id ASC)."""
    import ray.data as rd
    from skewer_ray.functions.curation import rank_docs

    docs = rd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "text"])
    got = rank_docs(docs).to_pandas()
    n = len(got)
    assert sorted(got["rnk"]) == list(range(1, n + 1))
    want = got.sort_values(["quality", "doc_id"],
                           ascending=[False, True])
    assert list(want["rnk"]) == list(range(1, n + 1))


def test_rebalance_mix_binding_stratum_and_rates(ray_session):
    """The binding stratum (min count/weight) is kept whole; every other
    language's keep-rate equals the exact rational w_i·n_m/(w_m·n_i);
    membership matches the md5 rule row-for-row."""
    import hashlib as hl
    import ray.data as rd
    from skewer_ray.functions.curation import MIX_TARGETS, rebalance_mix

    docs = rd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "lang", "source"])
    src = docs.to_pandas()
    counts = src["lang"].value_counts().to_dict()
    items = [(l, counts[l], w) for l, w in sorted(MIX_TARGETS.items())
             if counts.get(l)]
    ml, mn, mw = items[0]
    for lang, n, w in items[1:]:
        if n * mw < mn * w:
            ml, mn, mw = lang, n, w

    got = rebalance_mix(docs).to_pandas()
    got_ids = set(got["doc_id"])
    # binding stratum survives in full
    binding = set(src.loc[src["lang"] == ml, "doc_id"])
    assert binding <= got_ids
    # row-for-row md5 rule parity
    for _, r in src.iterrows():
        lang = r["lang"]
        rule = next(((n, w) for l, n, w in items if l == lang), None)
        if rule is None:
            assert r["doc_id"] not in got_ids
            continue
        n, w = rule
        h = int.from_bytes(
            hl.md5(str(r["doc_id"]).encode()).digest()[:8], "big")
        assert (r["doc_id"] in got_ids) == (h * mw * n < (1 << 64) * w * mn)


def test_weighted_sample_rule_and_rate(ray_session):
    """Membership equals the per-row md5 coin; the realized keep-rate
    tracks mean quality (binomial ±5σ)."""
    import hashlib as hl
    import ray.data as rd
    from skewer_ray.functions.curation import weighted_sample_docs
    from skewer_ray.functions.textstats import text_stats_batch

    docs = rd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "text"])
    import pyarrow.parquet as pq
    src = text_stats_batch(pq.read_table(f"{SF}/documents.parquet",
                                         columns=["doc_id", "text"]))
    got = set(weighted_sample_docs(docs).to_pandas()["doc_id"])
    quals = dict(zip(src["doc_id"].to_pylist(),
                     src["quality"].to_pylist()))
    for i, q in quals.items():
        h = int.from_bytes(hl.md5(str(i).encode()).digest()[:8], "big")
        assert (i in got) == (h < int(q * float(1 << 64)))
    n, mean_q = len(quals), sum(quals.values()) / len(quals)
    sigma = (n * mean_q * (1 - mean_q)) ** 0.5
    assert abs(len(got) - n * mean_q) < 5 * sigma


def test_holdout_split_covers_and_is_conv_pure(ray_session):
    """Splits partition all turns; every conversation maps to exactly
    one split; totals agree with a direct computation."""
    import hashlib as hl
    from skewer_ray.pipelines.flagship import read_transcripts
    from skewer_ray.pipelines.queries import q_holdout_split

    got = {r["split"]: (r["n_convs"], r["n_turns"])
           for r in q_holdout_split(SF).to_pylist()}
    src = read_transcripts(SF).to_pandas()

    def split_of(c):
        b = hl.md5(c.encode()).digest()[0]
        return "train" if b < 244 else "val" if b < 250 else "test"

    src["split"] = src["conv_id"].map(split_of)
    want = src.groupby("split").agg(
        n_convs=("conv_id", "nunique"), n_turns=("conv_id", "size"))
    assert got == {s: (r["n_convs"], r["n_turns"])
                   for s, r in want.iterrows()}
    assert sum(v[1] for v in got.values()) == len(src)


def test_curate_docs_composition(ray_session):
    """The composed flagship must agree stage-by-stage with the
    standalone operators it chains."""
    import ray.data as rd
    from skewer_ray.functions.curation import curate_docs, quality_filter_docs, rebalance_mix
    from skewer_ray.functions.dedup import exact_dedup

    sf = "/root/testdata/sf0.001"
    docs = rd.read_parquet(f"{sf}/documents.parquet",
                           columns=["doc_id", "text", "lang"])
    got = sorted((r["doc_id"], r["lang"])
                 for r in curate_docs(docs).take_all())

    # stepwise: gate ids → dedup keeps within gate → rebalance filter
    gate_ids = {r["doc_id"] for r in quality_filter_docs(docs).take_all()}
    gated_docs = docs.filter(lambda r: r["doc_id"] in gate_ids)
    keeps = {r["keep_id"] for r in exact_dedup(gated_docs).take_all()}
    survivors = docs.filter(lambda r: r["doc_id"] in keeps)
    want = sorted((r["doc_id"], r["lang"])
                  for r in rebalance_mix(survivors,
                                         cols=("doc_id", "lang")).take_all())
    assert got == want
    assert len(got) == len({d for d, _ in got})  # unique keys


def test_gopher_rules_brute_force(ray_session):
    """Every flag equals the serial per-doc recomputation of the rule
    (exact integer comparisons — no tolerance)."""
    import re

    import pyarrow.parquet as pq
    import ray.data as rd
    from skewer_ray.functions.textstats import (EN_STOP,
                                                gopher_rules_batch,
                                                norm_words)

    docs = rd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "text"])
    got = docs.map_batches(gopher_rules_batch,
                           batch_format="pyarrow").to_pandas()
    got = got.set_index("doc_id")
    src = pq.read_table(f"{SF}/documents.parquet",
                        columns=["doc_id", "text"]).to_pylist()
    alpha = re.compile(r"[a-z]")
    assert len(got) == len(src)
    for r in src:
        ws = norm_words(r["text"])
        n = len(ws)
        wl = sum(len(w) for w in ws)
        nsym = r["text"].count("#") + r["text"].count("...")
        nalpha = sum(1 for w in ws if alpha.search(w))
        nstop = len(set(EN_STOP) & set(ws))
        g = got.loc[r["doc_id"]]
        assert g["n_words"] == n
        assert g["r_words"] == int(50 <= n <= 100_000)
        assert g["r_wlen"] == int(n > 0 and 3 * n <= wl <= 10 * n)
        assert g["r_symbol"] == int(10 * nsym <= n)
        assert g["r_alpha"] == int(5 * nalpha >= 4 * n)
        assert g["r_stop"] == int(nstop >= 2)
        assert g["keep"] == (g["r_words"] & g["r_wlen"] & g["r_symbol"]
                             & g["r_alpha"] & g["r_stop"])


def test_mixture_sample_coin_and_binding(ray_session):
    """The smallest stratum survives whole (rate 1); every row's
    membership equals the square-root-free integer coin; realized
    rates track sqrt(n_min/n_s) (binomial ±5σ)."""
    import hashlib as hl

    import ray.data as rd
    from skewer_ray.functions.curation import mixture_sample

    docs = rd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "lang", "source"])
    src = docs.to_pandas()
    counts = src["lang"].value_counts().to_dict()
    n_min = min(counts.values())
    got = set(mixture_sample(docs).to_pandas()["doc_id"])
    binding = min(counts, key=lambda lg: (counts[lg], lg))
    assert set(src.loc[src["lang"] == binding, "doc_id"]) <= got
    for _, r in src.iterrows():
        u = int(hl.md5(str(r["doc_id"]).encode()).hexdigest()[:8], 16)
        keep = u * u * counts[r["lang"]] < (n_min << 64)
        assert (r["doc_id"] in got) == keep
    for lang, n in counts.items():
        rate = (n_min / n) ** 0.5
        k = sum(1 for _, r in src.iterrows()
                if r["lang"] == lang and r["doc_id"] in got)
        sigma = max(1.0, (n * rate * (1 - rate)) ** 0.5)
        assert abs(k - n * rate) <= 5 * sigma


def test_token_budget_select_matches_serial(ray_session):
    """The distributed histogram + boundary-cell prefix scan selects
    exactly the serial (quality DESC, doc_id) cumsum prefix."""
    import pyarrow.parquet as pq
    import ray.data as rd
    from skewer_ray.functions.curation import token_budget_select
    from skewer_ray.functions.textstats import text_stats_batch

    docs = rd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "text"])
    got = token_budget_select(docs).to_pandas()
    s = text_stats_batch(pq.read_table(
        f"{SF}/documents.parquet", columns=["doc_id", "text"]))
    import math
    rows = [(int(math.floor(q * 10000)), d, n) for d, n, q in
            zip(s["doc_id"].to_pylist(), s["n_words"].to_pylist(),
                s["quality"].to_pylist())]
    rows.sort(key=lambda r: (-r[0], r[1]))
    budget = sum(n for _, _, n in rows) // 4
    want, cum = {}, 0
    for qk, d, n in rows:
        if cum < budget:
            want[d] = (qk, n)
        cum += n
    assert dict(zip(got["doc_id"],
                    zip(got["qk"], got["n_words"]))) == want
    assert 0 < len(want) < len(rows)


def test_bm25_matches_serial(ray_session):
    """Per-(doc, term) scores equal the serial BM25 with the same
    expression tree; rows exist exactly where tf > 0."""
    import math

    import pyarrow.parquet as pq
    import ray.data as rd
    from skewer_ray.functions.textstats import (BM25_TERMS, bm25_scores,
                                                norm_words)

    docs = rd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "text"])
    got = bm25_scores(docs).to_pandas()
    src = pq.read_table(f"{SF}/documents.parquet",
                        columns=["doc_id", "text"]).to_pylist()
    words = {r["doc_id"]: norm_words(r["text"]) for r in src}
    nd = float(len(src))
    tw = sum(len(w) for w in words.values())
    avgdl = tw / nd
    df = {t: sum(1 for w in words.values() if t in w)
          for t in BM25_TERMS}
    want = {}
    for d, ws in words.items():
        dl = len(ws)
        for t in BM25_TERMS:
            if df[t] == 0:
                continue
            tf = ws.count(t)
            if tf:
                idf = math.log((nd - df[t] + 0.5) / (df[t] + 0.5) + 1.0)
                want[(d, t)] = (tf, round(
                    idf * (tf * 2.2)
                    / (tf + 1.2 * (0.25 + 0.75 * (dl / avgdl))), 6))
    have = {(r.doc_id, r.term): (r.tf, r.score)
            for r in got.itertuples()}
    assert have == want
    assert len(want) > 0
