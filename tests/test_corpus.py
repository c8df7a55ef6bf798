"""Training-data corpus operators: dedup family, similarity search,
text analysis, multimodal plumbing (skewer_ray.functions)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from skewer_ray.functions.dedup import (band_keys, minhash_sigs,
                                        shingles_of, simhash60)
from skewer_ray.functions.textstats import norm_words, tokens_of

SF = "/root/testdata/sf0.001"


# ---------------------------------------------------------------------------
# pure-function units
# ---------------------------------------------------------------------------

def test_shingles_and_minhash_deterministic():
    s = shingles_of("a b c d")
    assert s == {"a b c", "b c d"}
    sigs = minhash_sigs(s)
    assert len(sigs) == 16 and sigs == minhash_sigs(s)
    assert len(band_keys(sigs)) == 4
    # near-identical docs share bands; disjoint docs don't
    s2 = shingles_of("a b c d e")
    assert set(band_keys(minhash_sigs(s))) & set(band_keys(minhash_sigs(s2)))
    s3 = shingles_of("x y z w")
    assert not set(band_keys(minhash_sigs(s))) & set(band_keys(minhash_sigs(s3)))


def test_simhash_close_for_similar_text():
    a = simhash60("the quick brown fox jumps over the lazy dog")
    b = simhash60("the quick brown fox jumps over the lazy cat")
    c = simhash60("completely different words entirely unrelated content")
    assert bin(a ^ b).count("1") < bin(a ^ c).count("1")
    assert 0 <= a < (1 << 60)


def test_tokenizer_and_words():
    assert tokens_of("ab cd, 12") == ["ab", "cd", ",", "12"]
    assert norm_words("  A  b\tC ") == ["a", "b", "c"]
    assert norm_words("") == []


# ---------------------------------------------------------------------------
# dataset-level (small sf)
# ---------------------------------------------------------------------------

def test_minhash_matches_bruteforce_at_high_jaccard(ray_session):
    """LSH with 4 bands of 4 at J≈0.99 must find every brute-force pair,
    and first-band ownership must emit each pair EXACTLY once (a pair
    colliding in several bands is claimed only by its earliest band)."""
    from skewer_ray.pipelines.corpus import q_dedup_minhash, q_dedup_ngram
    lsh_rows = [(r["doc_a"], r["doc_b"])
                for r in q_dedup_minhash(SF).take_all()]
    lsh = set(lsh_rows)
    assert len(lsh_rows) == len(lsh)  # no duplicate emissions
    bf = {(r["doc_a"], r["doc_b"]) for r in q_dedup_ngram(SF).take_all()}
    assert lsh == bf
    assert len(bf) > 0  # the corpus plants near-dup pairs


def test_banded_lsh_multi_band_collisions_emit_once(ray_session):
    """Identical docs collide in EVERY band; first-band ownership must
    still emit each pair exactly once (the case the removed
    (doc_a, doc_b) dedup groupby used to handle) — for both the
    MinHash and the SimHash single-exchange paths."""
    import ray.data as rd
    from skewer_ray.functions.dedup import minhash_lsh_pairs, simhash_pairs

    same = "alpha beta gamma delta epsilon zeta eta theta"
    rows = [{"doc_id": i, "text": same} for i in range(3)]
    rows.append({"doc_id": 99, "text": "totally unrelated words here"})
    ds = rd.from_items(rows)

    mh = [(r["doc_a"], r["doc_b"], r["jaccard"])
          for r in minhash_lsh_pairs(ds).take_all()]
    assert sorted(mh) == [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]

    sh = [(r["doc_a"], r["doc_b"], r["hamming"])
          for r in simhash_pairs(rd.from_items(rows)).take_all()]
    assert sorted(sh) == [(0, 1, 0), (0, 2, 0), (1, 2, 0)]


def test_exact_dedup_accounts_for_every_doc(ray_session):
    from skewer_ray.pipelines.corpus import q_dedup_exact
    rows = q_dedup_exact(SF).take_all()
    assert sum(r["n_copies"] for r in rows) == 500
    for r in rows:
        assert r["keep_id"] >= 0


def test_ivf_full_probe_matches_bruteforce(ray_session):
    """With nprobe = all cells, IVF candidate generation + merge must
    reproduce the exact brute-force top-k bit-for-bit (validates the
    machinery; the synthetic embeddings are isotropic, so a partial
    probe has no recall guarantee to assert against)."""
    import ray.data as rd
    from skewer_ray.functions.similarity import ivf_topk
    from skewer_ray.pipelines.corpus import q_ann_topk
    exact = {(r["query_id"], r["rank"], r["vec_id"], r["cosine"])
             for r in q_ann_topk(SF).take_all()}
    ds = rd.read_parquet(f"{SF}/embeddings.parquet",
                         columns=["vec_id", "embedding", "label"])
    full = {(r["query_id"], r["rank"], r["vec_id"], r["cosine"])
            for r in ivf_topk(ds, list(range(10)), nprobe=10).take_all()}
    assert full == exact


def test_ivf_partial_probe_shape(ray_session):
    from skewer_ray.pipelines.corpus import q_ann_ivf, q_ann_topk
    exact = {(r["query_id"], r["vec_id"]) for r in q_ann_topk(SF).take_all()}
    approx = q_ann_ivf(SF).take_all()
    assert {r["query_id"] for r in approx} == set(range(10))
    pairs = {(r["query_id"], r["vec_id"]) for r in approx}
    # recall is data-dependent on isotropic vectors; just record it
    print(f"ivf nprobe=3 recall: {len(exact & pairs) / len(exact):.2f}")


def test_lsh_topk_shape(ray_session):
    """Random-hyperplane LSH on near-isotropic 64-d data has weak recall
    by construction; assert the plumbing (schema, ≤k per query, scores
    from the real candidate set) rather than a recall bar."""
    from skewer_ray.pipelines.corpus import q_ann_lsh
    rows = q_ann_lsh(SF).take_all()
    per_q = {}
    for r in rows:
        per_q.setdefault(r["query_id"], []).append(r)
        assert -1.0 <= r["cosine"] <= 1.0
    assert all(len(v) <= 5 for v in per_q.values())


def test_ann_topk_ranks(ray_session):
    from skewer_ray.pipelines.corpus import q_ann_topk
    rows = q_ann_topk(SF).take_all()
    by_q = {}
    for r in rows:
        by_q.setdefault(r["query_id"], []).append(r)
    assert len(by_q) == 10
    for q, rs in by_q.items():
        rs.sort(key=lambda r: r["rank"])
        assert [r["rank"] for r in rs] == list(range(1, len(rs) + 1))
        sims = [r["cosine"] for r in rs]
        assert sims == sorted(sims, reverse=True)
        assert q not in {r["vec_id"] for r in rs}  # self excluded


def test_media_stage_plumbing(ray_session):
    from skewer_ray.functions.media import _image_pixels
    from skewer_ray.pipelines.corpus import q_media_features
    rows = q_media_features(SF).take_all()
    assert len(rows) == 500
    for r in rows[:20]:
        assert r["media_type"] in ("image", "audio", "video")
        assert (r["duration_ms"] == 0) == (r["media_type"] == "image")
        if r["media_type"] == "image":
            # features come from REALLY decoded PNG pixels
            px = _image_pixels(r["doc_id"])
            assert (r["height"], r["width"], r["channels"]) == px.shape
            assert r["px_sum"] == int(px.sum())
        elif r["media_type"] == "audio":
            from skewer_ray.functions.media import _audio_samples
            assert r["duration_ms"] == len(_audio_samples(r["doc_id"])) // 8


def test_frame_sampling_1_to_n(ray_session):
    """Video rows expand to exactly 4 distinct, ordered frame rows;
    first and last frames always sampled; non-video rows emit none."""
    from skewer_ray.functions.media import FrameSampleStage
    from skewer_ray.pipelines.corpus import q_media_frames
    rows = q_media_frames(SF).take_all()
    by_doc: dict[int, list] = {}
    for r in rows:
        by_doc.setdefault(r["doc_id"], []).append(r)
    assert all(d % 3 == 2 for d in by_doc)       # video docs only
    assert len(rows) == 4 * len(by_doc)
    for d, fr in list(by_doc.items())[:20]:
        idxs = sorted(r["frame_idx"] for r in fr)
        assert len(set(idxs)) == 4 and idxs[0] == 0
        nf_min = idxs[-1] + 1                    # last frame = nf-1
        assert 8 <= nf_min <= 32
        for r in fr:
            assert r["frame_ts_ms"] == r["frame_idx"] * 100
            assert 0 <= r["brightness"] <= 255


def test_embedding_pairs_symmetric_free(ray_session):
    from skewer_ray.pipelines.corpus import q_dedup_embedding
    rows = q_dedup_embedding(SF).take_all()
    seen = set()
    for r in rows:
        assert r["vec_a"] < r["vec_b"]
        assert (r["vec_a"], r["vec_b"]) not in seen
        seen.add((r["vec_a"], r["vec_b"]))
        assert r["cosine"] >= 0.45


def test_dedup_filter_drops_pair_members(ray_session):
    from skewer_ray.pipelines.corpus import (q_dedup_filtered_docs,
                                             q_dedup_minhash)
    pairs = q_dedup_minhash(SF).take_all()
    kept = {r["doc_id"] for r in q_dedup_filtered_docs(SF).take_all()}
    for p in pairs:
        assert p["doc_a"] in kept or p["doc_a"] in {x["doc_b"] for x in pairs}
        assert p["doc_b"] not in kept
    assert len(kept) == 500 - len({p["doc_b"] for p in pairs})


def test_tumbling_and_sessions(ray_session):
    import pyarrow.parquet as pq
    from skewer_ray.pipelines.corpus import (q_events_sessions,
                                             q_events_tumbling)
    n_events = pq.ParquetFile(f"{SF}/events.parquet").metadata.num_rows
    wins = q_events_tumbling(SF).to_pylist()  # driver-combined pa.Table
    assert sum(r["n"] for r in wins) == n_events
    for r in wins[:10]:
        assert r["window_start"].minute == 0 and r["window_start"].second == 0
    sess = q_events_sessions(SF).take_all()
    assert sum(r["n_events"] for r in sess) == n_events
    for r in sess:
        assert 1 <= r["n_sessions"] <= r["n_events"]


def test_dedup_clusters_transitive(ray_session):
    from skewer_ray.pipelines.corpus import q_dedup_clusters, q_dedup_minhash
    pairs = [(r["doc_a"], r["doc_b"]) for r in q_dedup_minhash(SF).take_all()]
    t = q_dedup_clusters(SF).to_pandas()
    rep = dict(zip(t["doc_id"], t["cluster_rep"]))
    for a, b in pairs:
        assert rep[a] == rep[b]            # pair members share a cluster
        assert rep[a] <= a and rep[a] <= b  # rep is the component min
    assert set(rep) == {d for p in pairs for d in p}


def test_connected_components_matches_unionfind(ray_session):
    """Distributed min-label propagation ≡ driver union-find, on a graph
    with deep chains (diameter 8 → several propagation rounds), a star,
    an isolated edge, and cross-links."""
    import random
    import ray.data as rd
    from skewer_ray.functions.dedup import connected_components

    rng = random.Random(7)
    edges = []
    # three chains of length 9 with shuffled ids
    ids = rng.sample(range(1000), 60)
    for c in range(3):
        chain = ids[c * 9:(c + 1) * 9]
        edges += list(zip(chain, chain[1:]))
    # a star
    hub, *leaves = ids[30:40]
    edges += [(hub, lv) for lv in leaves]
    # isolated edge + a cross-link merging chain 0 and the star
    edges.append((ids[50], ids[51]))
    edges.append((ids[2], hub))
    rng.shuffle(edges)

    parent: dict[int, int] = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = sorted((ra, rb))
            parent[hi] = lo
    want = {n: find(n) for n in parent}

    pairs = rd.from_arrow(pa.table({
        "doc_a": pa.array([a for a, _ in edges], pa.int64()),
        "doc_b": pa.array([b for _, b in edges], pa.int64())}))
    # both planner paths must be byte-identical to union-find
    for small_max in (0, 1 << 30):   # 0 → distributed rounds; big → driver
        got_df = connected_components(
            pairs, small_graph_max=small_max).to_pandas()
        got = dict(zip(got_df["doc_id"], got_df["cluster_rep"]))
        assert got == want, f"small_graph_max={small_max}"


def test_connected_components_empty(ray_session):
    import ray.data as rd
    from skewer_ray.functions.dedup import connected_components
    pairs = rd.from_arrow(pa.table({
        "doc_a": pa.array([], pa.int64()),
        "doc_b": pa.array([], pa.int64())}))
    out = connected_components(pairs)
    assert out.count() == 0
    assert set(out.schema().names) == {"doc_id", "cluster_rep"}


# ---------------------------------------------------------------------------
# bucketed exactness at 10x doc count (VERDICT r01 #2): the shuffle paths
# must reproduce a local brute force bit-for-bit on a bigger corpus
# ---------------------------------------------------------------------------

SF10 = "/root/testdata/sf0.1"


def test_simhash_band_shuffle_exact_at_10x(ray_session):
    """Banded simhash_pairs == local all-pairs popcount on 5000 docs."""
    import ray.data as rd
    from skewer_ray.functions.dedup import simhash_pairs, simhash_signatures

    docs = rd.read_parquet(f"{SF10}/documents.parquet",
                           columns=["doc_id", "text"])
    sig_rows = simhash_signatures(docs).take_all()
    ids = np.array([r["doc_id"] for r in sig_rows], dtype=np.int64)
    sigs = np.array([r["simhash"] for r in sig_rows], dtype=np.int64)
    order = np.argsort(ids)
    ids, sigs = ids[order], sigs[order]
    expect = set()
    for x in range(len(ids)):
        ham = np.zeros(len(sigs) - x - 1, dtype=np.int64)
        v = np.bitwise_xor(sigs[x + 1:], sigs[x])
        while v.any():
            ham += v & 1
            v >>= 1
        for d in np.nonzero(ham <= 3)[0]:
            expect.add((int(ids[x]), int(ids[x + 1 + d])))

    got = {(r["doc_a"], r["doc_b"])
           for r in simhash_pairs(docs).take_all()}
    assert got == expect
    assert len(expect) > 0


def test_embedding_triangle_exact_at_10x(ray_session):
    """Triangle-partitioned cosine pairs == local matmul on 2000 vecs."""
    import pyarrow.parquet as pq
    import ray.data as rd
    from skewer_ray.functions.dedup import embedding_dup_pairs

    t = pq.read_table(f"{SF10}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    ids = np.array(t["vec_id"].to_pylist(), dtype=np.int64)
    mat = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    order = np.argsort(ids)
    ids, mat = ids[order], mat[order]
    sims = np.round(mat @ mat.T, 6)
    xs, ys = np.nonzero(np.triu(sims >= 0.45, k=1))
    expect = {(int(ids[x]), int(ids[y]), float(sims[x, y]))
              for x, y in zip(xs, ys)}

    emb = rd.read_parquet(f"{SF10}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    got = {(r["vec_a"], r["vec_b"], r["cosine"])
           for r in embedding_dup_pairs(emb, threshold=0.45).take_all()}
    assert got == expect
    assert len(expect) > 0


def test_embedding_lsh_pairs_subset_of_exact(ray_session):
    """LSH-bucketed pairs are exactly the exact pairs whose endpoints
    share a hyperplane bucket (no false positives; recall loss only
    from bucket splits), and every pair appears once."""
    import pyarrow.parquet as pq
    import ray.data as rd
    from skewer_ray.functions.dedup import embedding_lsh_pairs
    from skewer_ray.functions.similarity import (LSH_PLANES, LSH_SEED,
                                                 _bucket_of)

    t = pq.read_table(f"{SF10}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    ids = np.array(t["vec_id"].to_pylist(), dtype=np.int64)
    mat = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    planes = np.random.default_rng(LSH_SEED).standard_normal(
        (LSH_PLANES, 64))
    bucket = dict(zip(ids.tolist(), _bucket_of(mat, planes).tolist()))
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    order = np.argsort(ids)
    ids, mat = ids[order], mat[order]
    sims = np.round(mat @ mat.T, 6)
    xs, ys = np.nonzero(np.triu(sims >= 0.45, k=1))
    expect = {(int(ids[x]), int(ids[y]), float(sims[x, y]))
              for x, y in zip(xs, ys)
              if bucket[int(ids[x])] == bucket[int(ids[y])]}

    emb = rd.read_parquet(f"{SF10}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    rows = embedding_lsh_pairs(emb, threshold=0.45).take_all()
    got = {(r["vec_a"], r["vec_b"], r["cosine"]) for r in rows}
    assert got == expect
    assert len(rows) == len(got)          # no duplicate pair rows
    assert len(expect) > 0


def test_hopping_windows_cover_each_event_twice(ray_session):
    """1h windows hopping every 30min: every event lands in exactly 2
    windows, so total hopping count = 2x tumbling count."""
    from skewer_ray.pipelines.corpus import (q_events_hopping,
                                             q_events_tumbling)
    hop = q_events_hopping(SF)
    tum = q_events_tumbling(SF)
    assert sum(hop["n"].to_pylist()) == 2 * sum(tum["n"].to_pylist())
    # hop-aligned starts: 30-minute boundaries
    for ws in hop["window_start"].to_pylist()[:100]:
        assert (ws.minute, ws.second) in ((0, 0), (30, 0))


def test_topk_terms_matches_local_count(ray_session):
    from collections import Counter
    import pyarrow.parquet as pq
    from skewer_ray.functions.textstats import norm_words
    from skewer_ray.pipelines.corpus import q_topk_terms

    t = pq.read_table(f"{SF}/documents.parquet", columns=["text"])
    c = Counter()
    for txt in t["text"].to_pylist():
        c.update(norm_words(txt))
    expect = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:20]
    got = list(zip(q_topk_terms(SF)["term"].to_pylist(),
                   q_topk_terms(SF)["n"].to_pylist()))
    assert got == expect


def test_running_totals_vs_pandas(ray_session):
    """Distributed running sum/lag equals a pandas groupby-cumsum."""
    import pyarrow.parquet as pq
    from skewer_ray.pipelines.corpus import q_events_running
    got = {r["event_id"]: r for r in q_events_running(SF).take_all()}
    df = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_id", "ts", "user_id", "value"]) \
           .to_pandas().sort_values(["user_id", "ts", "event_id"])
    df["cents"] = (df["value"] * 100).round().astype("int64")
    df["run"] = df.groupby("user_id")["cents"].cumsum()
    prev = df.groupby("user_id")["event_id"].shift(1)
    for (_, row), pe in zip(df.iterrows(), prev):
        g = got[row["event_id"]]
        assert abs(g["run_sum"] - round(row["run"] / 100.0, 6)) < 1e-9
        assert g["prev_event"] == (-1 if pe != pe else int(pe))


def test_topn_per_group_vs_bruteforce(ray_session):
    import pyarrow.parquet as pq
    from skewer_ray.pipelines.corpus import q_events_topn
    rows = q_events_topn(SF).to_pylist()
    df = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_id", "event_type", "value"]) \
           .to_pandas()
    for et, grp in df.groupby("event_type"):
        want = sorted(zip(-grp["value"], grp["event_id"]))[:3]
        mine = [(-r["value"], r["event_id"])
                for r in rows if r["event_type"] == et]
        assert sorted(mine) == [(v, int(e)) for v, e in want]
        ranks = sorted(r["rank"] for r in rows if r["event_type"] == et)
        assert ranks == [1, 2, 3]


def test_pivot_and_antijoin_consistent(ray_session):
    """Pivot counts sum to the corpus size; anti-join = pivot users
    minus those with a qualifying purchase."""
    import pyarrow.parquet as pq
    from skewer_ray.pipelines.corpus import (q_events_pivot,
                                             q_users_no_big_purchase)
    n_events = pq.ParquetFile(f"{SF}/events.parquet").metadata.num_rows
    piv = q_events_pivot(SF).take_all()
    total = sum(sum(r[f"n_{t}"] for t in
                    ("click", "error", "purchase", "signup", "view"))
                for r in piv)
    assert total == n_events
    anti = {r["user_id"] for r in q_users_no_big_purchase(SF).take_all()}
    df = pq.read_table(f"{SF}/events.parquet",
                       columns=["user_id", "event_type", "value"]) \
           .to_pandas()
    big = set(df[(df.event_type == "purchase") &
                 (df.value > 100.0)]["user_id"])
    assert anti == set(df["user_id"]) - big


def test_bursts_and_funnel_vs_bruteforce(ray_session):
    import pyarrow.parquet as pq
    from skewer_ray.pipelines.corpus import q_events_bursts, q_events_funnel
    df = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_id", "ts", "user_id",
                                "event_type"]).to_pandas()
    df["us"] = df["ts"].astype("int64")
    got = {r["event_id"]: r["n_prior"]
           for r in q_events_bursts(SF).take_all()}
    lookback = 6 * 3_600_000_000
    for uid, grp in df.groupby("user_id"):
        for _, row in grp.iterrows():
            n = int(((grp["us"] >= row["us"] - lookback) &
                     (grp["us"] < row["us"])).sum())
            if n >= 3:
                assert got[row["event_id"]] == n
            else:
                assert row["event_id"] not in got
    fun = {r["user_id"]: (r["n_then"], r["n_converted"])
           for r in q_events_funnel(SF).take_all()}
    hour = 3_600_000_000
    for uid, grp in df.groupby("user_id"):
        p = grp[grp.event_type == "purchase"]["us"].to_numpy()
        c = grp[grp.event_type == "click"]["us"].to_numpy()
        if len(p) == 0:
            assert uid not in fun
            continue
        conv = sum(1 for t in p if ((c <= t) & (c >= t - hour)).any())
        assert fun[uid] == (len(p), conv)


def test_lang_embedding_stats_accounts_all_vectors(ray_session):
    import pyarrow.parquet as pq
    from skewer_ray.pipelines.corpus import q_lang_embedding_stats
    t = q_lang_embedding_stats(SF)
    n_emb = pq.ParquetFile(f"{SF}/embeddings.parquet").metadata.num_rows
    assert sum(t["n"].to_pylist()) == n_emb
    assert all(v > 0 for v in t["avg_norm"].to_pylist())


def test_range_search_vs_numpy(ray_session):
    import numpy as np
    import pyarrow.parquet as pq
    from skewer_ray.functions.similarity import RANGE_TAU, _norm_rows
    from skewer_ray.pipelines.corpus import ANN_QUERY_IDS, q_ann_range
    t = pq.read_table(f"{SF}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    ids = np.array(t["vec_id"].to_pylist())
    mat = _norm_rows(np.array(t["embedding"].to_pylist(), np.float64))
    qm = mat[np.isin(ids, ANN_QUERY_IDS)]
    qi = ids[np.isin(ids, ANN_QUERY_IDS)]
    cm = mat[~np.isin(ids, ANN_QUERY_IDS)]
    ci = ids[~np.isin(ids, ANN_QUERY_IDS)]
    sims = np.round(qm @ cm.T, 6)
    expect = {(int(qi[a]), int(ci[b]), float(sims[a, b]))
              for a, b in zip(*np.nonzero(sims >= RANGE_TAU))}
    got = {(r["query_id"], r["vec_id"], r["cosine"])
           for r in q_ann_range(SF).take_all()}
    assert got == expect and got


def test_knn_classify_majority_of_bruteforce(ray_session):
    import pyarrow.parquet as pq
    from collections import Counter
    from skewer_ray.pipelines.corpus import (ANN_K, q_ann_topk,
                                             q_knn_classify)
    t = pq.read_table(f"{SF}/embeddings.parquet",
                      columns=["vec_id", "label"])
    lab = dict(zip(t["vec_id"].to_pylist(), t["label"].to_pylist()))
    top: dict[int, list] = {}
    for r in q_ann_topk(SF).take_all():
        top.setdefault(r["query_id"], []).append(lab[r["vec_id"]])
    got = {r["query_id"]: (r["label"], r["votes"])
           for r in q_knn_classify(SF).to_pylist()}
    assert set(got) == set(top)
    for q, labels in top.items():
        c = Counter(labels)
        win = min(c, key=lambda x: (-c[x], x))
        assert got[q] == (win, c[win])
        assert sum(c.values()) <= ANN_K


def test_retention_cohorts_vs_pandas(ray_session):
    import pyarrow.parquet as pq
    from skewer_ray.functions.windows import WEEK_US
    from skewer_ray.pipelines.corpus import q_retention_cohorts
    df = pq.read_table(f"{SF}/events.parquet",
                       columns=["user_id", "ts"]).to_pandas()
    df["week"] = df["ts"].astype("datetime64[us]").astype("int64") // WEEK_US
    uw = df[["user_id", "week"]].drop_duplicates()
    uw["cohort"] = uw.groupby("user_id")["week"].transform("min")
    uw["off"] = uw["week"] - uw["cohort"]
    expect = uw.groupby(["cohort", "off"]).size().to_dict()
    got = {(r["cohort_week"], r["week_offset"]): r["n_users"]
           for r in q_retention_cohorts(SF).to_pylist()}
    assert got == expect
    # every user appears exactly once at offset 0
    assert sum(v for (c, o), v in got.items() if o == 0) \
        == df["user_id"].nunique()


def test_role_transitions_vs_pandas(ray_session):
    import pyarrow.parquet as pq
    from skewer_ray.gen import ensure_transcripts
    from skewer_ray.pipelines.queries import q_role_transitions
    path = ensure_transcripts(SF)
    df = pq.ParquetDataset(path).read(
        columns=["conv_id", "turn_idx", "role"]).to_pandas()
    df = df.sort_values(["conv_id", "turn_idx"])
    prev = df.groupby("conv_id")["role"].shift(1)
    mask = prev.notna()
    expect = (df[mask].assign(from_role=prev[mask])
              .groupby(["from_role", "role"]).size().to_dict())
    got = {(r["from_role"], r["to_role"]): r["n"]
           for r in q_role_transitions(SF).to_pylist()}
    assert got == expect and got


def test_lang_centroid_dist_vs_numpy(ray_session):
    """Centroid distances match a direct numpy computation: per-lang
    mean (rounded 6dp) then L2 distance per vector (rounded 6dp)."""
    import pyarrow.parquet as pq
    from skewer_ray.pipelines.corpus import q_lang_centroid_dist

    emb = pq.read_table(f"{SF}/embeddings.parquet",
                        columns=["vec_id", "embedding"])
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "lang"])
    lang_of = dict(zip(docs["doc_id"].to_pylist(),
                       docs["lang"].to_pylist()))
    ids = emb["vec_id"].to_pylist()
    mat = np.array(emb["embedding"].to_pylist(), dtype=np.float64)
    langs = np.asarray([lang_of[i] for i in ids])
    cents = {l: np.floor(mat[langs == l].mean(axis=0) * 1e6) / 1e6
             for l in set(langs)}
    want = {i: float(np.sqrt(((v - cents[l]) ** 2).sum()))
            for i, v, l in zip(ids, mat, langs)}

    got = q_lang_centroid_dist(SF).to_pandas()
    assert len(got) == len(ids)
    for _, r in got.iterrows():
        assert abs(r["dist"] - want[r["vec_id"]]) < 1e-9
        assert r["lang"] == lang_of[r["vec_id"]]


def test_inverted_index_vs_bruteforce(ray_session):
    """df counts all docs; postings are the K smallest doc_ids even
    though each batch contributed only a bounded prefix."""
    import pyarrow.parquet as pq
    from skewer_ray.functions.textstats import norm_words
    from skewer_ray.pipelines.corpus import (IDX_MIN_DF, IDX_POSTINGS,
                                             q_inverted_index)

    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "text"])
    full: dict[str, list] = {}
    for d, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        for w in set(norm_words(txt)):
            full.setdefault(w, []).append(d)
    want = {w: (len(ds), ",".join(map(str, sorted(ds)[:IDX_POSTINGS])))
            for w, ds in full.items() if len(ds) >= IDX_MIN_DF}

    got = q_inverted_index(SF).to_pandas()
    assert dict(zip(got["term"],
                    zip(got["df"], got["postings"]))) == want


def test_bigram_lm_vs_bruteforce(ray_session):
    """Bigram counts and ppm conditionals match a direct computation;
    denominators cover ALL of w1's bigrams, not just emitted rows."""
    from collections import Counter

    import pyarrow.parquet as pq
    from skewer_ray.functions.textstats import norm_words
    from skewer_ray.pipelines.corpus import LM_MIN_COUNT, q_bigram_lm

    t = pq.read_table(f"{SF}/documents.parquet", columns=["text"])
    big = Counter()
    for txt in t["text"].to_pylist():
        ws = norm_words(txt)
        big.update(zip(ws[:-1], ws[1:]))
    tot = Counter()
    for (w1, _), n in big.items():
        tot[w1] += n
    want = {(w1, w2): (n, n * 1_000_000 // tot[w1])
            for (w1, w2), n in big.items() if n >= LM_MIN_COUNT}

    got = q_bigram_lm(SF).to_pandas()
    assert {(r.w1, r.w2): (r.n, r.p_ppm)
            for r in got.itertuples()} == want


def test_dup_span_fraction_vs_bruteforce(ray_session):
    """Shared-span counts match a direct cross-doc computation and the
    planted near-dup pairs show high shared fractions."""
    import pyarrow.parquet as pq
    from collections import Counter
    from skewer_ray.pipelines.corpus import SPAN_K, q_dup_span_fraction

    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "text"])
    spans = {}
    for d, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        ws = norm_words(txt)
        if len(ws) >= SPAN_K:
            spans[d] = {" ".join(ws[i:i + SPAN_K])
                        for i in range(len(ws) - SPAN_K + 1)}
    df_count = Counter(g for sh in spans.values() for g in sh)
    got = {r["doc_id"]: (r["n_grams"], r["n_shared"], r["shared_ppm"])
           for r in q_dup_span_fraction(SF).take_all()}
    assert set(got) == set(spans)
    for d, sh in spans.items():
        n_shared = sum(1 for g in sh if df_count[g] >= 2)
        assert got[d] == (len(sh), n_shared,
                          n_shared * 1_000_000 // len(sh))
    assert any(v[2] > 500_000 for v in got.values())  # planted dups


def test_hard_negatives_vs_bruteforce(ray_session):
    """Every mined negative has a different label than its query and
    the ranked lists equal the direct different-label top-k."""
    import pyarrow.parquet as pq
    from skewer_ray.pipelines.corpus import ANN_K, ANN_QUERY_IDS, \
        q_hard_negatives

    t = pq.read_table(f"{SF}/embeddings.parquet",
                      columns=["vec_id", "label", "embedding"])
    ids = np.asarray(t["vec_id"].to_pylist(), np.int64)
    labels = np.asarray(t["label"].to_pylist(), np.int64)
    mat = np.array(t["embedding"].to_pylist(), np.float64)
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    qset = set(ANN_QUERY_IDS)
    cand = np.array([i not in qset for i in ids])
    exp = set()
    for q in ANN_QUERY_IDS:
        qi = np.nonzero(ids == q)[0][0]
        m = cand & (labels != labels[qi])
        sims = np.round(mat[m] @ mat[qi], 6)
        cids = ids[m]
        order = np.lexsort((cids, -sims))[:ANN_K]
        exp |= {(q, r + 1, int(cids[j]), float(sims[j]))
                for r, j in enumerate(order)}
    got = {(r["query_id"], r["rank"], r["vec_id"], r["cosine"])
           for r in q_hard_negatives(SF).take_all()}
    assert got == exp
    lab_of = dict(zip(ids.tolist(), labels.tolist()))
    for q, _, v, _ in got:
        assert lab_of[v] != lab_of[q]


def test_ccnet_buckets_terciles(ray_session):
    """Buckets are score-monotone terciles: every head doc outscores
    (by qk cell) every middle doc, which outscores every tail doc, all
    three are non-empty, and scores match a direct model computation
    on a sample of docs."""
    import pyarrow.parquet as pq
    from collections import Counter
    from skewer_ray.pipelines.corpus import (CCNET_QK_SCALE, LM_MIN_COUNT,
                                             q_ccnet_buckets)

    rows = q_ccnet_buckets(SF).take_all()
    by_bucket = {}
    for r in rows:
        by_bucket.setdefault(r["bucket"], []).append(
            r["fluency_ppm"] // CCNET_QK_SCALE)
    assert set(by_bucket) == {"head", "middle", "tail"}
    assert min(by_bucket["head"]) > max(by_bucket["middle"])
    assert min(by_bucket["middle"]) > max(by_bucket["tail"])

    # direct model recomputation for every doc
    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "text"])
    words = {d: norm_words(txt) for d, txt in
             zip(t["doc_id"].to_pylist(), t["text"].to_pylist())}
    cnt = Counter((a, b) for ws in words.values()
                  for a, b in zip(ws[:-1], ws[1:]))
    tot = Counter()
    for (a, _), n in cnt.items():
        tot[a] += n
    lm = {k: n * 1_000_000 // tot[k[0]] for k, n in cnt.items()
          if n >= LM_MIN_COUNT}
    got = {r["doc_id"]: r["fluency_ppm"] for r in rows}
    for d, ws in words.items():
        if len(ws) < 2:
            assert d not in got
            continue
        s = sum(lm.get((a, b), 0) for a, b in zip(ws[:-1], ws[1:]))
        assert got[d] == s // (len(ws) - 1)


def test_dsir_select_vs_bruteforce(ray_session):
    """Integer-ppm DSIR scores match a direct computation, and the
    target-domain (en) docs score higher on average than the rest."""
    import pyarrow.parquet as pq
    from collections import Counter
    from skewer_ray.functions.curation import DSIR_N_FEAT, _dsir_bucket
    from skewer_ray.pipelines.corpus import q_dsir_select

    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "lang", "text"])
    rows = list(zip(t["doc_id"].to_pylist(), t["lang"].to_pylist(),
                    t["text"].to_pylist()))
    tgt, src = Counter(), Counter()
    buckets = {}
    for d, lg, txt in rows:
        bs = [_dsir_bucket(w) for w in norm_words(txt)]
        buckets[d] = bs
        src.update(bs)
        if lg == "en":
            tgt.update(bs)
    T, S = sum(tgt.values()), sum(src.values())
    ppm = {b: (tgt.get(b, 0) + 1) * 1_000_000 // (T + DSIR_N_FEAT)
              - (src[b] + 1) * 1_000_000 // (S + DSIR_N_FEAT)
           for b in src}
    got = {r["doc_id"]: (r["dsir_score"], r["kept"])
           for r in q_dsir_select(SF).take_all()}
    assert set(got) == {d for d, bs in buckets.items() if bs}
    en_scores, other_scores = [], []
    for d, lg, _ in rows:
        bs = buckets[d]
        if not bs:
            continue
        sc = sum(ppm[b] for b in bs)
        assert got[d] == (sc, 1 if sc > 0 else 0)
        (en_scores if lg == "en" else other_scores).append(sc / len(bs))
    assert (sum(en_scores) / len(en_scores)
            > sum(other_scores) / len(other_scores))


def test_semdedup_vs_bruteforce(ray_session):
    """Within-cluster keep flags match a direct all-pairs check.

    Runs at sf0.01: the sf0.001 slice's planted near-dup pairs all
    straddle labels, so only sf0.01 exercises the removal path (2
    within-label pairs)."""
    import pyarrow.parquet as pq
    from skewer_ray.pipelines.corpus import COSINE_THRESHOLD, q_semdedup

    sf = "/root/testdata/sf0.01"
    t = pq.read_table(f"{sf}/embeddings.parquet",
                      columns=["vec_id", "label", "embedding"])
    ids = np.asarray(t["vec_id"].to_pylist(), np.int64)
    labels = np.asarray(t["label"].to_pylist(), np.int64)
    mat = np.array(t["embedding"].to_pylist(), np.float64)
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    order = np.argsort(ids)
    ids, labels, mat = ids[order], labels[order], mat[order]
    exp = {}
    for lb in np.unique(labels):
        m = labels == lb
        li, lm = ids[m], mat[m]
        sims = np.round(lm @ lm.T, 6)
        dup = np.triu(sims >= COSINE_THRESHOLD, k=1).any(axis=0)
        for v, d in zip(li, dup):
            exp[int(v)] = (int(lb), 0 if d else 1)
    got = {r["vec_id"]: (r["label"], r["kept"])
           for r in q_semdedup(sf).take_all()}
    assert got == exp
    assert sum(1 for _, k in got.values() if k == 0) > 0  # planted dups


def test_dedup_spans_removed_vs_bruteforce(ray_session):
    """Cleaned texts match a direct global-occurrence-count removal,
    and the planted near-dup docs actually lose words."""
    import pyarrow.parquet as pq
    from collections import Counter
    from skewer_ray.pipelines.corpus import SPAN_K, q_dedup_spans_removed

    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "text"])
    words = {d: norm_words(txt) for d, txt in
             zip(t["doc_id"].to_pylist(), t["text"].to_pylist())}
    occ = Counter(" ".join(ws[i:i + SPAN_K])
                  for ws in words.values()
                  for i in range(len(ws) - SPAN_K + 1))
    got = {r["doc_id"]: r for r in q_dedup_spans_removed(SF).take_all()}
    assert set(got) == {d for d, ws in words.items() if ws}
    for d, ws in words.items():
        if not ws:
            continue
        keep = [True] * len(ws)
        for i in range(len(ws) - SPAN_K + 1):
            if occ[" ".join(ws[i:i + SPAN_K])] >= 2:
                keep[i:i + SPAN_K] = [False] * SPAN_K
        exp_clean = " ".join(w for w, k in zip(ws, keep) if k)
        r = got[d]
        assert (r["n_words"], r["n_removed"], r["clean_text"]) == \
            (len(ws), len(ws) - sum(keep), exp_clean)
    assert any(r["n_removed"] > 0 for r in got.values())  # planted dups


def test_merge_topk_distributed_path_parity(ray_session, monkeypatch):
    """Forcing the tree-reduce tail over the driver threshold exercises
    the query_id-bucketed distributed merge; results must be identical
    to the driver merge (shared _topk_finalize rule)."""
    import skewer_ray.functions.similarity as sim
    from skewer_ray.pipelines.corpus import q_ann_topk

    def rows(ds):
        return sorted((r["query_id"], r["rank"], r["vec_id"], r["cosine"])
                      for r in ds.take_all())

    fast = rows(q_ann_topk(SF))
    monkeypatch.setattr(sim, "MERGE_DRIVER_MAX_ROWS", 0)
    slow = rows(q_ann_topk(SF))
    assert fast == slow and len(fast) > 0


def test_conv_loglik_vs_pandas(ray_session):
    """Markov loglik per conv matches a direct pandas recomputation of
    the Laplace-smoothed global model with term-wise µ-rounding."""
    import math

    import pyarrow.parquet as pq
    from skewer_ray.gen import ensure_transcripts
    from skewer_ray.pipelines.queries import q_conv_loglik
    path = ensure_transcripts(SF)
    df = pq.ParquetDataset(path).read(
        columns=["conv_id", "turn_idx", "role"]).to_pandas()
    df = df.sort_values(["conv_id", "turn_idx"])
    prev = df.groupby("conv_id")["role"].shift(1)
    tr = df[prev.notna()].assign(f=prev[prev.notna()])
    g = tr.groupby(["f", "role"]).size()
    from_tot = tr.groupby("f").size()
    r_n = df["role"].nunique()
    term = {(f, t): int(np.rint(
        math.log((c + 1) / float(from_tot[f] + r_n)) * 1_000_000))
        for (f, t), c in g.items()}
    tr = tr.assign(lm=[term[(f, t)]
                       for f, t in zip(tr["f"], tr["role"])])
    want = tr.groupby("conv_id")["lm"].agg(["count", "sum"])
    got = {r["conv_id"]: (r["n_trans"], r["loglik_micro"])
           for r in q_conv_loglik(SF).take_all()}
    assert got == {c: (int(r["count"]), int(r["sum"]))
                   for c, r in want.iterrows()} and got


def test_frequent_sequences_vs_pandas(ray_session):
    """Tool trigram counts match a direct pandas shift-based recount."""
    import pyarrow.parquet as pq
    from skewer_ray.gen import ensure_transcripts
    from skewer_ray.pipelines.queries import q_frequent_sequences
    path = ensure_transcripts(SF)
    df = pq.ParquetDataset(path).read(
        columns=["conv_id", "turn_idx", "tool"]).to_pandas()
    df = df[df["tool"].notna() & (df["tool"] != "")]
    df = df.sort_values(["conv_id", "turn_idx"])
    t2 = df.groupby("conv_id")["tool"].shift(-1)
    t3 = df.groupby("conv_id")["tool"].shift(-2)
    m = t3.notna()
    expect = (df[m].assign(t2=t2[m], t3=t3[m])
              .groupby(["tool", "t2", "t3"]).size().to_dict())
    got = {(r["t1"], r["t2"], r["t3"]): r["n"]
           for r in q_frequent_sequences(SF).to_pylist()}
    assert got == expect and got


def test_ks_lengths_vs_pandas(ray_session):
    """KS statistic matches a direct pandas/numpy ECDF recomputation."""
    import pyarrow.parquet as pq
    from skewer_ray.gen import ensure_transcripts
    from skewer_ray.pipelines.queries import q_ks_lengths
    path = ensure_transcripts(SF)
    df = pq.ParquetDataset(path).read(
        columns=["role", "text"]).to_pandas()
    df = df[df["role"].isin(["user", "assistant"])]
    df["v"] = df["text"].str.len()
    vals = np.sort(df["v"].unique())
    u = df[df["role"] == "user"]["v"].to_numpy()
    a = df[df["role"] == "assistant"]["v"].to_numpy()
    f1 = np.searchsorted(np.sort(u), vals, side="right")
    f2 = np.searchsorted(np.sort(a), vals, side="right")
    n1, n2 = len(u), len(a)
    d_num = int(np.abs(f1.astype(np.int64) * n2
                       - f2.astype(np.int64) * n1).max())
    got = q_ks_lengths(SF).to_pylist()[0]
    assert got["n1"] == n1 and got["n2"] == n2
    assert got["d_num"] == d_num
    assert got["d_micro"] == (d_num * 2_000_000 + n1 * n2) \
        // (2 * n1 * n2)


def test_mad_outliers_hand_case(ray_session):
    """Tiny hand case: median 10, MAD 1 → only dev > 2 flagged."""
    import ray.data as rd
    from skewer_ray.functions.curation import mad_outliers
    rows = ([{"doc_id": i, "lang": "en", "n_chars": v}
             for i, v in enumerate([9, 10, 10, 10, 11, 12, 13, 50])])
    got = {r["doc_id"]: r["dev"]
           for r in mad_outliers(rd.from_items(rows)).take_all()}
    # med = 10 (idx ceil(.5*8)-1 = 3), devs [1,0,0,0,1,2,3,40],
    # mad = 1 → flag dev > 2: docs 6 (dev 3) and 7 (dev 40)
    assert got == {6: 3, 7: 40}


def test_triangle_count_vs_bruteforce(ray_session):
    """Triangles match a brute-force recompute of the p75-gated
    co-occurrence graph."""
    from itertools import combinations

    import pyarrow.parquet as pq
    from skewer_ray.functions.curation import _hist_quantile
    from skewer_ray.gen import ensure_transcripts
    from skewer_ray.pipelines.queries import q_triangle_count
    path = ensure_transcripts(SF)
    df = pq.ParquetDataset(path).read(
        columns=["conv_id", "tool"]).to_pandas()
    df = df[df["tool"] != ""].drop_duplicates()
    pairs: dict[tuple, int] = {}
    for _c, g in df.groupby("conv_id"):
        for a, b in combinations(sorted(set(g["tool"])), 2):
            pairs[(a, b)] = pairs.get((a, b), 0) + 1
    wh: dict[int, int] = {}
    for n in pairs.values():
        wh[n] = wh.get(n, 0) + 1
    thr = _hist_quantile(wh, 0.75)
    edges = {k for k, n in pairs.items() if n >= thr}
    tools = sorted({t for e in edges for t in e})
    want = {(a, b, c) for a, b, c in combinations(tools, 3)
            if (a, b) in edges and (b, c) in edges and (a, c) in edges}
    got = {(r["t1"], r["t2"], r["t3"])
           for r in q_triangle_count(SF).to_pylist()}
    assert got == want and got


def test_chi2_lang_source_terms(ray_session):
    """Per-cell chi2 terms match a pandas crosstab recompute, and the
    observed counts sum to the corpus size."""
    import pyarrow.parquet as pq
    from skewer_ray.pipelines.corpus import q_chi2_lang_source
    df = pq.read_table(f"{SF}/documents.parquet",
                       columns=["lang", "source"]).to_pandas()
    ct = df.groupby(["lang", "source"]).size()
    rows = ct.groupby(level=0).sum()
    cols = ct.groupby(level=1).sum()
    n = int(ct.sum())
    got = {(r["lang"], r["source"]): (r["o"], r["term_micro"])
           for r in q_chi2_lang_source(SF).to_pylist()}
    for (l, s), o in ct.items():
        e = (int(rows[l]) * int(cols[s])) / n
        want = int(np.rint((o - e) * (o - e) / e * 1_000_000))
        assert got[(l, s)] == (o, want)
    assert sum(o for o, _t in got.values()) == n


def test_bigram_pmi_marginals(ray_session):
    """PMI values match a direct Counter recomputation at sf0.001."""
    import math
    from collections import Counter

    import pyarrow.parquet as pq
    from skewer_ray.functions.textstats import norm_words
    from skewer_ray.pipelines.corpus import LM_MIN_COUNT, q_bigram_pmi
    texts = pq.read_table(f"{SF}/documents.parquet",
                          columns=["text"])["text"].to_pylist()
    bi, un = Counter(), Counter()
    for t in texts:
        ws = norm_words(t)
        un.update(ws)
        bi.update(zip(ws[:-1], ws[1:]))
    n_tok, m = sum(un.values()), sum(bi.values())
    got = {(r["w1"], r["w2"]): (r["n"], r["pmi_micro"])
           for r in q_bigram_pmi(SF).take_all()}
    assert set(got) == {k for k, n in bi.items() if n >= LM_MIN_COUNT}
    for (a, b), (n, pm) in got.items():
        want = int(np.rint(math.log(
            (n / m) / ((un[a] / n_tok) * (un[b] / n_tok))) * 1e6))
        assert pm == want


def test_tool_next_accuracy_hand_props(ray_session):
    """Every from-tool's prediction is its max-count successor and
    n_correct <= n_total; accuracies are half-up micro ratios."""
    from skewer_ray.pipelines.queries import (q_frequent_sequences,  # noqa: F401
                                              q_tool_next_accuracy)
    rows = q_tool_next_accuracy(SF).to_pylist()
    assert rows
    for r in rows:
        assert 0 < r["n_correct"] <= r["n_total"]
        assert r["acc_micro"] == (r["n_correct"] * 2_000_000
                                  + r["n_total"]) // (2 * r["n_total"])


def test_hapax_share_vs_counter(ray_session):
    from collections import Counter

    import pyarrow.parquet as pq
    from skewer_ray.functions.textstats import norm_words
    from skewer_ray.pipelines.corpus import q_hapax_share
    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "text"])
    un = Counter()
    for x in t["text"].to_pylist():
        un.update(norm_words(x))
    hapax = {w for w, n in un.items() if n == 1}
    got = {r["doc_id"]: r for r in q_hapax_share(SF).take_all()}
    for d, x in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        ws = norm_words(x)
        if not ws:
            assert d not in got
            continue
        h = sum(1 for w in ws if w in hapax)
        r = got[d]
        assert (r["n_words"], r["n_hapax"]) == (len(ws), h)
        assert r["share_micro"] == (h * 2_000_000 + len(ws)) \
            // (2 * len(ws))


def test_response_ratio_hand_case(ray_session):
    import pyarrow.parquet as pq
    from skewer_ray.gen import ensure_transcripts
    from skewer_ray.pipelines.queries import q_response_ratio
    path = ensure_transcripts(SF)
    df = pq.ParquetDataset(path).read(
        columns=["conv_id", "role", "text"]).to_pandas()
    df = df[df["role"].isin(["user", "assistant"])]
    df["ch"] = df["text"].str.len()
    p = df.pivot_table(index="conv_id", columns="role", values="ch",
                       aggfunc="sum").dropna()
    p = p[p["user"] > 0]
    got = {r["conv_id"]: r for r in q_response_ratio(SF).take_all()}
    assert set(got) == set(p.index)
    for c, row in p.iterrows():
        u, a = int(row["user"]), int(row["assistant"])
        r = got[c]
        assert (r["user_chars"], r["asst_chars"]) == (u, a)
        assert r["ratio_micro"] == (a * 2_000_000 + u) // (2 * u)


def test_sft_pairs_vs_pandas(ray_session):
    import pyarrow.parquet as pq
    from skewer_ray.gen import ensure_transcripts
    from skewer_ray.pipelines.queries import q_sft_pairs
    path = ensure_transcripts(SF)
    df = pq.ParquetDataset(path).read(
        columns=["conv_id", "turn_idx", "role", "text"]).to_pandas()
    df = df.sort_values(["conv_id", "turn_idx"])
    nrole = df.groupby("conv_id")["role"].shift(-1)
    ntext = df.groupby("conv_id")["text"].shift(-1)
    m = (df["role"] == "user") & (nrole == "assistant")
    want = {(c, int(t)): (p, r) for c, t, p, r in zip(
        df["conv_id"][m], df["turn_idx"][m], df["text"][m], ntext[m])}
    got = {(r["conv_id"], r["turn_idx"]): (r["prompt"], r["response"])
           for r in q_sft_pairs(SF).take_all()}
    assert got == want and got


def test_corr_words_chars_vs_numpy(ray_session):
    import pyarrow.parquet as pq
    from skewer_ray.functions.textstats import norm_words
    from skewer_ray.pipelines.corpus import q_corr_words_chars
    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["lang", "text"]).to_pandas()
    got = {r["lang"]: (r["n"], r["r6"])
           for r in q_corr_words_chars(SF).to_pylist()}
    for lang, g in t.groupby("lang"):
        x = np.array([len(norm_words(s)) for s in g["text"]],
                     np.int64)
        y = np.array([len(s) for s in g["text"]], np.int64)
        n = len(x)
        sx, sy = int(x.sum()), int(y.sum())
        sxy = int((x * y).sum())
        sxx, syy = int((x * x).sum()), int((y * y).sum())
        den = (float(n) * sxx - float(sx) * sx) \
            * (float(n) * syy - float(sy) * sy)
        want = float(np.round(
            (float(n) * sxy - float(sx) * sy) / np.sqrt(den), 6))
        assert got[lang] == (n, want)


def test_hourly_profile_sums(ray_session):
    import pyarrow.parquet as pq
    from skewer_ray.pipelines.corpus import q_hourly_profile
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["ts", "event_type"]).to_pandas()
    got = q_hourly_profile(SF)
    assert int(pa.Table.from_pandas(
        got.to_pandas() if hasattr(got, "to_pandas") else got)
        .column("n").combine_chunks().to_pandas().sum()) == len(ev)
    rows = {(r["event_type"], r["hour"]): r["n"]
            for r in (got.to_pylist() if hasattr(got, "to_pylist")
                      else got.to_pandas().to_dict("records"))}
    us = ev["ts"].astype("datetime64[us]").astype("int64")
    hours = (us // 3_600_000_000) % 24
    sample = ev.assign(h=hours).groupby(["event_type", "h"]).size()
    for (et, h), n in sample.items():
        assert rows[(et, int(h))] == n


def test_langid_confusion_consistency(ray_session):
    """Confusion matrix totals match the corpus and its diagonal
    matches per-doc predictions."""
    import pyarrow.parquet as pq
    from skewer_ray.functions.textstats import langid_batch
    from skewer_ray.pipelines.corpus import q_langid_confusion
    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "lang", "text"])
    pred = langid_batch(t)
    want: dict[tuple, int] = {}
    for l, p in zip(t["lang"].to_pylist(),
                    pred["lang_pred"].to_pylist()):
        want[(l, p)] = want.get((l, p), 0) + 1
    got = {(r["lang"], r["lang_pred"]): r["n"]
           for r in q_langid_confusion(SF).to_pylist()}
    assert got == want


def test_vocab_growth_monotone_and_total(ray_session):
    from collections import Counter

    import pyarrow.parquet as pq
    from skewer_ray.functions.textstats import norm_words
    from skewer_ray.pipelines.corpus import q_vocab_growth
    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "text"])
    first: dict[str, int] = {}
    for d, x in sorted(zip(t["doc_id"].to_pylist(),
                           t["text"].to_pylist())):
        for w in norm_words(x):
            first.setdefault(w, d)
    rows = q_vocab_growth(SF).to_pylist()
    vs = [r["vocab"] for r in rows]
    assert vs == sorted(vs) and len(rows) == 10
    assert vs[-1] == len(first)  # k=10 covers the whole corpus
    mxd = max(t["doc_id"].to_pylist())
    for r in rows:
        assert r["doc_max"] == (mxd * r["k"]) // 10
        assert r["vocab"] == sum(1 for fd in first.values()
                                 if fd <= r["doc_max"])


def test_funnel_stages_validates_against_all_prior_valid(ray_session):
    """The case greedy-earliest gets wrong: the EARLIEST click is too
    old to reach the purchase, but a later click (still within a day
    of a view) bridges it — stage 3 must be reached. Plus: a user who
    clicks with no prior view stays at stage 1, and equal timestamps
    satisfy the order."""
    import ray.data as rd
    from skewer_ray.functions.windows import funnel_stages
    D = 86_400_000_000
    rows = [
        # user 1: view@0, click@D (in window), purchase@2.5D — the
        # early click can't reach it, but view@1.6D + click@2D can
        {"user_id": 1, "event_type": "view", "ts": 0},
        {"user_id": 1, "event_type": "click", "ts": D},
        {"user_id": 1, "event_type": "view", "ts": int(1.6 * D)},
        {"user_id": 1, "event_type": "click", "ts": 2 * D},
        {"user_id": 1, "event_type": "purchase", "ts": int(2.5 * D)},
        # user 2: click before any view → never valid; view later only
        {"user_id": 2, "event_type": "click", "ts": 0},
        {"user_id": 2, "event_type": "view", "ts": D},
        # user 3: all three at the SAME instant — inclusive bounds
        {"user_id": 3, "event_type": "view", "ts": 5},
        {"user_id": 3, "event_type": "click", "ts": 5},
        {"user_id": 3, "event_type": "purchase", "ts": 5},
        # user 4: view then click 2 days later — window exceeded
        {"user_id": 4, "event_type": "view", "ts": 0},
        {"user_id": 4, "event_type": "click", "ts": 2 * D + 1},
    ]
    out = {r["user_id"]: r["stage"]
           for r in funnel_stages(rd.from_items(rows)).to_pandas()
           .to_dict("records")}
    assert out == {1: 3, 2: 1, 3: 3, 4: 1}


def test_interval_join_counts_hand_case(ray_session):
    """Two types: A spans [0, 40] (window [0,10]), B spans [4, 8]
    (window [4,5]); events of BOTH types inside each window count."""
    import ray.data as rd
    from skewer_ray.functions.windows import interval_join_counts
    rows = [
        {"event_type": "A", "ts": 0}, {"event_type": "A", "ts": 40},
        {"event_type": "A", "ts": 7},
        {"event_type": "B", "ts": 4}, {"event_type": "B", "ts": 8},
    ]
    out = {r["event_type"]: r["n_overlap"]
           for r in interval_join_counts(rd.from_items(rows))
           .to_pylist()}
    # A window [0,10]: A@0, A@7, B@4, B@8 → 4;  B window [4,5]: B@4 → 1
    assert out == {"A": 4, "B": 1}


def test_repeat_reduce_collapses_consecutive_runs(ray_session):
    """"last message repeated N times": runs collapse with the FIRST
    index and the run length; same text NON-consecutive does not merge;
    streams never bleed into each other."""
    import ray.data as rd
    from skewer_ray.functions.multiline import repeat_reduce
    rows = [
        {"conv_id": "a", "turn_idx": 0, "text": "up"},
        {"conv_id": "a", "turn_idx": 1, "text": "up"},
        {"conv_id": "a", "turn_idx": 2, "text": "up"},
        {"conv_id": "a", "turn_idx": 3, "text": "down"},
        {"conv_id": "a", "turn_idx": 4, "text": "up"},     # new island
        {"conv_id": "b", "turn_idx": 0, "text": "up"},     # new stream
    ]
    out = sorted(repeat_reduce(rd.from_items(rows)).take_all(),
                 key=lambda r: (r["conv_id"], r["first_idx"]))
    assert [(r["conv_id"], r["first_idx"], r["n_repeats"], r["text"])
            for r in out] == [
        ("a", 0, 3, "up"), ("a", 3, 1, "down"), ("a", 4, 1, "up"),
        ("b", 0, 1, "up")]


def test_match_recognize_counts_nonoverlapping(ray_session):
    """'vc*p' counts non-overlapping leftmost matches per user; a
    second v..p run after the first counts again; users never bleed."""
    import ray.data as rd
    from skewer_ray.functions.windows import match_recognize_counts
    rows = []
    # user 1: v c c p v p  → 2 matches
    for i, et in enumerate(["view", "click", "click", "purchase",
                            "view", "purchase"]):
        rows.append({"user_id": 1, "event_id": i, "ts": i * 10,
                     "event_type": et})
    # user 2: p v c (no completed pattern) → 0 matches → omitted
    for i, et in enumerate(["purchase", "view", "click"]):
        rows.append({"user_id": 2, "event_id": i, "ts": i * 10,
                     "event_type": et})
    out = {r["user_id"]: r["n_matches"]
           for r in match_recognize_counts(rd.from_items(rows))
           .take_all()}
    assert out == {1: 2}
