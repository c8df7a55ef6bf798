"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported; nothing
here (or in skewer_ray) calls ray.init()/ray.shutdown().

The transcript corpus (BASELINE.json.input_hint schema) is synthesized
deterministically per scale factor under /tmp/skewer_ray_testdata/<sf>/
by skewer_ray.gen.ensure_transcripts — both the Ray queries and the
DuckDB oracle SQL read the exact same parquet files.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

ORACLE_SF = "sf0.01"  # the driver's correctness scale

# The driver samples the FIRST N queries() entries (dict order) for its
# correctness artifact, so queries() returns them in this order: the 9
# queries no driver round has run yet first, then the r05 sample, then
# the rest (witnessed r01-r04, zero failures).
_QUERY_ORDER = (
    "vocab_growth", "template_novelty", "trending_terms",
    "storage_profile", "repeat_reduce", "melt_stats",
    "events_interval_join", "events_funnel3", "events_match_pattern",
    "epoch_shuffle", "source_overlap", "jl_project", "semdedup",
    "dsir_select", "hard_negatives", "ccnet_buckets",
    "dedup_spans_removed", "events_cube", "rrf_fusion",
    "matryoshka_rerank", "mmr_diversify", "feature_hashing",
    "alert_windows", "rate_limit", "zscore_lengths", "redact_terms",
    "cusum_changepoints", "winsorize_lengths", "dedup_edit",
    "distinct_hll", "attribution_linear", "psi_drift", "mad_outliers",
    "chi2_lang_source", "wilson_ctr", "autocorr_daily", "seasonal_error",
    "bigram_pmi", "hapax_share", "fano_factor", "benford_digits",
    "heavy_hitters", "scd2_intervals", "js_divergence", "mann_whitney",
    "dup_rate_by_source", "quantile_normalize", "ab_test_z",
    "churn_weekly", "event_type_lift", "rolling_active_7d", "zipf_slope",
    "first_event_counts", "dod_change", "corr_words_chars",
    "hourly_profile", "dau_mau", "user_value_deciles", "langid_confusion",
    "tpch_q1", "tpch_q2", "tpch_q3", "tpch_q4", "tpch_q5", "tpch_q6",
    "tpch_q7", "tpch_q8", "tpch_q9", "tpch_q10", "tpch_q11", "tpch_q12",
    "tpch_q13", "tpch_q14", "tpch_q15", "tpch_q16", "tpch_q17", "tpch_q18",
    "tpch_q19", "tpch_q20", "tpch_q21", "tpch_q22", "events_rollup",
    "curated_docs", "late_events", "ann_quantized", "dedup_prefix",
    "profile_docs", "events_histogram", "events_quantiles", "conv_loglik",
    "frequent_sequences", "ks_lengths", "triangle_count", "tool_entropy",
    "tool_next_accuracy", "response_ratio", "sft_pairs",
    "weighted_join_sample", "es_bulk_acks", "shingle_novelty",
    "kmeans_assign", "bm25_scores", "bpe_encode", "gopher_rules",
    "mixture_sample", "ngram_diversity", "token_budget_select",
    "unigram_entropy", "upsert_latest", "dedup_embedding_lsh",
    "sample_docs", "cap_per_source", "chunk_docs", "pack_sequences",
    "quality_filter", "rank_docs", "rebalance_mix", "lang_centroid_dist",
    "inverted_index", "weighted_sample", "bigram_lm", "bloom_decontam",
    "dup_span_fraction", "distinct_terms_lang", "shard_docs", "ann_range",
    "knn_classify", "retention_cohorts", "decontaminate", "tfidf_terms",
    "text_repetition", "distinct_kmv", "ann_topk", "ann_lsh", "ann_ivf",
    "media_features", "media_frames", "dedup_filtered_docs",
    "dedup_clusters", "events_tumbling", "events_sessions", "events_asof",
    "events_range_counts", "events_running", "events_topn", "events_pivot",
    "users_no_big_purchase", "events_bursts", "events_funnel",
    "lang_embedding_stats", "source_accounting", "source_journald",
    "cms_terms", "stratified_sample", "bpe_merges", "embedding_quantize",
    "snapshot_diff", "pagerank_tools", "sampled_quantiles",
    "parse_rfc5424", "parse_rfc3164", "parse_degenerate", "parse_json",
    "parse_rsyslogjson", "parse_gelf", "parse_influx", "parse_w3c",
    "parse_ltsv", "parse_custom", "route_topics", "route_partition_keys",
    "filter_results", "sink_counts", "file_sink_routes",
    "routed_rows_kafka", "encode_rfc5424", "encode_rfc3164",
    "enrich_groups", "metrics_incoming", "conv_stats",
    "incremental_conv_stats", "conv_text", "log_templates",
    "merge_multiline", "role_transitions", "trim_context", "turn_latency",
    "gap_hist", "tool_cooccurrence", "conv_skew", "holdout_split",
    "conv_windows", "conv_pattern_dedup", "grok_transcripts",
    "anonymize_hosts", "parse_collectd", "parse_macos",
    "parse_edge_syslog", "topk_terms", "events_hopping", "text_quality",
    "text_langid", "doc_fingerprints", "dedup_exact", "dedup_minhash",
    "dedup_ngram", "dedup_simhash", "dedup_simhash_pairs",
    "dedup_embedding",
)


def entry() -> Any:
    """Flagship pipeline at sf0.001: parse → enrich → route → fan-out →
    per-sink aggregate counts (returned as a pandas DataFrame)."""
    from skewer_ray.pipelines.flagship import build_fanout, read_transcripts, sink_counts
    ds = read_transcripts("/root/testdata/sf0.001")
    return sink_counts(build_fanout(ds)).to_pandas()


def queries() -> dict[str, Callable[[str], Any]]:
    from skewer_ray.pipelines import queries as q
    out: dict[str, Callable[[str], Any]] = {
        # decoder family queries (SURVEY.md §2.2)
        "parse_rfc5424": q.q_parse_rfc5424,
        "parse_rfc3164": q.q_parse_rfc3164,
        "parse_degenerate": q.q_parse_degenerate,
        "parse_json": q.q_parse_json,
        "parse_rsyslogjson": q.q_parse_rsyslogjson,
        "parse_gelf": q.q_parse_gelf,
        "parse_influx": q.q_parse_influx,
        "parse_w3c": q.q_parse_w3c,
        "parse_ltsv": q.q_parse_ltsv,
        "parse_custom": q.q_parse_custom,
        # routing / filter / sinks (§2.3, §2.5)
        "route_topics": q.q_route_topics,
        "route_partition_keys": q.q_route_partition_keys,
        "filter_results": q.q_filter_results,
        "sink_counts": q.q_sink_counts,
        "es_bulk_acks": q.q_es_bulk_acks,
        "file_sink_routes": q.q_file_sink_routes,
        "routed_rows_kafka": q.q_routed_rows_kafka,
        # encoders (§2.4) — byte-equality surfaces
        "encode_rfc5424": q.q_encode_rfc5424,
        "encode_rfc3164": q.q_encode_rfc3164,
        # enrichment + metrics (§2.3, §2.6)
        "enrich_groups": q.q_enrich_groups,
        "metrics_incoming": q.q_metrics_incoming,
        # skew-safe per-conversation aggregate (north rule shuffle surface)
        "conv_stats": q.q_conv_stats,
        # checkpointed incremental aggregation (merge saved partials)
        "incremental_conv_stats": q.q_incremental_conv_stats,
        # ordered session reconstruction (RELP ordering applied to output)
        "conv_text": q.q_conv_text,
        # Drain-style template mining over raw log text
        "log_templates": q.q_log_templates,
        # per-day first-seen-template drift monitor
        "template_novelty": q.q_template_novelty,
        # per-day top-5 trending terms
        "trending_terms": q.q_trending_terms,
        # footer-only parquet storage-layout audit
        "storage_profile": q.q_storage_profile,
        # multiline record reassembly (framing-layer continuation glue)
        "merge_multiline": q.q_merge_multiline,
        # syslogd "last message repeated N times" suppression
        "repeat_reduce": q.q_repeat_reduce,
        # role-transition bigrams (LAG OVER conv/turn shape)
        "role_transitions": q.q_role_transitions,
        # Markov anomaly scoring per conversation (smoothed loglik)
        "conv_loglik": q.q_conv_loglik,
        # length-3 tool-subsequence pattern mining (PrefixSpan-lite)
        "frequent_sequences": q.q_frequent_sequences,
        # two-sample KS drift statistic over role text lengths
        "ks_lengths": q.q_ks_lengths,
        # tool co-occurrence graph triangles (p75-gated edges)
        "triangle_count": q.q_triangle_count,
        # per-conv tool-usage Shannon entropy (diversity score)
        "tool_entropy": q.q_tool_entropy,
        # top-1 next-tool prediction accuracy (bigram model eval)
        "tool_next_accuracy": q.q_tool_next_accuracy,
        # assistant/user verbosity ratio per conversation
        "response_ratio": q.q_response_ratio,
        # SFT prompt/response pair extraction (user→assistant turns)
        "sft_pairs": q.q_sft_pairs,
        # context-window truncation (suffix token budget per conv)
        "trim_context": q.q_trim_context,
        # per-role-transition response-time stats (LAG(ts) OVER shape)
        "turn_latency": q.q_turn_latency,
        # weighted sampling over a join without materializing the join
        "weighted_join_sample": q.q_weighted_join_sample,
        # HDR-style log2-bucketed gap histogram (unbounded-domain path)
        "gap_hist": q.q_gap_hist,
        # market-basket tool-pair co-occurrence (bounded pair domain)
        "tool_cooccurrence": q.q_tool_cooccurrence,
        # partition-key skew diagnostics (histogram-exact integer Gini)
        "conv_skew": q.q_conv_skew,
        # leakage-free conv-granularity train/val/test split
        "holdout_split": q.q_holdout_split,
        # sliding turn-window training-sample construction (1→N)
        "conv_windows": q.q_conv_windows,
        # conversation-level dedup by (role, tool) interaction pattern
        "conv_pattern_dedup": q.q_conv_pattern_dedup,
        # user-composable grok named-pattern extraction
        "grok_transcripts": q.q_grok_transcripts,
        # host pseudonymization + PII scrub (GDPR sanitization pass)
        "anonymize_hosts": q.q_anonymize_hosts,
    }
    # training-data corpus operators (documents/embeddings tables):
    # text analysis, dedup family, similarity search, multimodal stub
    from skewer_ray.pipelines.corpus import QUERIES as corpus_queries
    out.update(corpus_queries)
    # relational join/aggregate surface (TPC-H-shaped pipelines)
    from skewer_ray.pipelines import analytics_joins  # noqa: F401
    from skewer_ray.pipelines import analytics_joins2  # noqa: F401
    from skewer_ray.pipelines.analytics import QUERIES as analytics_queries
    out.update(analytics_queries)
    # a query missing from _QUERY_ORDER goes last rather than nowhere
    return {k: out[k] for k in _QUERY_ORDER if k in out} | out


def oracle_sql() -> dict[str, str]:
    """DuckDB equivalents at the driver's correctness scale (sf0.01).

    Generating the transcripts here guarantees the absolute paths inside
    the SQL exist regardless of Ray/oracle execution order."""
    from skewer_ray.gen import ensure_transcripts
    from skewer_ray.pipelines.corpus_oracles import corpus_oracle_sql
    from skewer_ray.pipelines.oracles import oracle_sql_for
    ensure_transcripts(f"/root/testdata/{ORACLE_SF}")
    out = oracle_sql_for(ORACLE_SF)
    out.update(corpus_oracle_sql(ORACLE_SF))
    return out


def oracle_sql_for_sf(sf_name: str) -> dict[str, str]:
    """Non-driver helper: oracles for another scale (tools/check_correctness)."""
    from skewer_ray.gen import ensure_transcripts
    from skewer_ray.pipelines.corpus_oracles import corpus_oracle_sql
    from skewer_ray.pipelines.oracles import oracle_sql_for
    ensure_transcripts(f"/root/testdata/{sf_name}")
    out = oracle_sql_for(sf_name)
    out.update(corpus_oracle_sql(sf_name))
    return out
