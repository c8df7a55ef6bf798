"""The flagship pipeline: read → parse → enrich → route → fan-out → write
→ aggregate, on Ray Data's streaming executor.

Ray lifecycle equivalent of `skewer serve` (SURVEY.md §3.4): transcripts
Parquet stands in for the socket sources, the parse stage for the NumCPU
parser goroutines, the router stage for the per-dest Forwarder, the
partitioned Parquet write for Kafka/file/stderr destinations, and the
footer-count metrics artifact for the Prometheus counters gather
(metrics/metrics.go:38-75).

Scale notes:
- reads prune to the six transcript columns;
- the whole per-record path (parse+enrich+route[+fanout]) is ONE fused
  task-pool map_batches with per-worker-cached stage state: one pass,
  no inter-stage object-store hops (see stages/fused.py);
- metrics come from the written files' parquet footers, not a groupby;
- sink writes are hive-partitioned by (sink, status, route) so reruns
  can skip finished partitions (state/manifest.py).
"""

from __future__ import annotations

import ray.data as rd

from ..config import PipelineConfig, default_config
from ..gen import ensure_transcripts
from ..stages import EnrichStage, FanoutEncodeStage, ParseStage, RouterStage
from ..stages.fused import fused_task_fn

PARSE_BATCH = 8192  # mirrors store batch 5000..8k (conf/defaults.go:320)
TRANSCRIPT_COLUMNS = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]


_FOOTER_MEMO: dict[str, tuple[int, int]] = {}  # path -> (n_files, rows)


def _suggest_blocks(path: str, blocks_per_cpu: int = 8):
    """Block-count override for SMALL inputs on wide sessions.

    Ray's default layout under-splits small inputs: with few large
    blocks the streaming executor's per-operator memory budget throttles
    map concurrency (measured: 64 blocks at 16 CPUs ran the fused map at
    ~10/16 concurrency; ~8 blocks/CPU restored it and halved wall time —
    BASELINE.md §4). At real scale the default target_max_block_size
    already yields ≫ cores blocks, so the override only engages when the
    input is a small directory (≤512 files) we can cheaply inspect."""
    import os
    try:
        import ray
        if not ray.is_initialized() or not os.path.isdir(path):
            return None
        cpus = int(ray.cluster_resources().get("CPU", 0))
        if not cpus:
            return None
        if path in _FOOTER_MEMO:  # footer stats are immutable per dir
            n_files, rows = _FOOTER_MEMO[path]
        else:
            files = [f for f in os.listdir(path) if f.endswith(".parquet")]
            if not files or len(files) > 512:
                return None
            import pyarrow.parquet as pq
            rows = sum(pq.ParquetFile(os.path.join(path, f))
                       .metadata.num_rows for f in files)
            n_files = len(files)
            _FOOTER_MEMO[path] = (n_files, rows)
        nb = min(max(64, blocks_per_cpu * cpus), max(1, rows // 1024))
        return nb if nb > n_files else None
    except Exception:
        return None


def read_transcripts(path_or_sfdir: str):
    """Accepts either a testdata sf-dir (→ deterministic synthetic
    transcripts for that scale) or a path to transcript parquet."""
    import os
    base = os.path.basename(os.path.normpath(path_or_sfdir))
    if base.startswith("sf"):
        path = ensure_transcripts(path_or_sfdir)
    else:
        path = path_or_sfdir
    nb = _suggest_blocks(path)
    return rd.read_parquet(
        path,
        columns=TRANSCRIPT_COLUMNS,
        **({"override_num_blocks": nb} if nb else {}),
    )


def _specs(config: PipelineConfig, hooks=None):
    """The per-record chain as (stage class, kwargs) pairs: parse →
    enrich → route → fan-out. Builders take a prefix; ``hooks`` replaces
    ``config.hooks`` (a retry under a fixed filter)."""
    return [
        (ParseStage, {"decoder_for_family": config.decoder_for_family,
                      "custom_parsers": config.custom_parsers}),
        (EnrichStage, {"role_lookup": config.role_lookup,
                       "tool_lookup": config.tool_lookup}),
        (RouterStage, {"hooks": hooks or config.hooks}),
        (FanoutEncodeStage, {"sinks": config.sinks}),
    ]


def _fused(ds, specs):
    """Per-record path as ONE task-pool map_batches; the stage chain is
    built once per worker (stages/fused.fused_task_fn)."""
    return ds.map_batches(fused_task_fn(specs), batch_format="pyarrow",
                          batch_size=PARSE_BATCH)


def build_parsed(ds, config: PipelineConfig | None = None):
    return _fused(ds, _specs(config or default_config())[:1])


def build_routed(ds, config: PipelineConfig | None = None):
    return _fused(ds, _specs(config or default_config())[:3])


def build_fanout(ds, config: PipelineConfig | None = None):
    return _fused(ds, _specs(config or default_config()))


def sink_counts(fanout_ds):
    """Per-(sink,status,route) counts — the per-sink aggregate artifact the
    north star compares (replaces store/store.go:77-123 counters).

    Map-side combine first: only tiny per-batch partials hit the shuffle
    (see stages/agg.py)."""
    from ..stages.agg import grouped_count
    return grouped_count(fanout_ds, ["sink", "status", "route"])


def run_flagship(input_path: str, out_dir: str,
                 config: PipelineConfig | None = None,
                 ordered: bool = False):
    """Execute the full job: fan-out write + metrics artifact.

    ``ordered=True`` sorts the stream by (conv_id, turn_idx) before the
    partitioned write — the batch analogue of RELP's in-order acks
    (services/network/relp.go:405-476); it costs a range shuffle, so
    leave it off when consumers sort on read.

    Returns the metrics as a pandas DataFrame (small), having written
    partitioned parquet under ``out_dir/data`` and ``out_dir/metrics``.
    For resumable, per-partition execution with lineage records use
    skewer_ray.state.run_partitioned instead.
    """
    import os

    from ..metrics_export import write_sink_counts
    from ..state.manifest import hive_counts

    fan = build_fanout(read_transcripts(input_path), config)
    if ordered:
        fan = fan.sort(["conv_id", "turn_idx"])
    data_dir = os.path.join(out_dir, "data")
    # min_rows_per_file guards against tiny-file explosion across the
    # (sink, status, route) partition space (SURVEY.md §7 hard #4)
    fan.write_parquet(data_dir, partition_cols=["sink", "status", "route"],
                      min_rows_per_file=10_000)
    # metrics from the WRITTEN bytes (the ack is the row's presence) via
    # parquet footer metadata only — one scan of the input per run, no
    # re-read of the output data pages (VERDICT r01 #6)
    return write_sink_counts(
        out_dir, hive_counts(data_dir, ("sink", "status", "route")))
