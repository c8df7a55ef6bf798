"""The flagship pipeline: read → parse → enrich → route → fan-out → write
→ aggregate, on Ray Data's streaming executor.

Ray lifecycle equivalent of `skewer serve` (SURVEY.md §3.4): transcripts
Parquet stands in for the socket sources, the parse stage for the NumCPU
parser goroutines, the router stage for the per-dest Forwarder, the
partitioned Parquet write for Kafka/file/stderr destinations, and the
lineage-count metrics artifact for the Prometheus counters gather
(metrics/metrics.go:38-75).

Scale notes:
- reads prune to the six transcript columns and keep Ray's default block
  layout: forcing more, smaller blocks than files cuts each task's input
  below PARSE_BATCH, so every task ends in a short tail batch;
- the whole per-record path (parse+enrich+route[+fanout]) is ONE fused
  task-pool map_batches whose stage state is built once per task
  (well under 1 ms): one pass, no inter-stage object-store hops (see
  stages/fused.py);
- the chain runs on PARSE_BATCH-row batches, sized to amortize its
  fixed cost per call;
- every run writes through state/manifest.run_partitioned: one group
  dir per run, ``data/group=<g>/sink=<s>/status=<st>/route=<r>/``, with
  ``part_id`` a data column and one lineage manifest per input file;
- metrics come from the written bytes (per-file counts streamed over
  the ``part_id`` column), not from the in-flight stream.
"""

from __future__ import annotations

import ray.data as rd

from ..config import PipelineConfig, default_config
from ..gen import transcripts_input
from ..stages import EnrichStage, FanoutEncodeStage, ParseStage, RouterStage
from ..stages.fused import fused_task_fn

# Rows per fused-chain call. Each call pays ~34 ms of fixed cost (kernel
# dispatch, per-family/per-sink splits, table assembly) against ~13 µs per
# row (fitted on the benchmark input, 1 CPU), so larger batches amortize
# it; 16384 keeps peak RSS within ~2% of 8192, while 32768 cost +5-7%.
# The reference's store batch is 5000..8k (conf/defaults.go:320).
PARSE_BATCH = 16384
TRANSCRIPT_COLUMNS = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]


def read_transcripts(path_or_sfdir: str):
    """Accepts either a testdata sf-dir (→ deterministic synthetic
    transcripts for that scale) or a path to transcript parquet."""
    return rd.read_parquet(transcripts_input(path_or_sfdir),
                           columns=TRANSCRIPT_COLUMNS)


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
    built once per task (stages/fused.fused_task_fn)."""
    return ds.map_batches(fused_task_fn(specs), batch_format="pyarrow",
                          batch_size=PARSE_BATCH)


def build_parsed(ds):
    return _fused(ds, _specs(default_config())[:1])


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
                 config: PipelineConfig | None = None):
    """Execute the full job through the one run core
    (``state.run_partitioned``): fan-out write under
    ``out_dir/data/group=<g>/``, lineage manifests under
    ``out_dir/_lineage/`` and ``out_dir/metrics/sink_counts.json``. A
    rerun into the same ``out_dir`` writes only input files it has not
    acked yet. Returns the per-(sink,status,route) counts as a pandas
    DataFrame."""
    from ..state import run_partitioned
    return (run_partitioned(input_path, out_dir, config=config)
            .groupby(["sink", "status", "route"], as_index=False)["n"].sum())
