"""Per-partition lineage + idempotent resume.

The reference's durable store tracks each message through
ready → sent → {deleted(ACK), failed(NACK), permerrors} per destination
(store/store.go:141-192, 1326-1471) and, on restart, moves stuck
``sent`` messages back to ``ready`` (store/store.go:887-941) so delivery
is at-least-once and restart-safe.

Batch equivalent: the unit of work is an input shard (one source parquet
file = one partition). Each completed partition writes an atomic
manifest ``_lineage/part-<id>.json`` (write-tmp + rename) recording
input rows and per-(sink,status,route) counts — the ACK/NACK/PermError
accounting. A rerun:

- skips partitions whose manifest says done (idempotent restart);
- deletes orphan output dirs for partitions WITHOUT a manifest (the
  "sent but never acked" analogue) and reprocesses them.

Output layout: ``out/data/part_id=<p>/sink=<s>/status=<st>/route=<r>/``
— hive-partitioned so a resumed run replaces whole partition dirs and
per-sink consumers can prune at the directory level.

REJECTED rows (filter NACK, store/forwarder.go:197-199) are data, not
job failures: they land under ``status=rejected`` and are re-dispatched
by :func:`retry_rejected` (the 60-s failed→ready ticker,
store/store.go:958-1058, collapsed into an explicit batch retry pass).
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import asdict, dataclass, field

import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd


@dataclass
class PartitionManifest:
    part_id: int
    input_file: str
    n_in: int
    counts: dict = field(default_factory=dict)  # "sink/status/route" -> rows
    status: str = "done"

    @property
    def n_out(self) -> int:
        return sum(self.counts.values())


def _lineage_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_lineage")


def _manifest_path(out_dir: str, part_id: int) -> str:
    return os.path.join(_lineage_dir(out_dir), f"part-{part_id:05d}.json")


def _write_manifest(out_dir: str, m: PartitionManifest) -> None:
    os.makedirs(_lineage_dir(out_dir), exist_ok=True)
    path = _manifest_path(out_dir, m.part_id)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(asdict(m), fh, indent=1)
    os.rename(tmp, path)  # atomic: manifest present ⇒ partition complete


def load_manifests(out_dir: str) -> dict[int, PartitionManifest]:
    d = _lineage_dir(out_dir)
    out: dict[int, PartitionManifest] = {}
    if not os.path.isdir(d):
        return out
    for f in sorted(os.listdir(d)):
        if f.endswith(".json"):
            with open(os.path.join(d, f)) as fh:
                m = PartitionManifest(**json.load(fh))
            out[m.part_id] = m
    return out


def _list_input_files(input_path: str) -> list[str]:
    from ..gen import ensure_transcripts
    base = os.path.basename(os.path.normpath(input_path))
    path = ensure_transcripts(input_path) if base.startswith("sf") else input_path
    # manifests match inputs by PATH IDENTITY across runs, so the
    # listing must be spelling-independent: a resume invoked with a
    # relative path, from another cwd or through a symlink would
    # otherwise miss every done file and re-ingest the whole input as
    # "new" partitions
    path = os.path.realpath(path)
    if os.path.isfile(path):
        return [path]
    return sorted(os.path.join(path, f) for f in os.listdir(path)
                  if f.endswith(".parquet"))


def _part_id_of_path(id_for_file: dict[str, int]):
    """Vectorized path → original part_id mapping (NOT a re-enumeration:
    on resume only the todo subset is read, and ids must stay stable)."""

    def fn(batch: pa.Table) -> pa.Table:
        pid = pc.take(pa.array(list(id_for_file.values()), pa.int32()),
                      pc.index_in(batch["path"],
                                  pa.array(list(id_for_file.keys()))))
        return batch.drop_columns(["path"]).append_column("part_id", pid)

    return fn


def hive_counts(data_dir: str, keys: tuple[str, ...]) -> dict[tuple, int]:
    """Row counts per hive-partition key tuple from parquet FOOTER
    metadata alone — no data pages are read, so deriving metrics from
    written output costs directory walks + footers, not a second scan."""
    import pyarrow.parquet as pq
    counts: dict[tuple, int] = {}
    for root, _dirs, fnames in os.walk(data_dir):
        rel = os.path.relpath(root, data_dir)
        kv = dict(p.split("=", 1) for p in rel.split(os.sep) if "=" in p)
        if not all(k in kv for k in keys):
            continue
        key = tuple(kv[k] for k in keys)
        for fn in fnames:
            if fn.endswith(".parquet"):
                n = pq.ParquetFile(os.path.join(root, fn)).metadata.num_rows
                counts[key] = counts.get(key, 0) + n
    return counts


_SINK_KEY = ("sink", "status", "route")


def _count_written(part_dir: str) -> dict[str, int]:
    """Rows per "sink/status/route" under one dir (footers only)."""
    return {"/".join(k): n for k, n in hive_counts(part_dir, _SINK_KEY).items()}


def _split_key(key: str) -> tuple[str, str, str]:
    """"sink/status/route" → its parts; a manifest written before counts
    carried the route has "sink/status" keys, read as route "-"."""
    parts = key.split("/", 2)
    return parts[0], parts[1], parts[2] if len(parts) == 3 else "-"


def run_partitioned(input_path: str, out_dir: str,
                    config=None) -> "pd.DataFrame":
    """Resumable flagship run. Returns the per-(part,sink,status,route)
    counts (small pandas frame); partitions already recorded done are
    skipped.

    Done-ness is keyed on the input FILE identity (the manifest's
    ``input_file``), never on its position in the sorted listing: under
    incremental ingestion a new file may sort BEFORE already-processed
    ones, and an index-keyed skip would then mark the new file done and
    redo an old one under a shifted id. Known files keep their
    manifested part_id; unseen files get fresh ids past the current
    max (first run: ids 0..n-1 in sorted order, as before)."""
    import pandas as pd
    from ..metrics_export import write_sink_counts
    from ..pipelines.flagship import build_fanout

    files = _list_input_files(input_path)
    done = load_manifests(out_dir)
    done_by_file = {os.path.realpath(m.input_file): m for m in done.values()}
    # unseen files fill the smallest unmanifested ids in sorted-file
    # order (so a crash-lost partition reclaims its old id and a truly
    # new file extends past the max) — deterministic and collision-free
    id_for_file: dict[str, int] = {}
    next_free = 0
    for f in files:
        if f in done_by_file:
            id_for_file[f] = done_by_file[f].part_id
        else:
            while next_free in done:
                next_free += 1
            id_for_file[f] = next_free
            next_free += 1
    todo = [(id_for_file[f], f) for f in files if f not in done_by_file]

    data_dir = os.path.join(out_dir, "data")
    # crash recovery: output dirs without a manifest are "sent, never
    # acked" — drop and redo them (store/store.go:887-941 analogue);
    # dirs backed by neither a manifest nor this run's plan are stale
    # (an id reassigned across crashes) and are dropped too
    valid = set(done) | {i for i, _f in todo}
    if os.path.isdir(data_dir):
        for d in os.listdir(data_dir):
            if d.startswith("part_id="):
                try:
                    pid = int(d.split("=", 1)[1])
                except ValueError:
                    continue
                if pid not in valid:
                    shutil.rmtree(os.path.join(data_dir, d))
    for i, _f in todo:
        orphan = os.path.join(data_dir, f"part_id={i}")
        if os.path.isdir(orphan):
            shutil.rmtree(orphan)

    if todo:
        in_counts = {}
        import pyarrow.parquet as pq
        for i, f in todo:
            in_counts[i] = pq.ParquetFile(f).metadata.num_rows
        ds = rd.read_parquet([f for _i, f in todo], include_paths=True)
        ds = ds.map_batches(_part_id_of_path({f: i for i, f in todo}),
                            batch_format="pyarrow")
        fan = build_fanout(ds, config)
        fan.write_parquet(data_dir,
                          partition_cols=["part_id", *_SINK_KEY],
                          min_rows_per_file=10_000)
        # lineage counts from the written bytes (what actually landed),
        # not the in-flight stream — the ack is the row's presence.
        # Parquet footer metadata only: no data pages are read.
        for i, f in todo:
            counts = _count_written(os.path.join(data_dir, f"part_id={i}"))
            _write_manifest(out_dir, PartitionManifest(
                part_id=i, input_file=f, n_in=in_counts[i], counts=counts))

    # final metrics reduce over ALL manifests (metrics/metrics.go:38-75's
    # gather, re-expressed as a union of per-partition lineage rows)
    metrics = pd.DataFrame(
        [(m.part_id, *_split_key(key), n)
         for m in load_manifests(out_dir).values()
         for key, n in sorted(m.counts.items())],
        columns=["part_id", *_SINK_KEY, "n"])
    write_sink_counts(out_dir,
                      metrics.groupby(list(_SINK_KEY))["n"].sum().to_dict())
    return metrics


def retry_rejected(out_dir: str, config=None, hooks=None) -> int:
    """Re-dispatch quarantined (rejected) rows through the filter/route/
    fan-out path — the batch form of the failed→ready retry ticker.

    ``hooks`` (optional replacement HookSet) models the operator fixing
    the filter config between attempts; rows passing this time are
    appended under ``out/retries/<n>/`` with their own lineage manifest.
    Returns the number of rows that passed on retry."""
    import glob as _glob

    import pyarrow.parquet as pq

    from ..config import default_config
    from ..pipelines.flagship import TRANSCRIPT_COLUMNS, _fused, _specs

    config = config or default_config()
    data_dir = os.path.join(out_dir, "data")
    # rejected rows are duplicated per sink dir; scan every sink= dir (not
    # just the kafka sink — a config with differently-named sinks would
    # otherwise retry nothing); the semi join below ignores duplicates
    rejected = sorted(_glob.glob(os.path.join(
        data_dir, "*", "sink=*", "status=rejected", "**", "*.parquet"),
        recursive=True))
    if not rejected:
        return 0

    # quarantined rows keep (conv_id, turn_idx); rebuild full records by
    # re-reading those turns from the recorded input files. The key table
    # is tiny (rejects only) — driver-side read is fine.
    key_cols = ["conv_id", "turn_idx"]
    inputs = sorted({m.input_file for m in load_manifests(out_dir).values()})
    in_schema = pq.read_schema(inputs[0])
    keys = (pa.concat_tables([pq.read_table(f, columns=key_cols)
                              for f in rejected])
            .group_by(key_cols).aggregate([]).select(key_cols)
            .cast(pa.schema([in_schema.field(c) for c in key_cols])))

    def keep(batch: pa.Table) -> pa.Table:
        return batch.join(keys, key_cols, join_type="left semi")

    ds = rd.read_parquet(inputs, columns=TRANSCRIPT_COLUMNS)
    fan = _fused(ds.map_batches(keep, batch_format="pyarrow"),
                 _specs(config, hooks))
    retry_dir = os.path.join(out_dir, "retries")
    n_prev = len(os.listdir(retry_dir)) if os.path.isdir(retry_dir) else 0
    dest = os.path.join(retry_dir, f"{n_prev:03d}")
    passing = fan.map_batches(
        lambda b: b.filter(pc.equal(b["status"], "passing")),
        batch_format="pyarrow")
    passing.write_parquet(dest, partition_cols=list(_SINK_KEY))
    os.makedirs(dest, exist_ok=True)  # zero passing rows → nothing written
    n = sum(_count_written(dest).values())
    with open(os.path.join(dest, "_manifest.json"), "w") as fh:
        json.dump({"attempt": n_prev, "rows_delivered": int(n)}, fh)
    return int(n)
