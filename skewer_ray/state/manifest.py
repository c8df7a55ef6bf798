"""Per-file lineage + idempotent resume, one write group per run: the
one way a job writes its output (``run``, ``run --watch`` and
``pipelines.flagship.run_flagship`` all end here).

The reference's durable store tracks each message through
ready → sent → {deleted(ACK), failed(NACK), permerrors} per destination
(store/store.go:141-192, 1326-1471) and, on restart, moves stuck
``sent`` messages back to ``ready`` (store/store.go:887-941) so delivery
is at-least-once and restart-safe. It acks a whole store batch at once
(store/store.go:1180-1324).

Batch equivalent: the unit of ACK is a *group* — every input file a run
finds without a manifest, written together by one ``write_parquet``
under ``out/data/group=<g>/sink=<s>/status=<st>/route=<r>/``. Each
source file keeps its own ``part_id`` (a data column of every output
row) and its own atomic manifest ``_lineage/part-<id>.json`` (write-tmp
+ rename) recording input rows, per-(sink,status,route) counts, the
group and the group's size (``group_size``, its number of files) — the
ACK/NACK/PermError accounting. A manifest's size does not grow with its
group. Manifests land only after the whole group is written, so a rerun:

- skips a group that has ``group_size`` manifests (idempotent restart:
  a second run into the same out dir writes nothing);
- deletes a group with fewer — its dir and its surviving manifests, the
  "sent but never acked" analogue — and redoes its files, which are
  then unmanifested inputs like any new file, as one new group;
- deletes output dirs that no manifest claims.

A manifest written before groups (no ``group``) reads as a one-file
group stored at ``data/part_id=<p>/``, and one that lists its group's
files (``group_files``) reads as a group of that many files, so older
outputs resume in place.

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
    group: int | None = None    # None: written before groups
    group_size: int = 1         # files written in the group

    @property
    def n_out(self) -> int:
        return sum(self.counts.values())

    @property
    def group_dir(self) -> str:
        """The group's dir under ``data/``; a manifest from before groups
        is a one-file group at ``part_id=<p>``."""
        if self.group is None:
            return f"part_id={self.part_id}"
        return f"group={self.group}"


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
    os.rename(tmp, path)  # atomic: manifest present ⇒ file acked


def load_manifests(out_dir: str) -> dict[int, PartitionManifest]:
    d = _lineage_dir(out_dir)
    out: dict[int, PartitionManifest] = {}
    if not os.path.isdir(d):
        return out
    for f in sorted(os.listdir(d)):
        if f.endswith(".json"):
            with open(os.path.join(d, f)) as fh:
                rec = json.load(fh)
            # a manifest from before group_size lists its group's files
            files = rec.pop("group_files", None)
            if files:
                rec["group_size"] = len(files)
            m = PartitionManifest(**rec)
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


def _hive_files(data_dir: str, keys: tuple[str, ...]):
    """(key tuple, path) of every parquet file under ``data_dir`` whose
    hive dirs name all ``keys`` (raw dir names, no percent-decoding)."""
    for root, _dirs, fnames in os.walk(data_dir):
        rel = os.path.relpath(root, data_dir)
        kv = dict(p.split("=", 1) for p in rel.split(os.sep) if "=" in p)
        if all(k in kv for k in keys):
            key = tuple(kv[k] for k in keys)
            for fn in fnames:
                if fn.endswith(".parquet"):
                    yield key, os.path.join(root, fn)


def hive_counts(data_dir: str, keys: tuple[str, ...]) -> dict[tuple, int]:
    """Row counts per hive-partition key tuple from parquet FOOTER
    metadata alone — no data pages are read, so deriving metrics from
    written output costs directory walks + footers, not a second scan."""
    import pyarrow.parquet as pq
    counts: dict[tuple, int] = {}
    for key, path in _hive_files(data_dir, keys):
        n = pq.ParquetFile(path).metadata.num_rows
        counts[key] = counts.get(key, 0) + n
    return counts


_SINK_KEY = ("sink", "status", "route")


def _group_counts(group_dir: str,
                  batch_size: int = 1 << 17) -> dict[int, dict[str, int]]:
    """part_id → {"sink/status/route": rows} under one group dir, from
    the written ``part_id`` column, one file and ``batch_size`` rows at a
    time: the driver holds one batch and the count dict, never a table
    of every written row."""
    import pyarrow.parquet as pq
    out: dict[int, dict[str, int]] = {}
    for key, path in _hive_files(group_dir, _SINK_KEY):
        key = "/".join(key)
        for b in pq.ParquetFile(path).iter_batches(
                batch_size, columns=["part_id"], use_threads=False):
            vc = pc.value_counts(b.column(0))
            for pid, n in zip(vc.field("values").to_pylist(),
                              vc.field("counts").to_pylist()):
                per = out.setdefault(pid, {})
                per[key] = per.get(key, 0) + n
    return out


def _split_key(key: str) -> tuple[str, str, str]:
    """"sink/status/route" → its parts; a manifest written before counts
    carried the route has "sink/status" keys, read as route "-"."""
    parts = key.split("/", 2)
    return parts[0], parts[1], parts[2] if len(parts) == 3 else "-"


def _drop_unacked(out_dir: str, done: dict[int, PartitionManifest]) -> None:
    """Crash recovery (store/store.go:887-941 analogue): a group with
    fewer than ``group_size`` manifests was sent but never acked —
    remove its surviving manifests (from ``done`` too), then every dir
    under ``data/`` that no remaining manifest claims."""
    by_dir: dict[str, list[PartitionManifest]] = {}
    for m in done.values():
        by_dir.setdefault(m.group_dir, []).append(m)
    for ms in by_dir.values():
        if len(ms) >= ms[0].group_size:
            continue
        for m in ms:
            os.remove(_manifest_path(out_dir, m.part_id))
            del done[m.part_id]
    data_dir = os.path.join(out_dir, "data")
    if not os.path.isdir(data_dir):
        return
    acked = {m.group_dir for m in done.values()}
    for d in os.listdir(data_dir):
        if d.startswith(("group=", "part_id=")) and d not in acked:
            shutil.rmtree(os.path.join(data_dir, d))


def run_partitioned(input_path: str, out_dir: str,
                    config=None) -> "pd.DataFrame":
    """The flagship job, resumable and idempotent. Returns the
    per-(part,sink,status,route) counts (small pandas frame); files in
    fully acked groups are skipped, and every other input file is
    written as one new group.

    Done-ness is keyed on the input FILE identity (the manifest's
    ``input_file``), never on its position in the sorted listing: under
    incremental ingestion a new file may sort BEFORE already-processed
    ones, and an index-keyed skip would then mark the new file done and
    redo an old one under a shifted id. Known files keep their
    manifested part_id; unseen files get the smallest free ids (first
    run: ids 0..n-1 in sorted order)."""
    import pandas as pd
    import pyarrow.parquet as pq

    from ..metrics_export import write_sink_counts
    from ..pipelines.flagship import TRANSCRIPT_COLUMNS, build_fanout

    files = _list_input_files(input_path)
    done = load_manifests(out_dir)
    _drop_unacked(out_dir, done)
    done_files = {os.path.realpath(m.input_file) for m in done.values()}
    # unseen files fill the smallest unmanifested ids in sorted-file
    # order (so a crash-lost file reclaims its old id and a truly new
    # file extends past the max) — deterministic and collision-free
    todo: list[tuple[int, str]] = []
    next_free = 0
    for f in files:
        if f not in done_files:
            while next_free in done:
                next_free += 1
            todo.append((next_free, f))
            next_free += 1

    if todo:
        used = {m.group for m in done.values()}
        group = next(g for g in range(len(used) + 1) if g not in used)
        group_dir = os.path.join(out_dir, "data", f"group={group}")
        ds = rd.read_parquet([f for _i, f in todo],
                             columns=TRANSCRIPT_COLUMNS, include_paths=True)
        ds = ds.map_batches(_part_id_of_path({f: i for i, f in todo}),
                            batch_format="pyarrow")
        # min_rows_per_file guards against tiny-file explosion across the
        # (sink, status, route) partition space (SURVEY.md §7 hard #4)
        build_fanout(ds, config).write_parquet(
            group_dir, partition_cols=list(_SINK_KEY),
            min_rows_per_file=10_000)
        # lineage counts from the written bytes (what actually landed),
        # not the in-flight stream — the ack is the row's presence
        counts = _group_counts(group_dir)
        for i, f in todo:
            _write_manifest(out_dir, PartitionManifest(
                part_id=i, input_file=f,
                n_in=pq.ParquetFile(f).metadata.num_rows,
                counts=counts.get(i, {}), group=group,
                group_size=len(todo)))

    # final metrics reduce over ALL manifests (metrics/metrics.go:38-75's
    # gather, re-expressed as a union of per-file lineage rows)
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
    n = sum(hive_counts(dest, _SINK_KEY).values())
    with open(os.path.join(dest, "_manifest.json"), "w") as fh:
        json.dump({"attempt": n_prev, "rows_delivered": int(n)}, fh)
    return int(n)
