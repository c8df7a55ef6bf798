"""Per-file lineage + idempotent resume, one write group per run: the
one way the package writes output (``run``, ``run --watch``,
``pipelines.flagship.run_flagship`` and :func:`retry_rejected` all end
in :func:`_write_group`).

The reference's durable store tracks each message through
ready → sent → {deleted(ACK), failed(NACK), permerrors} per destination
(store/store.go:141-192, 1326-1471), counts acks in process as a store
batch is acked (store/store.go:77-123, 1180-1324) and, on restart, moves
stuck ``sent`` messages back to ``ready`` (store/store.go:887-941).

Batch equivalent: the unit of ACK is a *group* — every input file a run
finds without a manifest, written together by one Parquet write under
``out/data/group=<g>/sink=<s>/status=<st>/route=<r>/`` (hive values
percent-encoded) with :data:`SINK_PARQUET_OPTIONS`. Each source file
keeps its own ``part_id`` (a data column of every output row) and its
own atomic manifest ``_lineage/part-<id>.json`` (write-tmp + rename)
recording input rows, per-"sink/status/route" counts, the group and its
number of files (``group_size``). The counts are those of the blocks
each successful write task wrote, which the task returns once its files
are closed; no byte of the output is read back to count it. Manifests
land only after the whole group is written, so a rerun:

- skips a group that has ``group_size`` manifests (idempotent restart:
  a second run into the same out dir writes nothing);
- deletes a group with fewer — its dir and its surviving manifests, the
  "sent but never acked" analogue — and redoes its files, which are
  then unmanifested inputs like any new file, as one new group;
- deletes output dirs that no manifest claims.

Each out dir's ``metrics/sink_counts.json`` sums its manifests. A
manifest without ``group`` (written before groups) raises a ValueError.

REJECTED rows (filter NACK, store/forwarder.go:197-199) are data, not
job failures: they land under ``status=rejected``. :func:`retry_rejected`
re-dispatches them (the 60-s failed→ready ticker, store/store.go:958-1058,
as a batch pass) into ``out/retries/<nnn>/``, an out dir of this layout
that keeps every status: a row that passed there is never sent again.
"""

from __future__ import annotations

import json
import os
import shutil
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, fields
from urllib.parse import unquote

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data as rd
from ray.data._internal.datasource.parquet_datasink import ParquetDatasink
from ray.data.block import BlockAccessor


@dataclass
class PartitionManifest:
    part_id: int
    input_file: str
    n_in: int
    counts: dict        # "sink/status/route" -> rows
    group: int
    group_size: int     # files written in the group


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
            path = os.path.join(d, f)
            with open(path) as fh:
                rec = json.load(fh)
            try:
                m = PartitionManifest(
                    **{k.name: rec[k.name] for k in fields(PartitionManifest)})
            except KeyError as exc:
                raise ValueError(f"{path}: lineage manifest has no {exc} "
                                 "(written before write groups)") from None
            out[m.part_id] = m
    return out


def _list_input_files(input_path: str) -> list[str]:
    from ..gen import transcripts_input
    # manifests match inputs by PATH IDENTITY across runs: a resume
    # through a relative path, another cwd or a symlink must still find
    # every done file, or it re-ingests the whole input as new files
    path = os.path.realpath(transcripts_input(input_path))
    if os.path.isfile(path):
        return [path]
    return sorted(os.path.join(path, f) for f in os.listdir(path)
                  if f.endswith(".parquet"))


_KEY_COLS = ["part_id", "conv_id", "turn_idx"]

# Parquet write options of every sink output file, for each writer of it
# (this module's group write, state.compact, state.encrypt). zstd takes
# the output to about half of snappy's bytes. ``uid`` (distinct on every
# row) and ``conv_id`` (nearly so within a leaf) share long prefixes with
# the row before, so both are delta-encoded. Only the low-cardinality
# columns keep a dictionary; ``encoded`` (nearly every payload distinct)
# is written plain.
SINK_PARQUET_OPTIONS = {
    "compression": "zstd",
    "use_dictionary": ["topic", "partition_key", "turn_idx", "sub_idx",
                       "partition_number", "part_id"],
    "column_encoding": {"uid": "DELTA_BYTE_ARRAY",
                        "conv_id": "DELTA_BYTE_ARRAY"},
}


def _part_id_of_path(id_for_file: dict[str, int], keys: pa.Table | None):
    """Vectorized path → original part_id mapping (NOT a re-enumeration:
    on resume only the todo subset is read, and ids must stay stable);
    with ``keys``, only the rows whose (part_id, conv_id, turn_idx) it
    lists are kept."""

    def fn(batch: pa.Table) -> pa.Table:
        pid = pc.take(pa.array(list(id_for_file.values()), pa.int32()),
                      pc.index_in(batch["path"],
                                  pa.array(list(id_for_file.keys()))))
        batch = batch.drop_columns(["path"]).append_column("part_id", pid)
        if keys is not None:
            batch = batch.join(keys, _KEY_COLS, join_type="left semi")
        return batch

    return fn


def _hive_files(data_dir: str, keys: tuple[str, ...]):
    """(key tuple, path) of every parquet file under ``data_dir`` whose
    hive dirs name all ``keys``. Values are percent-decoded, as the
    writer encodes them: ``route=caf%C3%A9_x`` is the route ``café_x``."""
    for root, _dirs, fnames in os.walk(data_dir):
        rel = os.path.relpath(root, data_dir)
        kv = {k: unquote(v) for k, v in
              (p.split("=", 1) for p in rel.split(os.sep) if "=" in p)}
        if all(k in kv for k in keys):
            key = tuple(kv[k] for k in keys)
            for fn in fnames:
                if fn.endswith(".parquet"):
                    yield key, os.path.join(root, fn)


def hive_counts(data_dir: str, keys: tuple[str, ...]) -> dict[tuple, int]:
    """Row counts per hive-partition key tuple from parquet FOOTER
    metadata alone — no data pages are read, so deriving metrics from
    written output costs directory walks + footers, not a second scan."""
    counts: dict[tuple, int] = {}
    for key, path in _hive_files(data_dir, keys):
        n = pq.ParquetFile(path).metadata.num_rows
        counts[key] = counts.get(key, 0) + n
    return counts


_SINK_KEY = ("sink", "status", "route")
_COUNT_KEY = ["part_id", *_SINK_KEY]


class _CountingSink(ParquetDatasink):
    """Ray's Parquet sink whose write task returns its rows per (part_id,
    sink, status, route) once its files are written (``write_returns``)."""

    def write(self, blocks, ctx):
        blocks = [BlockAccessor.for_block(b).to_arrow() for b in blocks]
        super().write(blocks, ctx)
        keys = [t.select(_COUNT_KEY) for t in blocks if t.num_rows]
        return (pa.concat_tables(keys).group_by(_COUNT_KEY)
                .aggregate([([], "count_all")]) if keys else None)

    def on_write_complete(self, write_result):
        super().on_write_complete(write_result)
        self.write_returns = write_result.write_returns


def _drop_unacked(out_dir: str, done: dict[int, PartitionManifest]) -> None:
    """Crash recovery (store/store.go:887-941 analogue): a group with
    fewer than ``group_size`` manifests was sent but never acked —
    remove its surviving manifests (from ``done`` too), then every dir
    under ``data/`` that no remaining manifest claims."""
    by_group: dict[int, list[PartitionManifest]] = {}
    for m in done.values():
        by_group.setdefault(m.group, []).append(m)
    for ms in by_group.values():
        if len(ms) >= ms[0].group_size:
            continue
        for m in ms:
            os.remove(_manifest_path(out_dir, m.part_id))
            del done[m.part_id]
    data_dir = os.path.join(out_dir, "data")
    if not os.path.isdir(data_dir):
        return
    acked = {f"group={m.group}" for m in done.values()}
    for d in os.listdir(data_dir):
        if d.startswith("group=") and d not in acked:
            shutil.rmtree(os.path.join(data_dir, d))


def _write_group(out_dir: str, done: dict[int, PartitionManifest],
                 todo: list[tuple[int, str]], specs,
                 keys: pa.Table | None = None) -> "pd.DataFrame":
    """Write the ``todo`` (part_id, input file) pairs through the chain
    ``specs`` as one new group of ``out_dir``, ack each file with its
    manifest (added to ``done``, the acked manifests) and write
    ``metrics/sink_counts.json`` over ``done``. With ``keys`` only the
    rows it lists are read, and ``n_in`` counts them. Returns the
    per-(part,sink,status,route) counts."""
    from ..metrics_export import write_sink_counts
    from ..pipelines.flagship import TRANSCRIPT_COLUMNS, _fused

    if todo:
        used = {m.group for m in done.values()}
        group = next(g for g in range(len(used) + 1) if g not in used)
        group_dir = os.path.join(out_dir, "data", f"group={group}")
        ds = rd.read_parquet([f for _i, f in todo],
                             columns=TRANSCRIPT_COLUMNS, include_paths=True)
        ds = ds.map_batches(_part_id_of_path({f: i for i, f in todo}, keys),
                            batch_format="pyarrow")
        # min_rows_per_file guards against tiny-file explosion across the
        # (sink, status, route) partition space (SURVEY.md §7 hard #4)
        sink = _CountingSink(group_dir, partition_cols=list(_SINK_KEY),
                             min_rows_per_file=10_000,
                             arrow_parquet_args=SINK_PARQUET_OPTIONS)
        _fused(ds, specs).write_datasink(sink)
        counts: dict[int, Counter] = defaultdict(Counter)
        for t in filter(None, sink.write_returns):     # None: no rows
            for pid, *key, n in zip(*t.to_pydict().values()):
                counts[pid]["/".join(key)] += n
        if keys is not None:
            vc = pc.value_counts(keys["part_id"]).to_pylist()
            n_in = {r["values"]: r["counts"] for r in vc}
        for i, f in todo:
            done[i] = PartitionManifest(
                part_id=i, input_file=f,
                n_in=(pq.ParquetFile(f).metadata.num_rows if keys is None
                      else n_in.get(i, 0)),
                counts=dict(counts[i]), group=group,
                group_size=len(todo))
            _write_manifest(out_dir, done[i])

    # final metrics reduce over ALL manifests (metrics/metrics.go:38-75's
    # gather, re-expressed as a union of per-file lineage rows)
    metrics = pd.DataFrame(
        [(m.part_id, *key.split("/", 2), n)
         for _i, m in sorted(done.items())
         for key, n in sorted(m.counts.items())],
        columns=["part_id", *_SINK_KEY, "n"])
    write_sink_counts(out_dir,
                      metrics.groupby(list(_SINK_KEY))["n"].sum().to_dict())
    return metrics


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
    from ..config import default_config
    from ..pipelines.flagship import _specs

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
    return _write_group(out_dir, done, todo,
                        _specs(config or default_config()))


def retry_rejected(out_dir: str, config=None, hooks=None) -> int:
    """Re-dispatch quarantined (rejected) rows through the filter/route/
    fan-out path — the batch form of the failed→ready retry ticker.

    ``hooks`` (optional replacement HookSet) models the operator fixing
    the filter config between attempts. Attempt ``n`` is the out dir
    ``out/retries/<nnn>/``, written like a run from the input files with
    rows still rejected, each under its own part_id; one that lost a
    manifest is redone in place. Returns the rows that passed (summed
    over sinks), 0 with no new attempt when none is still rejected."""
    from ..config import default_config
    from ..pipelines.flagship import _specs
    from .encrypt import refuse_encrypted

    retry_dir = os.path.join(out_dir, "retries")
    n = len(os.listdir(retry_dir)) if os.path.isdir(retry_dir) else 0
    if n:
        last = os.path.join(retry_dir, f"{n - 1:03d}")
        acked = load_manifests(last)
        _drop_unacked(last, acked)
        if not acked:       # the last attempt never acked: redo it
            n -= 1
    # a file's rows still rejected are those of the latest attempt that
    # read it, or the run's (a file that arrived after every attempt)
    src = {}
    for d in [out_dir] + [os.path.join(retry_dir, f"{k:03d}")
                          for k in range(n)]:
        src.update((i, (d, m)) for i, m in load_manifests(d).items())
    # every rejected row is written once per sink: one sink lists them
    sink = min((k.split("/")[0] for _d, m in src.values() for k in m.counts
                if k.split("/")[1] == "rejected"), default=None)
    if sink is None:
        return 0
    todo = [(i, m.input_file) for i, (_d, m) in sorted(src.items())
            if any(k.startswith(f"{sink}/rejected/") for k in m.counts)]
    tables = []
    for d in sorted({src[i][0] for i, _f in todo}):
        ids = pa.array([i for i, _f in todo if src[i][0] == d], pa.int32())
        for key, path in _hive_files(os.path.join(d, "data"), _SINK_KEY):
            if key[:2] == (sink, "rejected"):
                refuse_encrypted(path)
                t = pq.read_table(path, columns=_KEY_COLS)
                tables.append(t.filter(pc.is_in(t["part_id"], ids)))
    in_schema = pq.read_schema(todo[0][1])
    # one key per input row (a 1→N decoder writes a row's key N times)
    keys = (pa.concat_tables(tables)
            .group_by(_KEY_COLS).aggregate([]).select(_KEY_COLS)
            .cast(pa.schema([pa.field("part_id", pa.int32())]
                            + [in_schema.field(c) for c in _KEY_COLS[1:]])))
    metrics = _write_group(os.path.join(retry_dir, f"{n:03d}"), {}, todo,
                           _specs(config or default_config(), hooks), keys)
    return int(metrics.loc[metrics.status == "passing", "n"].sum())
