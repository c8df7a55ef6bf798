"""Per-layer tracing from outside the program.

The traced run replays a workload's job in one process through the same
public stage classes the fused Ray map chains (``ParseStage``,
``EnrichStage``, ``RouterStage``, ``FanoutEncodeStage``), over
``PARSE_BATCH``-sized slices, and wraps every call in a span that records
wall seconds, thread CPU seconds and row counts. Reads use pyarrow, writes
use Ray's ``write_parquet`` on the traced fan-out output. Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from skewer_ray.config import default_config
from skewer_ray.decoders import get_decoder_vec
from skewer_ray.gen import N_FAMILIES
from skewer_ray.pipelines.flagship import PARSE_BATCH
from skewer_ray.stages import (EnrichStage, FanoutEncodeStage, ParseStage,
                               RouterStage, family_array)

import oracle
from workloads import dir_bytes

COLUMNS = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]
CHAIN = ("parse", "enrich", "route", "fanout")
# layers whose seconds add up to the traced job (ray.overhead_s is the rest)
LAYERS = ("read",) + CHAIN + ("write", "lineage")


class Tracer:
    """In-memory spans: id, parent, trace (the id of the outermost span,
    shared by a batch's stage spans), name, start, end, thread CPU seconds
    and counts. Disabled, it times nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._next = 0

    @contextmanager
    def span(self, name: str):
        counts: dict = {}
        if not self.enabled:
            yield counts
            return
        parent = self._stack[-1] if self._stack else None
        rec = {"id": self._next, "name": name,
               "parent": parent and parent["id"],
               "trace": parent["trace"] if parent else self._next,
               "counts": counts}
        self._next += 1
        self._stack.append(rec)
        rec["start"] = time.perf_counter()
        c0 = time.thread_time()
        try:
            yield counts
        finally:
            rec["cpu_s"] = time.thread_time() - c0
            rec["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(rec)

    def seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)

    def cpu(self, name: str) -> float:
        return sum(s["cpu_s"] for s in self.spans if s["name"] == name)

    def count(self, name: str, key: str) -> int:
        return sum(s["counts"].get(key, 0) for s in self.spans
                   if s["name"] == name)

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


class Chain:
    """The four per-record stages, built once, as the fused map builds
    them from a PipelineConfig."""

    def __init__(self, config):
        self.stages = (
            ParseStage(decoder_for_family=config.decoder_for_family,
                       custom_parsers=config.custom_parsers),
            EnrichStage(role_lookup=config.role_lookup,
                        tool_lookup=config.tool_lookup),
            RouterStage(config.hooks),
            FanoutEncodeStage(config.sinks))
        router = self.stages[2]
        self.per_row = router.multi or not router.default.vectorized
        # families decoded without a vectorized fast path (families with
        # no section use the first one, as ParseStage does)
        first = next(iter(config.decoder_for_family.values()))
        self.no_vec = np.array(
            [f for f in range(N_FAMILIES) if get_decoder_vec(
                config.decoder_for_family.get(f, first)) is None])

    def run(self, tracer: Tracer, table: pa.Table) -> pa.Table:
        outs = []
        for off in range(0, table.num_rows, PARSE_BATCH):
            batch = table.slice(off, PARSE_BATCH)
            with tracer.span("batch"):
                tables = [batch]
                for name, stage in zip(CHAIN, self.stages):
                    with tracer.span(name) as counts:
                        tables.append(stage(tables[-1]))
                    if tracer.enabled:
                        self._count(name, counts, tables[-2], tables[-1])
            outs.append(tables[-1])
        return pa.concat_tables(outs)

    def _count(self, name, counts, t_in, t_out):
        counts["rows_in"] = t_in.num_rows
        counts["rows_out"] = t_out.num_rows
        if name == "parse":
            fam = family_array(t_in["conv_id"])
            counts["no_vec"] = int(np.isin(fam, self.no_vec).sum())
            counts["errors"] = t_out.num_rows - int(
                pc.sum(pc.cast(t_out["parse_ok"], pa.int64())).as_py() or 0)
        elif name == "route":
            status = _value_counts(t_out["filter_status"])
            counts.update(status)
            if self.per_row:
                counts["per_row"] = t_out.num_rows - status.get(
                    "parse_error", 0)
        elif name == "fanout":
            counts["encoded_bytes"] = int(
                pc.sum(pc.binary_length(t_out["encoded"])).as_py() or 0)
            counts["permerror"] = _value_counts(
                t_out["status"]).get("permerror", 0)


def _value_counts(col) -> dict[str, int]:
    vc = pc.value_counts(col)
    return {v["values"].as_py(): v["counts"].as_py() for v in vc}


def _read(tracer: Tracer, path: str, part_id: int | None) -> pa.Table:
    with tracer.span("read") as counts:
        t = pq.read_table(path, columns=COLUMNS)
    counts.update(rows=t.num_rows, bytes=os.path.getsize(path))
    if part_id is not None:
        t = t.append_column("part_id", pa.array([part_id] * t.num_rows,
                                                pa.int32()))
    return t


def _write(tracer: Tracer, table: pa.Table, dest: str, cols) -> None:
    import ray.data as rd
    with tracer.span("write") as counts:
        rd.from_arrow(table).write_parquet(dest, partition_cols=cols,
                                           min_rows_per_file=10_000)
    leaves = files = 0
    for _root, _dirs, names in os.walk(dest):
        n = sum(f.endswith(".parquet") for f in names)
        files += n
        leaves += n > 0
    counts.update(files=files, leaf_dirs=leaves, bytes=dir_bytes(dest))


def traced_pass(wl, expected: dict, tracer: Tracer, dest: str) -> list[str]:
    """Replay ``wl``'s job under ``tracer``; write under ``dest`` unless
    the tracer is disabled. Returns the problems found checking the
    traced output against the oracle's ``expected`` counts."""
    chain = Chain(wl.config or default_config())
    partitioned = "part_id" in wl.partition_cols
    fan = pa.concat_tables([
        chain.run(tracer, _read(tracer, path, k if partitioned else None))
        for k, path in enumerate(wl.files)])
    got = {(r["sink"], r["status"]): r["uid_count"]
           for r in fan.group_by(["sink", "status"]).aggregate(
               [("uid", "count")]).to_pylist()}
    if tracer.enabled:
        _write(tracer, fan, os.path.join(dest, "data"), wl.partition_cols)
    return oracle.mismatches(expected, got)
