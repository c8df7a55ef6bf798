"""Routing stage — the Forwarder re-expressed as a per-batch map_batches stage.

Mirrors store/forwarder.go:126-219: per message compute topic /
partition key / partition number (kafka-like dests only), then run the
filter hook: DROPPED → acked-but-not-delivered, REJECTED → retry later,
PASS → deliver (with hook mutations written back,
javascript/vm.go:427-436), anything else → PermError. Hook environments
are compiled once per ConfId (forwarder.go:133-156) — here the HookSet
arrives pre-built in ``__init__``, once per worker (stages/fused.py), and
is cached per conf key.

One dispatcher routes every batch: rows are grouped by the HookSet their
source family resolves to (a single-HookSet stream is one group), each
group is routed by ``_call_vectorized`` when its HookSet has batch forms
(the defaults, or TOML hooks compiled by toml_config) and by the
per-row loop ``_call_rows`` otherwise, and the rows come back in input
order. The per-row loop reads only the columns the hooks touch and
writes back whole replacement columns (the batch stays zero-copy for
every untouched column); it is also the parity oracle for the batch
forms (tests/test_route.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import HookSet
from ..constants import FILTER_NAMES, FILTER_PASS
from ..gen import N_FAMILIES
from .parse import family_array

# columns exposed to hooks (a superset of what templates/filters touch)
_HOOK_COLS = [
    "conv_id", "turn_idx", "role", "tool", "priority", "facility",
    "severity", "version", "hostname", "appname", "procid", "msgid",
    "message", "time_reported",
]
_MUTABLE = ["hostname", "appname", "procid", "msgid", "message"]
# filter code → filter_status (codes outside 0..3 are "error")
_STATUS_NAMES = pa.array([FILTER_NAMES[c] for c in range(4)], pa.string())
_ERROR = pa.scalar(3, pa.int32())
_ZERO = pa.scalar(0, pa.int32())
_PARSE_ERROR = pa.scalar(-1, pa.int32())


class LazyCols:
    """Column-list mapping that materializes a column (``to_pylist``)
    only on first access: arbitrary hooks typically read 2-4 of the 14
    exposed fields, so eagerly converting every hook column wastes most
    of the routing stage (measured: ~40% of stage time)."""

    __slots__ = ("batch", "names", "_c")

    def __init__(self, batch: pa.Table, names):
        self.batch = batch
        self.names = [n for n in names if n in batch.column_names]
        self._c: dict[str, list] = {}

    def __getitem__(self, key):
        col = self._c.get(key)
        if col is None:
            if key not in self.names:
                raise KeyError(key)
            col = self._c[key] = self.batch[key].to_pylist()
        return col

    def get(self, key, default=None):
        try:
            return self[key]
        except KeyError:
            return default

    def __contains__(self, key):
        return key in self.names or key in self._c

    def keys(self):
        return self.names

    def items(self):
        return [(k, self[k]) for k in self.names]


class Row:
    """Lazy per-row view over column lists: hooks typically read 2-4 of
    the 14 exposed fields, so materializing a dict per row wastes most
    of the routing stage's time. Quacks like a read-only Mapping for
    ``rec[...]`` and template rendering; ``to_dict()`` materializes for
    hooks that genuinely need it."""

    __slots__ = ("cols", "i")

    def __init__(self, cols: dict[str, list], i: int):
        self.cols = cols
        self.i = i

    def __getitem__(self, key):
        return self.cols[key][self.i]

    def __contains__(self, key):
        return key in self.cols

    def get(self, key, default=None):
        col = self.cols.get(key)
        return col[self.i] if col is not None else default

    def keys(self):
        return self.cols.keys()

    def to_dict(self) -> dict:
        return {k: v[self.i] for k, v in self.cols.items()}


class RouterStage:
    def __init__(self, hooks: HookSet | dict):
        """``hooks``: one HookSet for the whole stream, or a dict keyed
        by conf id — the per-source family int (conv_index % 12, the
        transcript stand-in for ConfId) — with key ``None`` as the
        fallback. Hook envs are built once per worker, selected per
        family (store/forwarder.go:133-156)."""
        if isinstance(hooks, HookSet):
            self.hooks_for = {None: hooks}
        else:
            self.hooks_for = dict(hooks)
        self.default = self.hooks_for.get(None) or next(iter(self.hooks_for.values()))
        self.multi = len([k for k in self.hooks_for if k is not None]) > 0
        # the distinct HookSets (by identity), and each family's index
        per_family = [self.hooks_for.get(f, self.default)
                      for f in range(N_FAMILIES)]
        index: dict[int, int] = {}
        self.group_of = np.array([index.setdefault(id(h), len(index))
                                  for h in per_family])
        self.groups = list({id(h): h for h in per_family}.values())

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        # a null parse_ok is a parse error, as the per-row loop has it
        if "parse_ok" in batch.column_names:
            ok = pc.fill_null(batch["parse_ok"], False)
        else:
            ok = pa.repeat(pa.scalar(True), n)
        if len(self.groups) == 1 or n == 0:
            return self._assemble(batch, ok,
                                  self._hook_cols(batch, self.groups[0], ok))
        gid = self.group_of[family_array(batch["conv_id"])]
        starts = np.flatnonzero(gid[1:] != gid[:-1]) + 1
        inv = None
        if len(starts) + 1 != len(np.unique(gid)):
            # a group spans several runs: route it in one piece, then
            # restore the input order
            order = np.argsort(gid, kind="stable")
            inv = np.empty_like(order)
            inv[order] = np.arange(n)
            batch, ok, gid = batch.take(order), ok.take(order), gid[order]
            starts = np.flatnonzero(gid[1:] != gid[:-1]) + 1
        bounds = [0, *starts.tolist(), n]
        parts = [self._hook_cols(batch.slice(a, b - a), self.groups[gid[a]],
                                 ok.slice(a, b - a))
                 for a, b in zip(bounds[:-1], bounds[1:])]
        # one column per output across the groups; a group that does not
        # mutate a field contributes the field's own values
        names = batch.column_names
        keys = [k for k in dict.fromkeys(k for p in parts for k in p[4])
                if k in _MUTABLE and k in names]
        muts = {k: pa.chunked_array([
            p[4].get(k, batch[k].slice(a, b - a))
            for p, a, b in zip(parts, bounds[:-1], bounds[1:])])
            for k in keys}
        cols = [pa.chunked_array([p[j] for p in parts]) for j in range(4)]
        out = self._assemble(batch, ok, (*cols, muts))
        return out if inv is None else out.take(inv)

    @staticmethod
    def _hook_cols(batch: pa.Table, hs: HookSet, ok):
        """(topics, partition keys, partition numbers, filter codes,
        mutations) of one group's rows, from its batch forms or its
        per-row loop."""
        if hs.vectorized:
            return RouterStage._call_vectorized(batch, hs)
        return RouterStage._call_rows(batch, hs, ok)

    @staticmethod
    def _call_rows(batch: pa.Table, hs: HookSet, ok):
        """The per-row loop: one hook call per parsed row over lazy
        record views. Mutations are whole columns, holding the new value
        on the PASS rows that set it."""
        n = batch.num_rows
        cols = LazyCols(batch, _HOOK_COLS)
        parse_ok = ok.to_pylist()

        topics = [""] * n
        pkeys = [""] * n
        pnums = [0] * n
        fres = [FILTER_PASS] * n
        mutated: dict[str, list] = {}

        for i in range(n):
            if not parse_ok[i]:
                continue
            rec = Row(cols, i)
            topics[i] = hs.topic(rec)
            pkeys[i] = hs.partition_key(rec)
            pnums[i] = hs.partition_number(rec)
            code, mut = hs.filter(rec)
            fres[i] = code
            if code == FILTER_PASS and mut:
                for k, v in mut.items():
                    if k not in mutated:
                        if k not in cols:
                            continue
                        mutated[k] = list(cols[k])
                    mutated[k][i] = v

        return (pa.array(topics, pa.string()), pa.array(pkeys, pa.string()),
                pa.array(pnums, pa.int32()), pa.array(fres, pa.int32()),
                {k: pa.array(v, pa.string()) for k, v in mutated.items()
                 if k in _MUTABLE})

    @staticmethod
    def _call_vectorized(batch: pa.Table, hs: HookSet):
        """All-Arrow hooks when every hook has a batch form: no per-row
        loop, no column materialization. Semantics identical to the loop
        (asserted in tests/test_route.py); hooks see pre-mutation
        columns."""
        if hs.partition_number_batch is not None:
            pnums = pc.cast(hs.partition_number_batch(batch), pa.int32())
        else:
            pnums = pa.repeat(_ZERO, batch.num_rows)
        codes, muts = hs.filter_batch(batch)
        return (hs.topic_batch(batch), hs.partition_key_batch(batch), pnums,
                codes, muts or {})

    @staticmethod
    def _assemble(batch: pa.Table, ok, hook_cols) -> pa.Table:
        """The routed batch: PASS mutations written back, then topic,
        partition_key, partition_number, filter_result and filter_status
        appended; parse_error rows get empty topic/pkey and code -1."""
        topics, pkeys, pnums, codes, muts = hook_cols
        pass_mask = pc.and_(ok, pc.equal(codes, FILTER_PASS))
        for k, repl in muts.items():
            idx = batch.schema.get_field_index(k)
            if k in _MUTABLE and idx >= 0:
                batch = batch.set_column(
                    idx, k, pc.if_else(pass_mask, repl, batch[k]))

        # filter_status: code → name, parse_error override
        in_range = pc.and_(pc.greater_equal(codes, 0), pc.less(codes, 4))
        status = pc.take(_STATUS_NAMES, pc.if_else(in_range, codes, _ERROR))
        status = pc.if_else(ok, status, "parse_error")

        return (batch
                .append_column("topic", pc.if_else(ok, topics, ""))
                .append_column("partition_key", pc.if_else(ok, pkeys, ""))
                .append_column("partition_number",
                               pc.if_else(ok, pnums, _ZERO))
                .append_column("filter_result",
                               pc.if_else(ok, codes, _PARSE_ERROR))
                .append_column("filter_status", status))
