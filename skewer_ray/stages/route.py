"""Routing stage — the Forwarder re-expressed as a per-batch map_batches stage.

Mirrors store/forwarder.go:126-219: per message compute topic /
partition key / partition number (kafka-like dests only), then run the
filter hook: DROPPED → acked-but-not-delivered, REJECTED → retry later,
PASS → deliver (with hook mutations written back,
javascript/vm.go:427-436), anything else → PermError. Hook environments
are compiled once per ConfId (forwarder.go:133-156) — here the HookSet
arrives pre-built in ``__init__``, once per worker (stages/fused.py), and
is cached per conf key.

Generic hooks are arbitrary Python callables ⇒ a per-row loop over just
the columns the hooks read; the stage pulls only those columns out of the
Arrow batch and writes back whole replacement columns (the batch stays
zero-copy for every untouched column).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..config import HookSet
from ..constants import FILTER_NAMES, FILTER_PASS

# columns exposed to hooks (a superset of what templates/filters touch)
_HOOK_COLS = [
    "conv_id", "turn_idx", "role", "tool", "priority", "facility",
    "severity", "version", "hostname", "appname", "procid", "msgid",
    "message", "time_reported",
]
_MUTABLE = ["hostname", "appname", "procid", "msgid", "message"]


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
        fallback. Hook envs are built once per worker, selected per row
        (store/forwarder.go:133-156)."""
        if isinstance(hooks, HookSet):
            self.hooks_for = {None: hooks}
        else:
            self.hooks_for = dict(hooks)
        self.default = self.hooks_for.get(None) or next(iter(self.hooks_for.values()))
        self.multi = len([k for k in self.hooks_for if k is not None]) > 0

    def __call__(self, batch: pa.Table) -> pa.Table:
        if not self.multi and self.default.vectorized:
            return self._call_vectorized(batch, self.default)
        n = batch.num_rows
        cols = LazyCols(batch, _HOOK_COLS)
        parse_ok = batch["parse_ok"].to_pylist() if "parse_ok" in batch.column_names \
            else [True] * n

        topics = [""] * n
        pkeys = [""] * n
        pnums = [0] * n
        fres = [FILTER_PASS] * n
        fstatus = ["passing"] * n
        mutated: dict[str, list] = {}

        if self.multi:
            from .parse import family_array
            fams = family_array(batch["conv_id"])
            hooks_row = [self.hooks_for.get(int(f), self.default)
                         for f in fams]
        else:
            hooks_row = None

        hook = self.default
        for i in range(n):
            if not parse_ok[i]:
                fres[i] = -1
                fstatus[i] = "parse_error"
                continue
            if hooks_row is not None:
                hook = hooks_row[i]
            rec = Row(cols, i)
            topics[i] = hook.topic(rec)
            pkeys[i] = hook.partition_key(rec)
            pnums[i] = hook.partition_number(rec)
            code, mut = hook.filter(rec)
            fres[i] = code
            fstatus[i] = FILTER_NAMES.get(code, "error")
            if code == FILTER_PASS and mut:
                for k, v in mut.items():
                    if k not in mutated:
                        if k not in cols:
                            continue
                        mutated[k] = list(cols[k])
                    mutated[k][i] = v

        for k, vals in mutated.items():
            if k in _MUTABLE:
                idx = batch.column_names.index(k)
                batch = batch.set_column(idx, k, pa.array(vals, pa.string()))

        return (batch
                .append_column("topic", pa.array(topics, pa.string()))
                .append_column("partition_key", pa.array(pkeys, pa.string()))
                .append_column("partition_number", pa.array(pnums, pa.int32()))
                .append_column("filter_result", pa.array(fres, pa.int32()))
                .append_column("filter_status", pa.array(fstatus, pa.string())))

    @staticmethod
    def _call_vectorized(batch: pa.Table, hs: HookSet) -> pa.Table:
        """All-Arrow routing when every hook has a batch form: no per-row
        loop, no column materialization. Semantics identical to the loop
        (asserted in tests/test_route.py): hooks see pre-mutation
        columns; parse_error rows get empty topic/pkey, code -1."""
        n = batch.num_rows
        if "parse_ok" in batch.column_names:
            ok = pc.fill_null(batch["parse_ok"], True)
        else:
            ok = pa.array([True] * n, pa.bool_())

        topics = hs.topic_batch(batch)
        pkeys = hs.partition_key_batch(batch)
        if hs.partition_number_batch is not None:
            pnums = pc.cast(hs.partition_number_batch(batch), pa.int32())
        else:
            pnums = pa.nulls(n, pa.int32()).fill_null(0)
        codes, muts = hs.filter_batch(batch)

        pass_mask = pc.and_(ok, pc.equal(codes, FILTER_PASS))
        for k, repl in (muts or {}).items():
            if k in _MUTABLE and k in batch.column_names:
                idx = batch.column_names.index(k)
                batch = batch.set_column(
                    idx, k, pc.if_else(pass_mask, repl, batch[k]))

        # filter_status: code → name, parse_error override
        names = pa.array([FILTER_NAMES.get(c, "error") for c in range(4)],
                         pa.string())
        in_range = pc.and_(pc.greater_equal(codes, 0), pc.less(codes, 4))
        status = pc.take(names, pc.if_else(in_range, codes,
                                           pa.scalar(3, pa.int32())))
        status = pc.if_else(ok, status, "parse_error")

        return (batch
                .append_column("topic", pc.if_else(ok, topics, ""))
                .append_column("partition_key", pc.if_else(ok, pkeys, ""))
                .append_column("partition_number",
                               pc.if_else(ok, pnums, pa.scalar(0, pa.int32())))
                .append_column("filter_result",
                               pc.if_else(ok, codes,
                                          pa.scalar(-1, pa.int32())))
                .append_column("filter_status", status))
