"""Fan-out + encode stage: one row per (message × destination).

Mirrors the store's multi-destination ingest, where each message is
marked ready once per enabled destination (store/store.go:1163-1178,
dest bitmask conf/destinations.go:94-112).

Each batch splits three ways on ``filter_status``. Parse errors appear
once under sink="_parse". Dropped and rejected rows appear once per
sink with that status: dropped → ACK, rejected → NACK
(store/forwarder.go:192-208). Passing rows take one delivery split per
sink (``_deliver``), the same rule for every destination kind
(store/dests/base.go:207-265): an encoding error is a PermError, an
item the destination refuses is a NACK (only es refuses: invalid index
names, stages/esbulk.py), anything else is delivered as "passing".

Output columns: sink, status, route, plus the routing decision and keys,
plus ``encoded`` (the destination wire bytes as text; null unless
passing). Routes: kafka-like sinks use the topic column; file sinks
render the filename template, sanitized (store/dests/filedest.go:218-235);
es sinks render the index-name template, unsanitized; catch-all sinks
use "all".

Encoding and plain-substitution templates are vectorized Arrow
ops (encoders/vectorized.py — byte-identical to the per-row encoders).
Formats without a vectorized form (gelf/avro/protobuf/fulljson) and
templates with format specs fall back to per-row calls over one lazy
record view of the passing rows, shared by every sink: only the columns
an encoder or template reads are materialized.

Downstream this single stream is written with
``partition_cols=["sink", "status", "route"]`` — the Ray-native
equivalent of topic-partitioned Kafka output + template-named files.
"""

from __future__ import annotations

from functools import cache, lru_cache

import pyarrow as pa
import pyarrow.compute as pc

from ..config import (SinkConfig, render_template, render_template_batch,
                      template_pieces)
from ..encoders import get_encoder
from ..encoders.vectorized import _render_unique, encode_batch, ts_date
from .esbulk import valid_index_name
from .route import LazyCols, Row

_KEEP = ["uid", "conv_id", "turn_idx", "sub_idx", "topic",
         "partition_key", "partition_number"]
_REC_COLS = [
    "priority", "facility", "severity", "version", "time_reported",
    "time_generated", "hostname", "appname", "procid", "msgid",
    "structured", "message", "properties",
]
# fields of the per-row record view, plus "date" from time_reported
_VIEW_COLS = _REC_COLS + ["uid", "conv_id", "turn_idx", "role"]
# columns consumed by the routed stream itself; anything else is an
# extra passthrough (e.g. part_id lineage) and is kept in the output
_CONSUMED = set(_KEEP) | set(_REC_COLS) | {
    "role", "tool", "ts", "parse_ok", "role_class", "tool_category",
    "filter_result", "filter_status"}


@lru_cache(maxsize=1 << 16)
def _sanitize_route(r: str) -> str:
    out = "".join(c if (c.isalnum() or c in "._-") else "-" for c in r)
    return out or "unknown"


_TMPL_KINDS = ("file", "es")   # kinds whose route renders a template


class FanoutEncodeStage:
    def __init__(self, sinks: tuple[SinkConfig, ...] | list[SinkConfig]):
        self.sinks = [(s, get_encoder(s.encoder),
                       template_pieces(s.filename_tmpl)
                       if s.kind in _TMPL_KINDS else None) for s in sinks]

    @staticmethod
    def _routes_vec(pieces, sub: pa.Table, sanitize: bool):
        """Vectorized template render (``config.render_template_batch``,
        with ``{date}`` from ``time_reported``); with ``sanitize`` the
        filename sanitizer runs once per DISTINCT rendered route; without
        it the raw render is returned (the es index name must be
        validated unsanitized)."""
        def column(field):
            if field == "date":
                return ts_date(sub["time_reported"])
            return sub[field] if field in sub.column_names else None

        out = render_template_batch(pieces, column)
        if isinstance(out, str):
            return _sanitize_route(out) if sanitize else out
        return _render_unique(out, _sanitize_route) if sanitize else out

    @staticmethod
    def _with_consts(sub: pa.Table, sink, status, route, encoded) -> pa.Table:
        """keep-columns of ``sub`` + constant-or-array sink/status/route/
        encoded columns, in the output column order."""
        n = sub.num_rows

        def col(v, typ):
            if isinstance(v, (pa.Array, pa.ChunkedArray)):
                return v
            return pa.repeat(pa.scalar(v, typ), n)

        cols = {
            "sink": col(sink, pa.string()),
            "status": col(status, pa.string()),
            "route": col(route, pa.string()),
        }
        for c in _KEEP:
            cols[c] = sub[c]
        cols["encoded"] = col(encoded, pa.string())
        for c in sub.column_names:  # extra passthrough columns
            if c not in _CONSUMED:
                cols[c] = sub[c]
        return pa.table(cols)

    def _deliver(self, sub: pa.Table, sink, records) -> list[pa.Table]:
        """One destination's account of the passing rows ``sub``:
        delivered ("passing", with route and wire bytes), refused
        ("nack") or unencodable ("permerror"). ``records()`` returns the
        shared per-row record view."""
        s, encode, pieces = sink
        enc = encode_batch(s.encoder, sub)
        if enc is None:
            enc = pa.array([encode(r) for r in records()], pa.string())
        if s.kind == "kafka":
            route = sub["topic"]
        elif s.kind not in _TMPL_KINDS:
            route = "all"
        elif pieces is not None:
            route = self._routes_vec(pieces, sub, sanitize=s.kind == "file")
        else:
            route = pa.array([render_template(s.filename_tmpl, r)
                              for r in records()], pa.string())
            if s.kind == "file":
                route = _render_unique(route, _sanitize_route)
        ok = deliver = pc.is_valid(enc)
        nack = None
        if s.kind == "es":
            # per-item bulk ack model (stages/esbulk.py): the simulated
            # bulk response fails exactly the items whose rendered index
            # name is invalid; validity is evaluated once per DISTINCT
            # name — identical to folding bulk_responses()+after() row
            # by row (pinned by tests/test_esbulk.py)
            names = (pa.repeat(route, sub.num_rows)
                     if isinstance(route, str) else route)
            acked = _render_unique(names, valid_index_name, pa.bool_())
            deliver = pc.and_(ok, acked)
            nack = pc.and_(ok, pc.invert(acked))
        if pc.all(deliver).as_py():
            return [self._with_consts(sub, s.name, "passing", route, enc)]
        if not isinstance(route, str):
            route = route.filter(deliver)
        parts = [self._with_consts(sub.filter(deliver), s.name, "passing",
                                   route, enc.filter(deliver))]
        if nack is not None:
            parts.append(self._with_consts(sub.filter(nack), s.name,
                                           "nack", "-", None))
        parts.append(self._with_consts(sub.filter(pc.invert(ok)), s.name,
                                       "permerror", "-", None))
        return parts

    def __call__(self, batch: pa.Table) -> pa.Table:
        status = batch["filter_status"]
        m_err = pc.equal(status, "parse_error")
        m_pass = pc.equal(status, "passing")
        other = batch.filter(pc.invert(pc.or_(m_err, m_pass)))
        parts = [self._with_consts(batch.filter(m_err), "_parse", "error",
                                   "-", None)]
        # dropped → ACK, rejected → NACK, once per destination
        # (store/forwarder.go:192-208)
        parts += [self._with_consts(other, s.name, other["filter_status"],
                                    "-", None) for s, _e, _p in self.sinks]
        sub = batch.filter(m_pass)
        if sub.num_rows:
            @cache
            def records():
                view = sub.select(_VIEW_COLS).append_column(
                    "date", ts_date(sub["time_reported"]))
                cols = LazyCols(view, view.column_names)
                return [Row(cols, i) for i in range(view.num_rows)]

            for sink in self.sinks:
                parts += self._deliver(sub, sink, records)
        parts = [p for p in parts if p.num_rows]
        if not parts:
            return self._with_consts(batch.slice(0, 0), "_", "_", "-", None)
        # one contiguous chunk per column: the partitioned write gets one
        # record batch, not one per part
        return pa.concat_tables(parts).combine_chunks()
