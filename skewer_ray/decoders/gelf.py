"""GELF decoder.

Semantics: decoders/gelf.go:11-90 over go-gelf's UnmarshalJSON
(vendor .../gelf/message.go:75-114). Faithful quirks:

- go-gelf stores extras WITH their ``_`` prefix, so the reference's
  ``Extra["appname"]``/``["procid"]``/``["msgid"]``/``["facility"]``
  lookups (gelf.go:58-72) can never match a spec-conforming ``_``-key —
  AppName/ProcId/MsgId stay empty and every ``_*`` extra lands in the
  properties domain "gelf" (with the underscore).
- facility comes only from a top-level ``facility`` string; absent → 1
  (gelf.go:50-56). severity = level. Version = 1. TimeReported =
  timestamp (float seconds) × 1e9.
- a non-string typed known field is an unmarshal error (message.go:109-111).

Deviation: a ``level`` or ``timestamp`` the record cannot hold (not
finite, a severity or priority outside int32, a time outside int64
nanoseconds) is a decode error; Go's conversions are undefined there.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import vec
from .base import RecordBuilder
from ..constants import F_USER, FACILITIES, facility_from_string
from ..schema import props_dumps

_I32 = 1 << 31
_I64 = 1 << 63

_STR_FIELDS = ("version", "host", "short_message", "full_message", "facility")


def decode_one(line: str, ts_ns: int, out: RecordBuilder, row: int):
    try:
        d = json.loads(line)
        if not isinstance(d, dict):
            raise ValueError("not an object")
    except ValueError:
        return out.add_error(row, line, ts_ns)

    for k in _STR_FIELDS:
        if k in d and not isinstance(d[k], str):
            return out.add_error(row, line, ts_ns)
    for k in ("timestamp", "level"):
        if k in d and not isinstance(d[k], (int, float)) or isinstance(d.get(k), bool):
            return out.add_error(row, line, ts_ns)

    extras = {k: v for k, v in d.items() if k.startswith("_")}
    fac_s = d.get("facility", "")
    fac = facility_from_string(fac_s) if fac_s else 1
    try:
        sev = int(d.get("level", 0))
        tr = float(d.get("timestamp", 0.0)) * 1_000_000_000
    except (OverflowError, ValueError):   # inf, NaN, an int past float
        return out.add_error(row, line, ts_ns)
    if not math.isfinite(tr) or not -_I64 <= tr < _I64 \
            or sev < -_I32 or fac * 8 + sev >= _I32:
        return out.add_error(row, line, ts_ns)
    tr = int(tr)

    gelf_props = {}
    if d.get("full_message"):
        gelf_props["full"] = d["full_message"]
    for k, v in extras.items():
        if isinstance(v, str):
            gelf_props[k] = v
        else:
            gelf_props[k] = str(v)  # fmt %v-ish for scalars
    out.add(row, pri=fac * 8 + sev, fac=fac, sev=sev, ver=1, tr=tr, tg=ts_ns,
            host=d.get("host", ""), msg=d.get("short_message", ""),
            props=props_dumps({"gelf": gelf_props} if gelf_props else {}))


def decode_block(texts, ts_ns, out: RecordBuilder, cfg=None):
    for row, (line, n) in enumerate(zip(texts, ts_ns)):
        if not line:
            continue
        decode_one(line, n, out, row)


# ---------------------------------------------------------------------------
# vectorized fast path (decoders/vec.py): plain-text objects read with one
# pyarrow.json.read_json per sub-batch; everything else goes to decode_one
# ---------------------------------------------------------------------------

_SCHEMA = pa.schema([(k, pa.string()) for k in _STR_FIELDS]
                    + [("timestamp", pa.float64()), ("level", pa.float64())])
_FACILITY_NAMES = pa.array(FACILITIES)


def decode_block_vec(texts, ts_ns, cfg=None):
    """GELF fast path: ``_*`` extras render when they hold int64 or
    string values; a level or timestamp out of range falls back."""
    n = len(texts)
    rows, t = vec.json_objects(texts, _SCHEMA)
    if t is None:
        return None, np.arange(n)
    level = pc.fill_null(t["level"], 0.0)
    sev_f = pc.trunc(level)
    fac = pc.fill_null(pc.index_in(t["facility"], value_set=_FACILITY_NAMES),
                       F_USER)
    pri_f = pc.add(pc.multiply(pc.cast(fac, pa.float64()), 8.0), sev_f)
    tr_f = pc.multiply(pc.fill_null(t["timestamp"], 0.0), 1e9)
    ok = pc.and_(pc.and_(pc.is_finite(level), pc.is_finite(tr_f)),
                 pc.and_(pc.and_(pc.greater_equal(sev_f, -_I32),
                                 pc.less(pri_f, _I32)),
                         pc.and_(pc.greater_equal(tr_f, float(-_I64)),
                                 pc.less(tr_f, float(_I64)))))
    bad = ~vec.mask(ok)
    safe = pa.array(bad)
    sev = pc.cast(pc.if_else(safe, 0.0, sev_f), pa.int32())
    tr = pc.cast(pc.trunc(pc.if_else(safe, 0.0, tr_f)), pa.int64())
    extras = {k: t[k] for k in t.column_names if k.startswith("_")}
    pieces, odd = vec.extras_pieces(extras, len(rows))
    bad |= odd
    full = pc.if_else(pc.equal(vec.blank(t["full_message"]), ""),
                      pa.scalar(None, pa.string()), t["full_message"])
    # sorted keys: "full" sorts after every "_" name
    pieces.append(vec.kv_piece('"full"', full))
    fac = pc.cast(fac, pa.int32())
    cols = vec.record_cols(
        rows, ~bad,
        priority=pc.add(pc.multiply(fac, 8), sev), facility=fac,
        severity=sev, version=1, time_reported=tr, time_generated=ts_ns[rows],
        hostname=vec.blank(t["host"]),
        message=vec.blank(t["short_message"]),
        properties=vec.props_json("gelf", pieces))
    return cols, vec.fallback(n, cols["row_idx"])
