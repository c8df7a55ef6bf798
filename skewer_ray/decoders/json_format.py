"""JSON-family decoders: RegularSyslog JSON and rsyslog JSON export.

Semantics: decoders/json_format.go:13-98 + model/types.go:210-242
(RegularSyslog.Internal). Unknown facility name → user(1)
(model/types.go:189-194); unknown severity name → info(6)
(model/types.go:199-206); Version forced to 1; priority recomputed.

Deviation: an rsyslog ``pri`` outside int32, or a time outside int64
nanoseconds, is a decode error; Go's conversions are undefined there.
A number, bool, array or object where the reference's struct has a
string field (a time included), or ``properties`` that is not an object,
is a decode error too: Go's unmarshal into the typed field fails. A
``null`` string field reads as "" (Go leaves the field at its zero
value).
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import vec
from .base import RecordBuilder
from .rfc3164 import _parse_rfc3339_ns
from ..constants import (F_USER, FACILITIES, S_INFO, SEVERITIES,
                         facility_from_string, severity_from_string)
from ..schema import props_dumps


def _fmt_value(v) -> str:
    """Go fmt %v for the JSON scalar types we can receive."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float) and v.is_integer():
        return str(int(v))
    if v is None:
        return "<nil>"
    return str(v)


def _str_field(d: dict, key: str) -> str:
    """``d[key]`` as Go's unmarshal fills a string field: absent or null
    → ""; a number, bool, array or object raises TypeError."""
    v = d.get(key)
    if v is None:
        return ""
    if not isinstance(v, str):
        raise TypeError(f"{key}: not a string")
    return v


def decode_json_one(line: str, ts_ns: int, out: RecordBuilder, row: int):
    try:
        d = json.loads(line)
        if not isinstance(d, dict):
            raise ValueError("not an object")
    except ValueError:
        return out.add_error(row, line, ts_ns)
    try:
        f = {k: _str_field(d, k) for k in (
            "facility", "severity", "timereported", "timegenerated",
            "hostname", "appname", "procid", "msgid", "message")}
    except TypeError:
        return out.add_error(row, line, ts_ns)
    fac = facility_from_string(f["facility"])
    sev = severity_from_string(f["severity"])
    tr = _parse_rfc3339_ns(f["timereported"]) if f["timereported"] else 0
    tg = _parse_rfc3339_ns(f["timegenerated"]) if f["timegenerated"] else 0
    if tr is None or tg is None:
        return out.add_error(row, line, ts_ns)
    props = d.get("properties") or {}
    if not isinstance(props, dict):     # Go's map field fails to unmarshal
        return out.add_error(row, line, ts_ns)
    cleaned = {}
    for dom, kv in props.items():
        if isinstance(kv, dict):
            cleaned[str(dom)] = {str(k): str(v) for k, v in kv.items()}
    out.add(row, pri=fac * 8 + sev, fac=fac, sev=sev, ver=1, tr=tr, tg=tg,
            host=f["hostname"], app=f["appname"], proc=f["procid"],
            msgid=f["msgid"], msg=f["message"], props=props_dumps(cleaned))


def decode_rsyslog_one(line: str, ts_ns: int, out: RecordBuilder, row: int):
    """decoders/json_format.go:22-98: '-' ⇒ empty, pri string → fac/sev,
    '$!' bag → properties domain 'rsyslog' with %v-formatted values."""
    try:
        d = json.loads(line)
        if not isinstance(d, dict):
            raise ValueError("not an object")
    except ValueError:
        return out.add_error(row, line, ts_ns)
    try:
        f = {k: _str_field(d, k) for k in (
            "msg", "timereported", "timegenerated", "hostname", "pri",
            "app-name", "procid", "msgid", "structured-data")}
        pri = int(f["pri"])
    except (TypeError, ValueError):
        return out.add_error(row, line, ts_ns)
    if not -(1 << 31) <= pri < 1 << 31:
        return out.add_error(row, line, ts_ns)

    tr = tg = ts_ns
    v = f["timereported"]
    if v and v != "-":
        tr = _parse_rfc3339_ns(v)
        if tr is None:
            return out.add_error(row, line, ts_ns)
    v = f["timegenerated"]
    if v and v != "-":
        tg = _parse_rfc3339_ns(v)
        if tg is None:
            return out.add_error(row, line, ts_ns)

    def nil_trim(key):
        return "" if f[key] == "-" else f[key].strip()

    props = d.get("$!") or {}
    rsys = {str(k).strip(): _fmt_value(v).strip() for k, v in props.items()} \
        if isinstance(props, dict) else {}
    out.add(row, pri=pri, fac=pri // 8, sev=pri % 8, ver=1, tr=tr, tg=tg,
            host=nil_trim("hostname"), app=nil_trim("app-name"),
            proc=nil_trim("procid"), msgid=nil_trim("msgid"),
            structured=nil_trim("structured-data"),
            msg=f["msg"].strip(),
            props=props_dumps({"rsyslog": rsys} if rsys else {}))


def decode_json_block(texts, ts_ns, out: RecordBuilder, cfg=None):
    for row, (line, n) in enumerate(zip(texts, ts_ns)):
        if not line:
            continue
        decode_json_one(line, n, out, row)


def decode_rsyslog_block(texts, ts_ns, out: RecordBuilder, cfg=None):
    for row, (line, n) in enumerate(zip(texts, ts_ns)):
        if not line:
            continue
        decode_rsyslog_one(line, n, out, row)


# ---------------------------------------------------------------------------
# vectorized fast paths (decoders/vec.py): plain-text objects read with
# pyarrow.json.read_json, a rejected block in halves; everything else,
# including each single row Arrow rejects, goes to the per-row decoders
# above
# ---------------------------------------------------------------------------

_JSON_SCHEMA = pa.schema([(k, pa.string()) for k in (
    "facility", "severity", "timereported", "timegenerated", "hostname",
    "appname", "procid", "msgid", "message")])
_RSYSLOG_SCHEMA = pa.schema([(k, pa.string()) for k in (
    "msg", "timereported", "timegenerated", "hostname", "pri", "app-name",
    "procid", "msgid", "structured-data")])
_FACILITY_NAMES = pa.array(FACILITIES)
_SEVERITY_NAMES = pa.array(SEVERITIES)


def _name_code(col, names, default):
    """facility/severity_from_string over a column."""
    return pc.fill_null(pc.index_in(col, value_set=names), default)


def decode_json_block_vec(texts, ts_ns, cfg=None):
    """RegularSyslog fast path. Rows with ``properties`` fall back."""
    return vec.decode_objects(texts, ts_ns, _JSON_SCHEMA, _json_cols)


def _json_cols(rows, t, ts_ns):
    bad = np.zeros(len(rows), dtype=bool)
    if "properties" in t.column_names:
        bad |= vec.mask(pc.is_valid(t["properties"]))
    times = []
    for name in ("timereported", "timegenerated"):
        col = vec.blank(t[name])
        ns, ok = vec.rfc3339_ns(col)
        present = vec.mask(pc.not_equal(col, ""))
        bad |= present & ~ok
        times.append(np.where(present, ns, 0))
    fac = _name_code(vec.blank(t["facility"]), _FACILITY_NAMES, F_USER)
    sev = _name_code(vec.blank(t["severity"]), _SEVERITY_NAMES, S_INFO)
    return vec.record_cols(
        rows, ~bad,
        priority=pc.add(pc.multiply(fac, 8), sev), facility=fac,
        severity=sev, version=1, time_reported=times[0],
        time_generated=times[1], hostname=vec.blank(t["hostname"]),
        appname=vec.blank(t["appname"]), procid=vec.blank(t["procid"]),
        msgid=vec.blank(t["msgid"]), message=vec.blank(t["message"]))


def decode_rsyslog_block_vec(texts, ts_ns, cfg=None):
    """rsyslog-export fast path. ``pri`` must be 1-9 plain digits (the
    int32 cast stays safe); the ``$!`` bag renders when it holds int64
    or string values."""
    return vec.decode_objects(texts, ts_ns, _RSYSLOG_SCHEMA, _rsyslog_cols)


def _rsyslog_cols(rows, t, ts_ns):
    pri_s = vec.blank(t["pri"])
    bad = ~vec.matches(pri_s, r"^[0-9]{1,9}$")
    pri = pc.cast(pc.if_else(pa.array(bad), "0", pri_s), pa.int32())
    row_ns = ts_ns[rows]
    times = []
    for name in ("timereported", "timegenerated"):
        col = vec.blank(t[name])
        ns, ok = vec.rfc3339_ns(col)
        own = vec.mask(pc.is_in(col, value_set=pa.array(["", "-"])))
        bad |= ~own & ~ok
        times.append(np.where(own, row_ns, ns))

    def nil_trim(name):
        col = vec.blank(t[name])
        return pc.if_else(pc.equal(col, "-"), "", pc.utf8_trim(col, " "))

    props = "{}"
    bag = t["$!"] if "$!" in t.column_names else None
    if bag is not None and pa.types.is_struct(bag.type):
        pieces, odd = vec.extras_pieces(
            {f.name: pc.struct_field(bag, f.name) for f in bag.type},
            len(rows), strip=True)
        bad |= odd
        if pieces:
            props = vec.props_json("rsyslog", pieces)
    fac = pc.divide(pri, 8)
    return vec.record_cols(
        rows, ~bad,
        priority=pri, facility=fac,
        severity=pc.subtract(pri, pc.multiply(fac, 8)), version=1,
        time_reported=times[0], time_generated=times[1],
        hostname=nil_trim("hostname"), appname=nil_trim("app-name"),
        procid=nil_trim("procid"), msgid=nil_trim("msgid"),
        structured=nil_trim("structured-data"),
        message=pc.utf8_trim(vec.blank(t["msg"]), " "), properties=props)
