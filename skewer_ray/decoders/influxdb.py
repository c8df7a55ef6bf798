r"""InfluxDB line-protocol decoder (1 message per point).

Semantics: decoders/influxdb.go:13-95 — appname="influxdb", Message =
measurement, facility 16 / severity 6 / version 1, tags → properties
domain "influxdb_tags" (tag ``host`` also sets HostName), typed fields →
"influxdb_fields" with ``_integer/_float/_boolean/_string`` key suffixes
and Go-style value formatting (FormatFloat 'f' -1).

Deviation (documented): the reference sets ProcId to influx's
``point.HashID()`` — an influxdb-internal series hash; we leave ProcId
empty instead of reimplementing that hash.

Escapes (``\,`` ``\ `` ``\=`` in identifiers, ``\"`` in strings) are
handled; a malformed line is a decode error (InfluxDecodingError), and
so (a deviation: Go's ``UnixNano`` is undefined there) is a timestamp
outside int64.
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import vec
from .base import RecordBuilder, per_line
from ..encoders.vectorized import _render_unique
from ..schema import props_dumps

_I64 = 1 << 63


def _split_unescaped(s: str, sep: str):
    if "\\" not in s:  # fast path: no escapes (the overwhelming case)
        return s.split(sep)
    parts, buf, i, n = [], [], 0, len(s)
    while i < n:
        c = s[i]
        if c == "\\" and i + 1 < n:
            buf.append(c)
            buf.append(s[i + 1])
            i += 2
            continue
        if c == sep:
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(c)
        i += 1
    parts.append("".join(buf))
    return parts


def _split_top(s: str):
    """Top-level split on unescaped spaces OUTSIDE double-quoted string
    field values (influx allows spaces inside ``f="a b"``)."""
    if '"' not in s:
        return _split_unescaped(s, " ")
    parts, buf, in_q, i, n = [], [], False, 0, len(s)
    while i < n:
        c = s[i]
        if c == "\\" and i + 1 < n:
            buf.append(c)
            buf.append(s[i + 1])
            i += 2
            continue
        if c == '"':
            in_q = not in_q
            buf.append(c)
        elif c == " " and not in_q:
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(c)
        i += 1
    parts.append("".join(buf))
    return parts


def _split_fields(s: str):
    """Field-part split on unescaped commas outside quoted values."""
    if '"' not in s:
        return _split_unescaped(s, ",")
    parts, buf, in_q, i, n = [], [], False, 0, len(s)
    while i < n:
        c = s[i]
        if c == "\\" and i + 1 < n:
            buf.append(c)
            buf.append(s[i + 1])
            i += 2
            continue
        if c == '"':
            in_q = not in_q
            buf.append(c)
        elif c == "," and not in_q:
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(c)
        i += 1
    parts.append("".join(buf))
    return parts


def _unescape(s: str) -> str:
    return s.replace("\\,", ",").replace("\\ ", " ").replace("\\=", "=")


def _fmt_float(v: float) -> str:
    """Go strconv.FormatFloat(v, 'f', -1, 64): shortest decimal, no exponent."""
    s = repr(v)
    if "e" in s or "E" in s:
        s = format(v, ".17f").rstrip("0").rstrip(".")
    if s.endswith(".0"):
        s = s[:-2]
    return s


def _series(key_part: str):
    """``measurement[,tag=v...]`` → (measurement, host, tags)."""
    key_items = _split_unescaped(key_part, ",")
    measurement = _unescape(key_items[0])
    if not measurement:
        raise ValueError("empty measurement")
    tags, host = {}, ""
    for kv in key_items[1:]:
        k, _, v = kv.partition("=")
        if not k or not v:
            raise ValueError("bad tag")
        k, v = _unescape(k), _unescape(v)
        tags[k] = v
        if k == "host":
            host = v
    return measurement, host, tags


def _field_set(field_part: str) -> dict:
    """``k=v[,k=v...]`` → typed-suffix key → Go-formatted value."""
    fields = {}
    for kv in _split_fields(field_part):
        k, eq, v = kv.partition("=")
        if not k or not eq:
            raise ValueError("bad field")
        k = _unescape(k)
        if v.startswith('"') and v.endswith('"') and len(v) >= 2:
            fields[k + "_string"] = v[1:-1].replace('\\"', '"')
        elif v.endswith(("i", "u")) and v[:-1].lstrip("+-").isdigit():
            fields[k + "_integer"] = str(int(v[:-1]))
        elif v in ("t", "T", "true", "True", "TRUE"):
            fields[k + "_boolean"] = "true"
        elif v in ("f", "F", "false", "False", "FALSE"):
            fields[k + "_boolean"] = "false"
        else:
            fields[k + "_float"] = _fmt_float(float(v))
    return fields


def decode_one(line: str, ts_ns: int, out: RecordBuilder, row: int):
    try:
        # measurement[,tag=v...] fields [timestamp]
        top = _split_top(line.strip())
        top = [t for t in top if t != ""]
        if len(top) < 2 or len(top) > 3:
            raise ValueError("bad segment count")
        tr = int(top[2]) if len(top) == 3 else ts_ns
        if not -_I64 <= tr < _I64:
            raise ValueError("timestamp outside int64")
        measurement, host, tags = _series(top[0])
        fields = _field_set(top[1])
    except (ValueError, IndexError):
        return out.add_error(row, line, ts_ns)

    props = {}
    if tags:
        props["influxdb_tags"] = tags
    if fields:
        props["influxdb_fields"] = fields
    out.add(row, pri=16 * 8 + 6, fac=16, sev=6, ver=1, tr=tr, tg=ts_ns,
            host=host, app="influxdb", msg=measurement,
            props=props_dumps(props))


decode_block = per_line(decode_one)


# ---------------------------------------------------------------------------
# vectorized fast path (decoders/vec.py): plain lines without escapes or
# quotes, single-space separated, split by one RE2 extract; the series
# and field set render once per distinct string with the helpers above
# ---------------------------------------------------------------------------

_LINE_VEC = (r"^(?P<key>[^ ]+) (?P<fields>[^ ]+)"
             r"(?: (?P<ts>(?P<neg>-?)(?P<digits>0|[1-9][0-9]{0,18})))?$")


def _json(d: dict) -> str:
    return json.dumps(d, sort_keys=True, separators=(",", ":"))


def _series_json(key_part: str):
    """Per distinct series: measurement + "\n" + host + "\n" + the tag
    piece of the props JSON, or None (a decode error)."""
    try:
        m, host, tags = _series(key_part)
    except (ValueError, IndexError):
        return None
    return "\n".join((m, host, ',"influxdb_tags":' + _json(tags)
                      if tags else ""))


def _fields_json(field_part: str):
    try:
        return _json(_field_set(field_part))
    except (ValueError, IndexError):
        return None


def decode_block_vec(texts, ts_ns, cfg=None):
    """InfluxDB fast path (one point per plain line)."""
    n = len(texts)
    ok = vec.matches(texts, vec.PLAIN) & ~vec.matches(texts, '"')
    st = pc.extract_regex(texts, _LINE_VEC)
    ok &= vec.mask(pc.is_valid(st))
    ts = vec.blank(pc.struct_field(st, "ts"))
    digits = vec.blank(pc.struct_field(st, "digits"))
    # 19 digits fit in int64 up to its bound (same-length strings
    # compare like numbers)
    bound = pc.if_else(pc.equal(pc.struct_field(st, "neg"), "-"),
                       str(_I64), str(_I64 - 1))
    ok &= vec.mask(pc.or_(pc.less(pc.binary_length(digits), 19),
                          pc.less_equal(digits, bound)))
    series = _render_unique(pc.struct_field(st, "key"), _series_json)
    fields = _render_unique(pc.struct_field(st, "fields"), _fields_json)
    ok &= vec.mask(pc.and_(pc.is_valid(series), pc.is_valid(fields)))
    if not ok.any():
        return None, np.arange(n)
    safe = pa.array(~ok)
    no_ts = pc.equal(ts, "")
    tr = pc.cast(pc.if_else(pc.or_(safe, no_ts), "0", ts), pa.int64())
    tr = pc.if_else(no_ts, pa.array(ts_ns, pa.int64()), tr)
    parts = pc.split_pattern(pc.fill_null(series, "\n\n"), "\n")
    cols = vec.record_cols(
        np.arange(n), ok,
        priority=16 * 8 + 6, facility=16, severity=6, version=1,
        time_reported=tr, time_generated=ts_ns,
        hostname=pc.list_element(parts, 1), appname="influxdb",
        message=pc.list_element(parts, 0),
        properties=pc.binary_join_element_wise(
            '{"influxdb_fields":', fields, pc.list_element(parts, 2), "}",
            ""))
    return cols, vec.fallback(n, cols["row_idx"])
