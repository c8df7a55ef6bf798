"""Vectorized batch encoders — the fan-out hot path.

The per-row encoders in ``encoders/__init__`` mirror the reference's
per-message Encoder call (encoders/encoder.go:57-69) and stay the
source of truth; these Arrow implementations produce byte-identical
output for whole columns at once (asserted by tests/test_encoders
parity tests). ``encode_batch`` returns None for formats without a
vectorized form — callers fall back to the row loop.

Shapes:
- timestamps: int64 UnixNano → floor seconds → timestamp[s], cast to
  'YYYY-MM-DD HH:MM:SS' strings and cut or joined into RFC 3339, date
  and Go Stamp forms with string kernels (no ``strftime``);
- low-cardinality Python-only pieces (structured-data render, property
  JSON fragments, route sanitization) run once per DISTINCT value via
  dictionary-encode + take;
- validation is regex/length masks; failing rows come out NULL
  (PermError), exactly like the per-row encoder returning None;
- rows the vectorized JSON form can't express byte-identically
  (embedded quotes/control chars, fractional-second timestamps) are
  re-encoded by the per-row encoder and merged back — the fallback set
  is typically a tiny minority of a log stream.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..constants import FACILITIES
from . import _SEVERITY_NAMES, _props_json_fragment, _sd_render, encode_json

_NS = 1_000_000_000
_PRINT_RE = r"^[\x21-\x7e]*$"          # RE2: $ is end-of-text (no \n quirk)
_JSIMPLE_RE = r'^[^"\\\x00-\x1f]*$'


def _combine(col):
    if isinstance(col, pa.ChunkedArray):
        return col.combine_chunks()
    return col


def _render_unique(col, fn, typ=pa.string()) -> pa.Array:
    """Apply a Python function over the column's DISTINCT values only
    (dictionary-encode + take) into a ``typ`` array; fn returning None
    yields null."""
    d = pc.dictionary_encode(_combine(col))
    vals = [fn(v) for v in d.dictionary.to_pylist()]
    return pc.take(pa.array(vals, typ), d.indices)


def _floor_sec(ns_col):
    """int64 UnixNano → whole seconds with FLOOR division, matching the
    per-row encoders' Python ``ns // 1e9`` (ADVICE r02: pc.divide
    truncates toward zero, so a pre-1970 timestamp — reachable via
    e.g. 1969-12-31T23:59:59Z input — would render one second late)."""
    trunc = pc.divide(ns_col, _NS)
    rem = pc.subtract(ns_col, pc.multiply(trunc, _NS))
    adj = pc.and_(pc.less(ns_col, 0), pc.not_equal(rem, 0))
    return pc.subtract(trunc, pc.cast(adj, pa.int64()))


_MONTHS = pa.array(["Jan", "Feb", "Mar", "Apr", "May", "Jun",
                    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"])


def _civil(ns_col) -> pa.Array:
    """int64 UnixNano → 'YYYY-MM-DD HH:MM:SS' (UTC, whole seconds). The
    string cast of timestamp[s] is ~10× cheaper than ``pc.strftime``,
    and int64 nanoseconds always land in four-digit years (1677-2262)."""
    return pc.cast(pc.cast(_floor_sec(ns_col), pa.timestamp("s")),
                   pa.string())


def ts_rfc3339(ns_col) -> pa.Array:
    """int64 UnixNano → 'YYYY-MM-DDTHH:MM:SSZ' (whole seconds)."""
    civil = pc.replace_substring(_civil(ns_col), " ", "T", max_replacements=1)
    return pc.binary_join_element_wise(civil, "Z", "")


def ts_date(ns_col) -> pa.Array:
    return pc.utf8_slice_codeunits(_civil(ns_col), 0, 10)


def _ts_stamp(ns_col) -> pa.Array:
    """Go time.Stamp 'Jan _2 15:04:05' (space-padded day = %e)."""
    civil = _civil(ns_col)
    month = pc.cast(pc.utf8_slice_codeunits(civil, 5, 7), pa.int8())
    day = pc.replace_substring_regex(pc.utf8_slice_codeunits(civil, 8, 10),
                                     "^0", " ")
    return pc.binary_join_element_wise(
        pc.take(_MONTHS, pc.subtract(month, 1)), day,
        pc.utf8_slice_codeunits(civil, 11, 19), " ")


def _nilify(col):
    return pc.if_else(pc.equal(col, ""), "-", col)


def _valid_head(col, maxlen: int):
    return pc.and_(pc.match_substring_regex(col, _PRINT_RE),
                   pc.less_equal(pc.utf8_length(col), maxlen))


def encode_rfc5424_batch(tbl: pa.Table) -> pa.Array:
    host, app = tbl["hostname"], tbl["appname"]
    proc, msgid = tbl["procid"], tbl["msgid"]
    sd = _render_unique(tbl["properties"], lambda p: _sd_render(p or "{}"))
    ok = _valid_head(host, 255)
    for col, lim in ((app, 48), (proc, 128), (msgid, 32)):
        ok = pc.and_(ok, _valid_head(col, lim))
    ok = pc.and_(ok, pc.is_valid(sd))
    head = pc.binary_join_element_wise(
        "<", pc.cast(tbl["priority"], pa.string()), ">1 ",
        ts_rfc3339(tbl["time_reported"]), " ", _nilify(host), " ",
        _nilify(app), " ", _nilify(proc), " ", _nilify(msgid), " ", sd,
        "")
    msg = tbl["message"]
    full = pc.if_else(pc.equal(msg, ""), head,
                      pc.binary_join_element_wise(head, msg, " "))
    return _combine(pc.if_else(ok, full, pa.scalar(None, pa.string())))


def encode_rfc3164_batch(tbl: pa.Table) -> pa.Array:
    proc = pc.utf8_trim_whitespace(tbl["procid"])
    procpart = pc.if_else(
        pc.equal(proc, ""), "",
        pc.binary_join_element_wise("[", proc, "]", ""))
    host = pc.utf8_trim_whitespace(tbl["hostname"])
    host = pc.if_else(pc.equal(host, ""), "localhost", host)
    return _combine(pc.binary_join_element_wise(
        "<", pc.cast(tbl["priority"], pa.string()), ">",
        _ts_stamp(tbl["time_reported"]), " ", host, " ", tbl["appname"],
        procpart, ": ", tbl["message"], ""))


def encode_file_batch(tbl: pa.Table) -> pa.Array:
    return _combine(pc.binary_join_element_wise(
        ts_rfc3339(tbl["time_reported"]), " ", _nilify(tbl["hostname"]),
        " ", _nilify(tbl["appname"]), " ", tbl["message"], ""))


def _name_lookup(codes, names: list[str], default: str):
    table = pa.array(list(names) + [default], pa.string())
    codes = _combine(pc.cast(codes, pa.int64()))
    valid = pc.and_(pc.greater_equal(codes, 0),
                    pc.less(codes, len(names)))
    idx = pc.if_else(valid, codes, len(names))
    return pc.take(table, idx)


def encode_json_batch(tbl: pa.Table) -> pa.Array:
    n = tbl.num_rows
    tr = _combine(tbl["time_reported"]).to_numpy(zero_copy_only=False)
    tg = _combine(tbl["time_generated"]).to_numpy(zero_copy_only=False)
    simple = (tr % _NS == 0) & (tg % _NS == 0)
    opt_parts = []
    for key in ("hostname", "appname", "procid", "msgid", "message"):
        col = tbl[key]
        simple &= pc.match_substring_regex(col, _JSIMPLE_RE).to_numpy(
            zero_copy_only=False)
        opt_parts.append(pc.if_else(
            pc.equal(col, ""), "",
            pc.binary_join_element_wise(f',"{key}":"', col, '"', "")))
    props = _render_unique(tbl["properties"],
                           lambda p: _props_json_fragment(p or "{}"))
    vec = pc.binary_join_element_wise(
        '{"facility":"', _name_lookup(tbl["facility"], FACILITIES, "info"),
        '","severity":"',
        _name_lookup(tbl["severity"], list(_SEVERITY_NAMES), "info"),
        '","timereported":"', ts_rfc3339(tbl["time_reported"]),
        '","timegenerated":"', ts_rfc3339(tbl["time_generated"]), '"',
        *opt_parts, props, "}", "")
    if simple.all():
        return _combine(vec)
    # minority fallback: rows with escapes / fractional seconds go
    # through the per-row encoder and are merged back positionally
    fb_idx = np.nonzero(~simple)[0]
    sub = tbl.take(pa.array(fb_idx, pa.int64()))
    vals: list = [None] * n
    for j, rec in zip(fb_idx, sub.to_pylist()):
        vals[j] = encode_json(rec)
    return _combine(pc.if_else(pa.array(simple), vec,
                               pa.array(vals, pa.string())))


_VECTORIZED = {
    "rfc5424": encode_rfc5424_batch,
    "rfc3164": encode_rfc3164_batch,
    "file": encode_file_batch,
    "json": encode_json_batch,
}


def encode_batch(name: str, tbl: pa.Table) -> pa.Array | None:
    """Vectorized encode of a record table; null rows = PermError.
    Returns None when ``name`` has no vectorized form (caller loops)."""
    fn = _VECTORIZED.get(name)
    return fn(tbl) if fn is not None else None
