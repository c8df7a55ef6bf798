"""LTSV decoders.

The reference's LTSV decoder is an explicit stub returning no messages
(decoders/ltsv.go:5-7) — ``ltsv_stub`` keeps that parity. ``ltsv`` is our
real implementation (labeled tab-separated ``key:value`` pairs): ``time``
(RFC3339) → TimeReported, ``host`` → HostName, ``app`` → AppName,
``msg`` → Message, every other key → properties domain "ltsv";
facility=user(1), severity=info(6) since LTSV carries no PRI. A
repeated key keeps its last value; a ``time`` outside int64 nanoseconds
is a decode error.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import vec
from .base import RecordBuilder
from .rfc3164 import _parse_rfc3339_ns
from ..schema import props_dumps


def decode_stub_block(texts, ts_ns, out: RecordBuilder, cfg=None):
    """Reference parity: every line decodes to zero messages, no error."""
    return


def decode_one(line: str, ts_ns: int, out: RecordBuilder, row: int):
    host = app = msg = ""
    tr = ts_ns
    extra = {}
    for part in line.split("\t"):
        if not part:
            continue
        k, sep, v = part.partition(":")
        if not sep:
            return out.add_error(row, line, ts_ns)
        if k == "time":
            t = _parse_rfc3339_ns(v)
            if t is None:
                return out.add_error(row, line, ts_ns)
            tr = t
        elif k == "host":
            host = v
        elif k == "app":
            app = v
        elif k == "msg":
            msg = v
        else:
            extra[k] = v
    out.add(row, pri=14, fac=1, sev=6, tr=tr, tg=ts_ns, host=host, app=app,
            msg=msg, props=props_dumps({"ltsv": extra} if extra else {}))


def decode_block(texts, ts_ns, out: RecordBuilder, cfg=None):
    for row, (line, n) in enumerate(zip(texts, ts_ns)):
        if not line:
            continue
        decode_one(line, n, out, row)


# ---------------------------------------------------------------------------
# vectorized fast path (decoders/vec.py): plain lines (tab allowed) split
# into labels with split kernels; a row with a label lacking ':' or an
# unparseable time falls back (decode_one reports the error)
# ---------------------------------------------------------------------------

_LABEL = r"^(?P<k>[^:]*):(?P<v>.*)$"
_NAMED = ("time", "host", "app", "msg")


def _last_per_row(n: int, row_of: np.ndarray, sel: np.ndarray):
    """Per row, the flat index of its last selected label (-1: none)."""
    pos = np.nonzero(sel)[0]
    r = row_of[pos]
    last = np.r_[r[1:] != r[:-1], True] if len(r) else r.astype(bool)
    idx = np.full(n, -1, dtype=np.int64)
    idx[r[last]] = pos[last]
    return idx


def decode_block_vec(texts, ts_ns, cfg=None):
    """LTSV fast path; ``{"ltsv": {...}}`` holds the other labels."""
    n = len(texts)
    rows = np.nonzero(vec.matches(texts, vec.PLAIN_TAB))[0]
    if not len(rows):
        return None, np.arange(n)
    m = len(rows)
    parts = pc.split_pattern(pc.take(texts, pa.array(rows)), "\t")
    flat = pc.list_flatten(parts)
    row_of = pc.list_parent_indices(parts).to_numpy()
    kv = pc.extract_regex(flat, _LABEL)
    labeled = vec.mask(pc.is_valid(kv))
    bad = np.zeros(m, dtype=bool)
    bad[row_of[vec.mask(pc.not_equal(flat, "")) & ~labeled]] = True
    key = pc.struct_field(kv, "k")
    val = pc.struct_field(kv, "v")

    def named(name):
        return labeled & vec.mask(pc.equal(key, name))

    is_time = named("time")
    tpos = np.nonzero(is_time)[0]
    ns = np.zeros(len(flat), dtype=np.int64)
    ns[tpos], t_ok = vec.rfc3339_ns(pc.take(val, pa.array(tpos)))
    bad[row_of[tpos[~t_ok]]] = True
    last = _last_per_row(m, row_of, is_time)
    tr = np.where(last >= 0, ns[last], ts_ns[rows])

    def last_value(name):
        idx = _last_per_row(m, row_of, named(name))
        return vec.blank(pc.take(val, pa.array(idx, mask=idx < 0)))

    strs = {name: last_value(name) for name in _NAMED[1:]}

    props = "{}"
    extra = labeled & ~vec.mask(pc.is_in(key, value_set=pa.array(_NAMED)))
    if extra.any():
        # last value per (row, key), keys sorted within the row
        pos = np.nonzero(extra)[0]
        order = pa.table({"r": row_of[pos], "k": pc.take(key, pa.array(pos)),
                          "p": -pos}).sort_by(
            [("r", "ascending"), ("k", "ascending"), ("p", "ascending")])
        r = order["r"].to_numpy()
        k = order["k"].combine_chunks()
        first = np.r_[True, (r[1:] != r[:-1])
                      | ~vec.mask(pc.equal(k[1:], k[:-1]))]
        pick = pa.array(-order["p"].to_numpy()[first])
        pieces = pc.binary_join_element_wise(
            '"', vec.json_text(pc.take(key, pick)), '":"',
            vec.json_text(pc.take(val, pick)), '"', "")
        offsets = np.r_[0, np.cumsum(np.bincount(r[first], minlength=m))]
        props = vec.domain_json("ltsv", pc.binary_join(
            pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), pieces),
            ","))
    cols = vec.record_cols(
        rows, ~bad, priority=14, facility=1, severity=6, time_reported=tr,
        time_generated=ts_ns[rows], hostname=strs["host"],
        appname=strs["app"], message=strs["msg"], properties=props)
    return cols, vec.fallback(n, cols["row_idx"])
