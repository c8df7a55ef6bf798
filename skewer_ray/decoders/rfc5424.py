r"""RFC5424 decoder.

Semantics: the reference parses with a generated ANTLR grammar
(grammars/rfc5424/RFC5424.g4:1-43, listener at
decoders/rfc5424_format.go:25-240). Here: a hand-written header split +
structured-data state machine (NOT a port of the generated parser), same
observable behavior:

- ``-`` header fields → empty strings (rfc5424_format.go:136-192)
- timestamp ``-`` → TimeReported = now() (our ``ts`` column)
- SD ``[sid k="v" ...]`` with ``\\`` ``\"`` ``\]`` escapes → properties
  [sid][k] (G4 escape rules at :25,:41); repeated sid clears the domain
  first (ClearDomain, rfc5424_format.go:196-203)
- any malformed input → decode error (parse_ok=False record).
"""

from __future__ import annotations

import re

from .base import RecordBuilder
from .rfc3164 import _parse_rfc3339_ns
from ..encoders.vectorized import _render_unique
from ..schema import props_dumps

# Grammar parity (RFC5424.g4:4,12-13): PRI/VERSION are DIGIT+ (Atoi —
# leading zeros fine, version 0 fine, no RFC 2-digit cap) and every
# separator is SP+ (multiple spaces between header fields are valid).
# Values above int32 are rejected in decode_one (documented deviation:
# Go's int→int32 conversion would silently wrap; an error is saner).
_HEAD_RE = re.compile(
    r"^<(\d+)>(\d+) +(\S+) +(\S+) +(\S+) +(\S+) +(\S+)"
)
_SD_NAME_RE = re.compile(r"[^ =\]\"]+")


def _parse_sd(s: str, pos: int):
    """Parse one-or-more [sid param="value"...] groups starting at pos.

    Returns (props dict, end pos) or None on malformed input.
    """
    props: dict[str, dict[str, str]] = {}
    n = len(s)
    while pos < n and s[pos] == "[":
        pos += 1
        m = _SD_NAME_RE.match(s, pos)
        if not m:
            return None
        sid = m.group(0)
        pos = m.end()
        props[sid] = {}  # ClearDomain on sid (re)entry
        while pos < n and s[pos] == " ":
            pos += 1
            m = _SD_NAME_RE.match(s, pos)
            if not m:
                return None
            name = m.group(0)
            pos = m.end()
            if pos >= n or s[pos] != "=":
                return None
            pos += 1
            if pos >= n or s[pos] != '"':
                return None
            pos += 1
            buf = []
            while pos < n:
                c = s[pos]
                if c == "\\" and pos + 1 < n and s[pos + 1] in ('\\', '"', ']'):
                    buf.append(s[pos + 1])
                    pos += 2
                elif c == '"':
                    break
                else:
                    buf.append(c)
                    pos += 1
            if pos >= n or s[pos] != '"':
                return None
            pos += 1
            props[sid][name] = "".join(buf)
        if pos >= n or s[pos] != "]":
            return None
        pos += 1
    return props, pos


def decode_one(line: str, ts_ns: int, out: RecordBuilder, row: int):
    m = _HEAD_RE.match(line)
    if not m:
        return out.add_error(row, line, ts_ns)
    pri = int(m.group(1))
    ver = int(m.group(2))
    if pri > 0x7FFFFFFF or ver > 0x7FFFFFFF:
        return out.add_error(row, line, ts_ns)
    ts_s, host, app, proc, msgid = m.group(3), m.group(4), m.group(5), m.group(6), m.group(7)

    if ts_s == "-":
        tr = ts_ns
    else:
        tr = _parse_rfc3339_ns(ts_s)
        if tr is None:
            return out.add_error(row, line, ts_ns)

    pos = m.end()
    # structured data after SP+: "-" or one-or-more [..] groups
    if pos < len(line) and line[pos] == " ":
        while pos < len(line) and line[pos] == " ":
            pos += 1
    else:
        return out.add_error(row, line, ts_ns)
    props = {}
    if line.startswith("-", pos):
        pos += 1
    elif pos < len(line) and line[pos] == "[":
        r = _parse_sd(line, pos)
        if r is None:
            return out.add_error(row, line, ts_ns)
        props, pos = r
    else:
        return out.add_error(row, line, ts_ns)

    msg = ""
    if pos < len(line):
        if line[pos] != " ":
            return out.add_error(row, line, ts_ns)
        # (SP+ msg)?: the greedy SP+ absorbs every leading space, so a
        # message can never start with ' ' (grammar, not RFC, semantics)
        msg = line[pos:].lstrip(" ")

    def nil(x):
        return "" if x == "-" else x

    out.add(row, pri=pri, fac=pri // 8, sev=pri % 8, ver=ver, tr=tr, tg=ts_ns,
            host=nil(host), app=nil(app), proc=nil(proc), msgid=nil(msgid),
            msg=msg, props=props_dumps(props))


def decode_block(texts, ts_ns, out: RecordBuilder, cfg=None):
    for row, (line, n) in enumerate(zip(texts, ts_ns)):
        if not line:
            continue
        decode_one(line, n, out, row)


# ---------------------------------------------------------------------------
# vectorized fast path (identical semantics; rows it can't express fall
# back to decode_one — asserted by the edge-corpus oracle and parity tests)
# ---------------------------------------------------------------------------

# (?s) so '.' crosses newlines inside MSG; RE2 '$' is end-of-text.
# Single-space separators only (the overwhelmingly common shape) —
# SP+-separated headers fall back to decode_one, which accepts them.
# {1,9} digit fields keep the int32 cast safe; longer runs fall back.
_HEAD_VEC = (r"(?s)^<(?P<pri>\d{1,9})>(?P<ver>\d{1,9}) (?P<ts>\S+)"
             r" (?P<host>\S+) (?P<app>\S+) (?P<proc>\S+) (?P<msgid>\S+)"
             r"(?P<rest>(?: .*)?)$")
# ' +' before msg: the grammar's (SP+ msg)? absorbs every leading space
_NIL_SD_VEC = r"(?s)^ -(?: +(?P<msg>.*))?$"
# SD elements without escapes or brackets inside values (the common
# shape); anything with '\' or ']' inside falls back to the state machine
_SD_FAST_VEC = (r"(?s)^ (?P<sd>\[[^\]\\]*\](?:\[[^\]\\]*\])*)"
                r"(?: +(?P<msg>.*))?$")


def _render_sd_cached(sd: str):
    """Full-consumption _parse_sd of one DISTINCT SD string → canonical
    props JSON, or None when the coarse regex over-matched."""
    r = _parse_sd(sd, 0)
    if r is None or r[1] != len(sd):
        return None
    return props_dumps(r[0])


def decode_block_vec(texts, ts_ns, cfg=None):
    """Arrow fast path over a string array of lines.

    Returns (cols, fallback_rows): ``cols`` is a dict of arrays for the
    rows decoded vectorized (including ``row_idx`` into the input), and
    ``fallback_rows`` the local indices that must go through
    decode_one (malformed headers — which ERROR there —, SD with
    escapes, exotic timestamps)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from . import vec

    n = len(texts)
    st = pc.extract_regex(texts, _HEAD_VEC)
    head_ok = pc.is_valid(st).to_numpy(zero_copy_only=False)
    if not head_ok.any():
        return None, list(range(n))

    rest = pc.struct_field(st, "rest")
    nil_m = pc.extract_regex(rest, _NIL_SD_VEC)
    sd_m = pc.extract_regex(rest, _SD_FAST_VEC)
    nil_ok = pc.is_valid(nil_m).to_numpy(zero_copy_only=False) & head_ok
    sd_ok = (pc.is_valid(sd_m).to_numpy(zero_copy_only=False) & head_ok
             & ~nil_ok)

    # timestamps: '-' → the row's ts_ns; else the shared RFC3339 helper
    ts_f = pc.struct_field(st, "ts")
    own = vec.mask(pc.equal(ts_f, "-"))
    parsed, ts_ok = vec.rfc3339_ns(ts_f)
    tr = np.where(own, ts_ns, parsed)
    ts_bad = ~own & ~ts_ok

    # SD: render per DISTINCT string; un-renderable → fallback
    sd_json_arr = _render_unique(pc.struct_field(sd_m, "sd"),
                                 _render_sd_cached)
    sd_bad = sd_ok & ~pc.is_valid(sd_json_arr).to_numpy(zero_copy_only=False)

    good = (nil_ok | sd_ok) & ~ts_bad & ~sd_bad
    fallback = np.nonzero(~good)[0]
    if not good.any():
        return None, list(fallback)

    def f(name):
        return pc.struct_field(st, name)

    def nil(col):
        return pc.if_else(pc.equal(col, "-"), "", col)

    pri = pc.cast(f("pri"), pa.int32())
    fac = pc.divide(pri, 8)
    msg = pc.if_else(pa.array(nil_ok), pc.struct_field(nil_m, "msg"),
                     pc.struct_field(sd_m, "msg"))
    cols = vec.record_cols(
        np.arange(n), good, priority=pri, facility=fac,
        severity=pc.subtract(pri, pc.multiply(fac, 8)),
        version=pc.cast(f("ver"), pa.int32()), time_reported=tr,
        time_generated=ts_ns, hostname=nil(f("host")),
        appname=nil(f("app")), procid=nil(f("proc")),
        msgid=nil(f("msgid")), message=pc.fill_null(msg, ""),
        properties=pc.fill_null(sd_json_arr, "{}"))
    return cols, list(fallback)
