"""RFC3164 decoder — faithful port of the reference fallback ladder.

Semantics: decoders/rfc3164_format.go:28-194 (p3164 / parseTag /
isHostname). p3164 never fails: every branch degrades to a message-only
record. Quirks mirrored deliberately:

- ``<999>x`` is accepted: priority is NOT range-checked (fac = pri//8 may
  exceed 23), matching ``strconv.Atoi`` + unchecked assignment
  (rfc3164_format.go:50-56).
- the two-token branch where ``s[1]`` contains ``[]:`` parses the tag from
  ``s[0]`` (not ``s[1]``), reproducing the reference bug at
  rfc3164_format.go:147-152.
- the old-timestamp year fixup adds the current year; we use the year of
  the transcript ``ts`` column instead of ``time.Now()``
  (rfc3164_format.go:104 — ``t.AddDate(time.Now().Year(), 0, 0)``).
"""

from __future__ import annotations

import re
from datetime import datetime, timezone

from .base import RecordBuilder

_STAMP_RE = re.compile(r"^([A-Z][a-z]{2}) +(\d{1,2}) (\d{2}):(\d{2}):(\d{2})$")
# prefix form consuming Go's space-padded "Jan _2 15:04:05" stamp
_STAMP_PREFIX_RE = re.compile(
    r"^([A-Z][a-z]{2}) +(\d{1,2}) (\d{2}):(\d{2}):(\d{2})(?: |$)")
_MONTHS = {m: i + 1 for i, m in enumerate(
    ["Jan", "Feb", "Mar", "Apr", "May", "Jun",
     "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"])}
_TAG_CHARS = ("[", "]", ":")

_HOSTNAME_OK = re.compile(r"^[\w.:\-]*$", re.UNICODE)


_EPOCH0 = datetime(1970, 1, 1, tzinfo=timezone.utc)


from functools import lru_cache


# Go's time.Parse(RFC3339) shape exactly: uppercase 'T', dot fraction,
# 'Z' or ±HH:MM (fromisoformat alone is looser: lowercase t/z, comma
# fractions, bare offsets — all rejected by the reference). The fraction
# is parsed by hand to keep full nanosecond precision — fromisoformat
# silently truncates 7-9 digit fractions to microseconds.
_RFC3339_SHAPE = re.compile(
    r"^(\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2})(\.\d+)?(Z|[+-]\d{2}:\d{2})$")


@lru_cache(maxsize=1 << 17)
def _parse_rfc3339_ns(s: str):
    """time.Parse(RFC3339Nano / RFC3339) → UnixNano, or None. Cached:
    distinct timestamp strings ≪ rows in real log streams (shared by
    the rfc3164/rfc5424/json/ltsv decoders)."""
    m = _RFC3339_SHAPE.match(s)
    if not m:
        return None
    base, frac, zone = m.groups()
    try:
        dt = datetime.fromisoformat(
            base + ("+00:00" if zone == "Z" else zone))
    except ValueError:
        return None  # shape ok but invalid calendar values (Feb 30 etc.)
    delta = dt - _EPOCH0
    # Go keeps at most 9 fraction digits (ns); extra digits are dropped
    ns = int((frac[1:] + "000000000")[:9]) if frac else 0
    return (delta.days * 86400 + delta.seconds) * 1_000_000_000 + ns


def parse_tag(tag: str):
    """decoders/rfc3164_format.go:168-186."""
    tag = tag.strip(":")
    appname, procid = "", ""
    i = tag.find("[")
    if i >= 0 and len(tag) > i + 1:
        j = tag.find("]")
        procid = tag[i + 1:j] if j > i else tag[i + 1:]
        if i > 0:
            appname = tag[:i]
    else:
        appname = tag
    return appname, procid


def is_hostname(s: str) -> bool:
    """decoders/rfc3164_format.go:188-194 (letters/digits/.:-_)."""
    return bool(_HOSTNAME_OK.match(s))


def _stamp_groups_ns(m, year: int):
    mon = _MONTHS.get(m.group(1))
    if mon is None:
        return None
    try:
        dt = datetime(year, mon, int(m.group(2)), int(m.group(3)),
                      int(m.group(4)), int(m.group(5)), tzinfo=timezone.utc)
    except ValueError:
        return None
    return int(dt.timestamp()) * 1_000_000_000


def decode_one(line: str, ts_ns: int, out: RecordBuilder, row: int, sub: int = 0):
    m = line.strip()
    n = ts_ns  # the reproducible now()

    def default_msg():
        out.add(row, sub=sub, tr=n, tg=n, msg=m)

    if not m.startswith("<"):
        return default_msg()
    pri_end = m.find(">")
    if pri_end <= 1:
        return default_msg()
    try:
        pri = int(m[1:pri_end])
    except ValueError:
        return default_msg()
    fac, sev = pri // 8, pri % 8

    def emit(tr=0, host="", app="", proc="", msg=""):
        out.add(row, sub=sub, pri=pri, fac=fac, sev=sev, tr=tr, tg=n,
                host=host, app=app, proc=proc, msg=msg)

    rest = m[pri_end + 1:].strip()
    if not rest:
        return emit(tr=0)

    s = rest.split(" ")
    if "0" <= rest[0] <= "9":
        tr = _parse_rfc3339_ns(s[0])
        if tr is None:
            return emit(tr=n, msg=rest)
        if len(s) == 1:
            return emit(tr=tr)
        s = s[1:]
    else:
        # consume the stamp as a prefix so Go's "Jan _2" space-padded
        # single-digit day (double space) still tokenizes correctly
        mm = _STAMP_PREFIX_RE.match(rest)
        if mm is None:
            return emit(tr=n, msg=rest)
        year = datetime.fromtimestamp(n / 1e9, tz=timezone.utc).year
        tr = _stamp_groups_ns(mm, year)
        if tr is None:
            return emit(tr=n, msg=rest)
        remaining = rest[mm.end():].strip()
        if not remaining:
            return emit(tr=tr)
        s = remaining.split(" ")

    if len(s) == 1:
        return emit(tr=tr, msg=s[0])

    if len(s) == 2:
        if s[0].count(":") == 7 or s[0].count(".") == 3:
            # looks like an IPv6/IPv4 address
            if any(c in s[1] for c in _TAG_CHARS):
                app, proc = parse_tag(s[1])
                return emit(tr=tr, host=s[0], app=app, proc=proc)
            return emit(tr=tr, host=s[0], msg=s[1])
        if any(c in s[0] for c in _TAG_CHARS):
            app, proc = parse_tag(s[0])
            return emit(tr=tr, app=app, proc=proc, msg=s[1])
        if any(c in s[1] for c in _TAG_CHARS):
            # reference bug kept: tag parsed from s[0] (rfc3164_format.go:147-152)
            app, proc = parse_tag(s[0])
            return emit(tr=tr, host=s[0], app=app, proc=proc)
        return emit(tr=tr, app=s[0], msg=s[1])

    if any(c in s[0] for c in _TAG_CHARS) or not is_hostname(s[0]):
        app, proc = parse_tag(s[0])
        return emit(tr=tr, app=app, proc=proc, msg=" ".join(s[1:]))
    app, proc = parse_tag(s[1])
    return emit(tr=tr, host=s[0], app=app, proc=proc, msg=" ".join(s[2:]))


def decode_block(texts, ts_ns, out: RecordBuilder, cfg=None):
    for row, (line, n) in enumerate(zip(texts, ts_ns)):
        if line is None or line == "":
            continue  # ParsersEnv.Parse: empty input → no message (decode.go:104-106)
        decode_one(line, n, out, row)


# ---------------------------------------------------------------------------
# vectorized fast path for the CANONICAL ladder shape only:
#   <pri>(stamp|rfc3339) host tag[: or [pid]:] msg...
# i.e. the ≥3-token branch with an ASCII hostname and a simple tag — every
# other ladder branch (2-token quirks, IP sniffing, tagless, bad dates,
# unicode hostnames, extra spaces after the PRI) falls back to decode_one.
# Parity is asserted against decode_block over generated + edge corpora.
# ---------------------------------------------------------------------------

_VEC_3164 = (
    r"(?s)^<(?P<pri>\d{1,5})>"
    r"(?:(?P<stamp>[A-Z][a-z]{2} +\d{1,2} \d{2}:\d{2}:\d{2})|(?P<iso>\d\S*))"
    r" (?P<host>[A-Za-z0-9_.\-]+)"
    r" (?P<tag>[A-Za-z0-9_.\-]+(?:\[[^\]\s]*\])?):"
    r" (?P<msg>.+)$")
_TAG_SPLIT = r"^(?P<app>[^\[]*)(?:\[(?P<proc>[^\]]*)\])?$"


def decode_block_vec(texts, ts_ns, cfg=None):
    """Arrow fast path; returns (cols-with-row_idx, fallback rows) like
    rfc5424.decode_block_vec."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    n = len(texts)
    stripped = pc.utf8_trim_whitespace(texts)  # ladder strips first
    st = pc.extract_regex(stripped, _VEC_3164)
    ok = pc.is_valid(st).to_numpy(zero_copy_only=False)
    if not ok.any():
        return None, list(range(n))

    # timestamps: distinct (stamp, year) / distinct iso string
    stamp = pc.struct_field(st, "stamp")
    iso = pc.struct_field(st, "iso")
    years = pc.year(pc.cast(pa.array(ts_ns // 1000, pa.int64()),
                            pa.timestamp("us"))).to_numpy(
        zero_copy_only=False)
    key = pc.binary_join_element_wise(
        pc.fill_null(stamp, ""), pc.fill_null(iso, ""),
        pa.array([str(y) for y in years]), "|")
    d = pc.dictionary_encode(key)
    if isinstance(d, pa.ChunkedArray):
        d = d.combine_chunks()
    tr_of = []
    for v in d.dictionary.to_pylist():
        # key = stamp + "|" + iso + "|" + year; exactly one of stamp/iso
        # is non-empty, and a stamp never starts with "|"
        rem, y = v.rsplit("|", 1)
        t = None
        if rem.startswith("|"):
            t = _parse_rfc3339_ns(rem[1:])
        else:
            m = _STAMP_RE.match(rem[:-1])
            t = _stamp_groups_ns(m, int(y)) if m else None
        tr_of.append(-1 if t is None else t)
    idx = pc.fill_null(d.indices, 0).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    tr = np.asarray(tr_of, dtype=np.int64)[idx]
    good = ok & (tr >= 0)
    fallback = np.nonzero(~good)[0]
    if not good.any():
        return None, list(fallback)

    gmask = pa.array(good)

    def f(name):
        return pc.filter(pc.struct_field(st, name), gmask)

    tagm = pc.extract_regex(f("tag"), _TAG_SPLIT)
    pri = pc.cast(f("pri"), pa.int32())
    fac = pc.cast(pc.divide(pri, 8), pa.int32())
    ng = int(good.sum())
    cols = {
        "row_idx": np.nonzero(good)[0],
        "parse_ok": pa.array([True] * ng, pa.bool_()),
        "priority": pri,
        "facility": fac,
        "severity": pc.cast(pc.subtract(pri, pc.multiply(fac, 8)),
                            pa.int32()),
        "version": pa.array([0] * ng, pa.int32()),
        "time_reported": pa.array(tr[good], pa.int64()),
        "time_generated": pa.array(ts_ns[good], pa.int64()),
        "hostname": f("host"),
        "appname": pc.fill_null(pc.struct_field(tagm, "app"), ""),
        "procid": pc.fill_null(pc.struct_field(tagm, "proc"), ""),
        "msgid": pa.array([""] * ng, pa.string()),
        "structured": pa.array([""] * ng, pa.string()),
        "message": f("msg"),
    }
    cols["properties"] = pa.array(["{}"] * ng, pa.string())
    return cols, list(fallback)
