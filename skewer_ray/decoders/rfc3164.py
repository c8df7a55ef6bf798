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

from .base import RecordBuilder, per_line

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


_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1


@lru_cache(maxsize=1 << 17)
def _parse_rfc3339_ns(s: str):
    """time.Parse(RFC3339Nano / RFC3339) → UnixNano, or None. Cached:
    distinct timestamp strings ≪ rows in real log streams (shared by
    the rfc3164/rfc5424/json/ltsv decoders).

    Deviation: a time outside the int64-nanosecond range
    (1677-09-21T00:12:43.145224192Z … 2262-04-11T23:47:16.854775807Z)
    is None, a decode error, where Go's ``UnixNano`` is undefined; the
    record's int64 columns cannot hold it."""
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
    ns += (delta.days * 86400 + delta.seconds) * 1_000_000_000
    return ns if _I64_MIN <= ns <= _I64_MAX else None


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


def decode_one(line: str, ts_ns: int, out: RecordBuilder, row: int):
    m = line.strip()
    n = ts_ns  # the reproducible now()

    def default_msg():
        out.add(row, tr=n, tg=n, msg=m)

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
        out.add(row, pri=pri, fac=fac, sev=sev, tr=tr, tg=n,
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


decode_block = per_line(decode_one)


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


def _stamp_key_ns(key: str):
    """"<stamp>|<year>" → UnixNano, or None (bad date)."""
    stamp, year = key.rsplit("|", 1)
    m = _STAMP_RE.match(stamp)
    return _stamp_groups_ns(m, int(year)) if m else None


def decode_block_vec(texts, ts_ns, cfg=None):
    """Arrow fast path; returns (cols-with-row_idx, fallback rows) like
    rfc5424.decode_block_vec."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from . import vec
    from ..encoders.vectorized import _render_unique

    n = len(texts)
    stripped = pc.utf8_trim_whitespace(texts)  # ladder strips first
    st = pc.extract_regex(stripped, _VEC_3164)
    ok = pc.is_valid(st).to_numpy(zero_copy_only=False)
    if not ok.any():
        return None, list(range(n))

    # timestamps: RFC3339 through the shared helper; a stamp once per
    # distinct (stamp, year of the row's ts). The alternative that did
    # not match extracts as "".
    iso = pc.struct_field(st, "iso")
    is_iso = vec.mask(pc.not_equal(iso, ""))
    iso_rows = np.nonzero(is_iso)[0]
    years = pc.year(pc.cast(pa.array(ts_ns // 1000, pa.int64()),
                            pa.timestamp("us")))
    stamp_ns = _render_unique(
        pc.binary_join_element_wise(pc.struct_field(st, "stamp"),
                                    pc.cast(years, pa.string()), "|"),
        _stamp_key_ns, pa.int64())
    tr = np.array(pc.fill_null(stamp_ns, 0))
    good = vec.mask(pc.is_valid(stamp_ns))
    tr[iso_rows], good[iso_rows] = vec.rfc3339_ns(
        pc.take(iso, pa.array(iso_rows)))
    good &= ok
    fallback = np.nonzero(~good)[0]
    if not good.any():
        return None, list(fallback)

    def f(name):
        return pc.struct_field(st, name)

    tagm = pc.extract_regex(f("tag"), _TAG_SPLIT)
    pri = pc.cast(f("pri"), pa.int32())
    fac = pc.divide(pri, 8)
    cols = vec.record_cols(
        np.arange(n), good, priority=pri, facility=fac,
        severity=pc.subtract(pri, pc.multiply(fac, 8)), time_reported=tr,
        time_generated=ts_ns, hostname=f("host"),
        appname=pc.fill_null(pc.struct_field(tagm, "app"), ""),
        procid=pc.fill_null(pc.struct_field(tagm, "proc"), ""),
        message=f("msg"))
    return cols, list(fallback)
