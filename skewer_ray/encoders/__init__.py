"""Encoders — sink serialization formats (registry: encoders/encoder.go:57-69).

Each encoder is ``encode(rec: dict) -> str | None``; ``None`` means the
record cannot be serialized in that format → PermError, mirroring
baseDestination.ForEach mapping encoding errors to permanent errors
(store/dests/base.go:207-265).

Canonicalization decisions (SURVEY.md §7 "what's hard" #1): the reference
iterates Go maps (random order) when writing structured data / properties
and formats times in the local zone via ``time.Unix``; we define sorted
key order and UTC everywhere, on both engine and oracle sides.
"""

from __future__ import annotations

import json
from datetime import datetime, timedelta, timezone
from functools import lru_cache

from ..constants import FACILITIES
from ..schema import props_loads

_EPOCH0 = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MONTH = ["", "Jan", "Feb", "Mar", "Apr", "May", "Jun",
          "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"]


# Timestamp formatting is per-row in every encoder but the distinct-second
# cardinality of real log streams is tiny relative to row count — memoize.
@lru_cache(maxsize=1 << 17)
def _civil_from_sec(sec: int) -> str:
    """'YYYY-MM-DDTHH:MM:SS' for a UTC epoch second (f-string build:
    ~3× faster than strftime on the cache-miss path)."""
    dt = _EPOCH0 + timedelta(seconds=sec)
    return (f"{dt.year:04d}-{dt.month:02d}-{dt.day:02d}T"
            f"{dt.hour:02d}:{dt.minute:02d}:{dt.second:02d}")


def rfc3339_from_ns(ns: int) -> str:
    """Go time.Format(time.RFC3339) for a UTC time, whole seconds."""
    return _civil_from_sec(ns // 1_000_000_000) + "Z"


def rfc3339nano_from_ns(ns: int) -> str:
    """Go time.Format(time.RFC3339Nano): trailing zeros trimmed."""
    sec, rem = divmod(ns, 1_000_000_000)
    base = _civil_from_sec(sec)
    if rem:
        frac = f"{rem:09d}".rstrip("0")
        return f"{base}.{frac}Z"
    return base + "Z"


@lru_cache(maxsize=1 << 17)
def stamp_from_ns(ns: int) -> str:
    """Go time.Format("Jan _2 15:04:05") — space-padded day."""
    dt = _EPOCH0 + timedelta(seconds=ns // 1_000_000_000)
    return (f"{_MONTH[dt.month]} {dt.day:2d} "
            f"{dt.hour:02d}:{dt.minute:02d}:{dt.second:02d}")


import re

_ASCII_RE = re.compile(r"^[\x21-\x7e]*$")


def _printable_ascii(s: str) -> bool:
    # fullmatch, not match: '$' would accept a trailing newline, emitting a
    # corrupt frame instead of returning None (PermError).
    return _ASCII_RE.fullmatch(s) is not None


# SD-NAME (RFC 5424 §6): printable ASCII 33-126 except '=', ']' and '"'
_SD_NAME_RE = re.compile(r'[\x21\x23-\x3c\x3e-\x5c\x5e-\x7e]*')


def _valid_sd_name(s: str) -> bool:
    return _SD_NAME_RE.fullmatch(s) is not None


def _escape_sd(s: str) -> str:
    """encoders/rfc5424.go:84-110 — escape \\ " ] (backslash first)."""
    return s.replace("\\", "\\\\").replace('"', '\\"').replace("]", "\\]")


def _nilify(x: str) -> str:
    return x if x else "-"


@lru_cache(maxsize=1 << 16)
def _sd_render(props_json: str) -> str | None:
    """Structured-data text for a property bag (sorted, escaped); None
    means an invalid SD name → PermError. Keyed by the canonical JSON so
    repeated bags cost one render."""
    props = props_loads(props_json)
    if not props:
        return "-"
    parts = []
    for sid in sorted(props):
        if not _valid_sd_name(sid):
            return None
        parts.append(f"[{sid}")
        kv = props[sid]
        for name in sorted(kv):
            if not _valid_sd_name(name):
                return None
            parts.append(f' {name[:32]}="{_escape_sd(kv[name])}"')
        parts.append("]")
    return "".join(parts)


def encode_rfc5424(rec: dict) -> str | None:
    """encoders/rfc5424.go:124-184 (validation at 35-75)."""
    host, app = rec["hostname"], rec["appname"]
    proc, msgid = rec["procid"], rec["msgid"]
    if not _printable_ascii(host) or len(host) > 255:
        return None
    if not _printable_ascii(app) or len(app) > 48:
        return None
    if not _printable_ascii(proc) or len(proc) > 128:
        return None
    if not _printable_ascii(msgid) or len(msgid) > 32:
        return None
    sd = _sd_render(rec["properties"] or "{}")
    if sd is None:
        return None
    msg = rec["message"]
    head = (f"<{rec['priority']}>1 {rfc3339_from_ns(rec['time_reported'])} "
            f"{_nilify(host)} {_nilify(app)} {_nilify(proc)} "
            f"{_nilify(msgid)} {sd}")
    return f"{head} {msg}" if msg else head


def encode_rfc3164(rec: dict) -> str | None:
    """encoders/rfc3164.go:26-45. Deviation: empty hostname falls back to
    the constant "localhost" instead of os.Hostname() (determinism)."""
    proc = rec["procid"].strip()
    procpart = f"[{proc}]" if proc else ""
    host = rec["hostname"].strip() or "localhost"
    return (f"<{rec['priority']}>{stamp_from_ns(rec['time_reported'])} "
            f"{host} {rec['appname']}{procpart}: {rec['message']}")


_SEVERITY_NAMES = ("emerg", "alert", "crit", "err", "warning", "notice",
                   "info", "debug")
_JSIMPLE_RE = re.compile(r'^[^"\\\x00-\x1f]*$')


def _jstr(s: str) -> str:
    """JSON string literal; fast path for values needing no escapes."""
    # fullmatch: with match()+'$' a trailing '\n' takes the fast path and
    # emits a raw control char → invalid JSON.
    if _JSIMPLE_RE.fullmatch(s):
        return f'"{s}"'
    return json.dumps(s, ensure_ascii=False)


@lru_cache(maxsize=1 << 16)
def _props_json_fragment(props_json: str) -> str:
    """',"properties":{...}' canonical fragment for a property bag."""
    props = props_loads(props_json)
    if not props:
        return ""
    obj = {k: dict(sorted(v.items())) for k, v in sorted(props.items())}
    return ',"properties":' + json.dumps(obj, separators=(",", ":"),
                                         ensure_ascii=False)


def encode_json(rec: dict) -> str | None:
    """RegularSyslog JSON (encoders/json.go:31-44, model/types.go:244-261).

    ffjson field order kept; omitempty honored; times canonicalized to UTC
    RFC3339Nano (the reference marshals local times — non-deterministic).
    Hand-rolled string build (profile-hot: one call per passing row per
    JSON sink) — equivalent to json.dumps of the same ordered dict."""
    sev = rec["severity"]
    fac = rec["facility"]
    parts = [
        '{"facility":"', FACILITIES[fac] if 0 <= fac < 24 else "info",
        '","severity":"',
        _SEVERITY_NAMES[sev] if 0 <= sev < 8 else "info",
        '","timereported":"', rfc3339nano_from_ns(rec["time_reported"]),
        '","timegenerated":"', rfc3339nano_from_ns(rec["time_generated"]),
        '"',
    ]
    for key in ("hostname", "appname", "procid", "msgid", "message"):
        v = rec[key]
        if v:
            parts.append(f',"{key}":{_jstr(v)}')
    parts.append(_props_json_fragment(rec["properties"] or "{}"))
    parts.append("}")
    return "".join(parts)


def encode_file(rec: dict) -> str | None:
    """encoders/file.go:11-37: "TS host app msg" with '-' placeholders."""
    return (f"{rfc3339_from_ns(rec['time_reported'])} "
            f"{rec['hostname'] or '-'} {rec['appname'] or '-'} {rec['message']}")


def encode_gelf(rec: dict) -> str | None:
    """encoders/gelf.go:15-44: GELF 1.1 JSON; properties domains become
    nested extra objects, plus facility/appname/procid/msgid extras
    (note: written WITHOUT the GELF ``_`` prefix, as the reference does).
    Extras emitted in sorted key order (canonical)."""
    fac = rec["facility"]
    extra = {k: dict(sorted(v.items())) for k, v in props_loads(rec["properties"]).items()}
    extra["facility"] = FACILITIES[fac] if 0 <= fac < 24 else "info"
    if rec["appname"]:
        extra["appname"] = rec["appname"]
    if rec["procid"]:
        extra["procid"] = rec["procid"]
    if rec["msgid"]:
        extra["msgid"] = rec["msgid"]
    d = {
        "version": "1.1",
        "host": rec["hostname"],
        "short_message": rec["message"],
        "timestamp": rec["time_reported"] / 1_000_000_000,
        "level": rec["severity"],
    }
    for k in sorted(extra):
        d[k] = extra[k]
    return json.dumps(d, separators=(",", ":"), ensure_ascii=False)


def encode_fulljson(rec: dict) -> str | None:
    """RegularFullMessage JSON (encoders/json.go:83-95): the RegularSyslog
    fields plus the envelope (uid / conf_id-equivalent conv_id / source
    metadata) — here the passthrough transcript keys when present."""
    inner = encode_json(rec)
    if inner is None:
        return None
    d = {"fields": json.loads(inner)}
    for k_out, k_in in (("uid", "uid"), ("conv_id", "conv_id"),
                        ("turn_idx", "turn_idx"), ("source_type", "role")):
        if k_in in rec and rec[k_in] is not None:
            d[k_out] = rec[k_in]
    return json.dumps(d, separators=(",", ":"), ensure_ascii=False)


def encode_protobuf(rec: dict) -> str | None:
    """Real SyslogMessage wire bytes (protowire.py, exact gogo layout of
    model/types.pb.go:598-678) carried latin-1 in the string ``encoded``
    column; ``.encode("latin-1")`` restores the bytes."""
    from ..protowire import encode_syslog_message
    return encode_syslog_message(rec).decode("latin-1")


def encode_avro_str(rec: dict) -> str | None:
    """Avro binary (encoders/avro.py) carried latin-1 in the string
    ``encoded`` column; ``.encode("latin-1")`` restores the bytes."""
    from .avro import encode_avro
    b = encode_avro(rec)
    return None if b is None else b.decode("latin-1")


def encode_fullavro_str(rec: dict) -> str | None:
    """FullMessage binary Avro (encoders/json.go:96-107), latin-1-carried."""
    from .avro import encode_fullavro
    b = encode_fullavro(rec)
    return None if b is None else b.decode("latin-1")


def encode_jsonavro(rec: dict) -> str | None:
    """Avro JSON text of the SyslogMessage record (encoders/json.go:58-79)."""
    from .avro import encode_jsonavro as f
    return f(rec)


def encode_fulljsonavro(rec: dict) -> str | None:
    """Avro JSON text of the FullMessage envelope (encoders/json.go:109-132)."""
    from .avro import encode_fulljsonavro as f
    return f(rec)


# Encoders whose string output carries raw bytes latin-1-mapped (one
# codepoint per byte); wire lengths for these count CODEPOINTS, not
# UTF-8 storage bytes (ADVICE r02 fanout finding).
BINARY_ENCODERS = frozenset({"protobuf", "avro", "fullavro"})


def frame_octet(payload: str, binary: bool = False) -> str:
    """TcpOctetEncode (encoders/encoder.go:139-157): ``<len> <data>``
    with len = wire BYTE length: utf-8 bytes for text encoders;
    codepoints (= latin-1-carried raw bytes) when ``binary``."""
    if not payload:
        return ""
    n = len(payload) if binary else len(payload.encode("utf-8"))
    return f"{n} {payload}"


def frame_octet_bytes(data: bytes) -> bytes:
    if not data:
        return b""
    return str(len(data)).encode() + b" " + data


def frame_relp(txnr: int, command: str, payload: str,
               binary: bool = False) -> str:
    """RELPEncode (encoders/encoder.go:159-178):
    ``<txnr> <command> <len> <data>\\n``; empty payload → len 0, no
    data. ``binary`` as in frame_octet."""
    if not payload:
        return f"{txnr} {command} 0\n"
    n = len(payload) if binary else len(payload.encode("utf-8"))
    return f"{txnr} {command} {n} {payload}\n"


ENCODERS = {
    "rfc5424": encode_rfc5424,
    "rfc3164": encode_rfc3164,
    "json": encode_json,
    "fulljson": encode_fulljson,
    "protobuf": encode_protobuf,
    "avro": encode_avro_str,
    "fullavro": encode_fullavro_str,
    "jsonavro": encode_jsonavro,
    "fulljsonavro": encode_fulljsonavro,
    "file": encode_file,
    "gelf": encode_gelf,
}


def get_encoder(name: str):
    try:
        return ENCODERS[name]
    except KeyError:
        raise ValueError(f"unknown encoder: {name}") from None
