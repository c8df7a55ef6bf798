"""Hand-rolled protobuf wire codec for SyslogMessage.

Mirrors the gogo-generated marshal exactly (model/types.pb.go:598-689,
field tags at :73-85): proto3 scalars omitted when zero,
strings omitted when empty, the non-nullable Properties message always
emitted (tag 0x6a even when empty), map entries as nested
key(1)/value(2) messages with the value field always present for inner
string maps and present-when-non-nil for the outer map.

Canonical deviation (documented; the reference iterates Go maps in
random order): map entries are emitted in SORTED key order, like every
other canonicalization in this repo.

No protobuf runtime is used or required.
"""

from __future__ import annotations

_WT_VARINT = 0
_WT_LEN = 2


def _varint(v: int) -> bytes:
    out = bytearray()
    while v >= 1 << 7:
        out.append((v & 0x7F) | 0x80)
        v >>= 7
    out.append(v)
    return bytes(out)


def _tag(field: int, wt: int) -> bytes:
    return _varint(field << 3 | wt)


def _len_field(field: int, payload: bytes) -> bytes:
    return _tag(field, _WT_LEN) + _varint(len(payload)) + payload


def _str_field(field: int, s: str) -> bytes:
    b = s.encode("utf-8")
    return _len_field(field, b) if b else b""


def _varint_field(field: int, v: int) -> bytes:
    if v == 0:
        return b""
    if v < 0:  # proto3 int64: negative as 64-bit two's complement
        v &= (1 << 64) - 1
    return _tag(field, _WT_VARINT) + _varint(v)


def _inner_properties(kv: dict[str, str]) -> bytes:
    """InnerProperties: map<string,string> map = 1 (types.pb.go:517-540;
    the value field is ALWAYS emitted, even empty)."""
    out = bytearray()
    for k in sorted(kv):
        entry = _len_field(1, k.encode()) + _len_field(2, kv[k].encode())
        out += _len_field(1, entry)
    return bytes(out)


def _properties(props: dict[str, dict[str, str]]) -> bytes:
    """Properties: map<string, InnerProperties> map = 1
    (types.pb.go:552-586)."""
    out = bytearray()
    for k in sorted(props):
        entry = _len_field(1, k.encode()) + _len_field(
            2, _inner_properties(props[k]))
        out += _len_field(1, entry)
    return bytes(out)


def encode_syslog_message(rec: dict) -> bytes:
    """SyslogMessage wire bytes (types.pb.go:598-678). ``rec`` uses the
    engine record columns; ``properties`` may be the canonical JSON
    string or a two-level dict."""
    from .schema import props_loads
    props = rec.get("properties") or {}
    if isinstance(props, str):
        props = props_loads(props)
    out = bytearray()
    out += _varint_field(1, int(rec.get("priority", 0)))
    out += _varint_field(2, int(rec.get("facility", 0)))
    out += _varint_field(3, int(rec.get("severity", 0)))
    out += _varint_field(4, int(rec.get("version", 0)))
    out += _varint_field(5, int(rec.get("time_reported", 0)))
    out += _varint_field(6, int(rec.get("time_generated", 0)))
    out += _str_field(7, rec.get("hostname", ""))
    out += _str_field(8, rec.get("appname", ""))
    out += _str_field(9, rec.get("procid", ""))
    out += _str_field(10, rec.get("msgid", ""))
    out += _str_field(11, rec.get("structured", ""))
    out += _str_field(12, rec.get("message", ""))
    out += _len_field(13, _properties(props))  # always emitted
    return bytes(out)


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------


def _read_varint(data: bytes, pos: int) -> tuple[int, int]:
    v = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise ValueError("truncated varint")
        b = data[pos]
        pos += 1
        v |= (b & 0x7F) << shift
        if not b & 0x80:
            return v, pos
        shift += 7
        if shift > 70:
            raise ValueError("varint too long")


def _fields(data: bytes):
    """Yield (field_number, wire_type, value) over a message payload."""
    pos = 0
    n = len(data)
    while pos < n:
        key, pos = _read_varint(data, pos)
        field, wt = key >> 3, key & 0x7
        if wt == _WT_VARINT:
            v, pos = _read_varint(data, pos)
        elif wt == _WT_LEN:
            ln, pos = _read_varint(data, pos)
            if pos + ln > n:
                raise ValueError("truncated length-delimited field")
            v = data[pos:pos + ln]
            pos += ln
        elif wt == 5:  # fixed32 (skip)
            v = data[pos:pos + 4]
            pos += 4
        elif wt == 1:  # fixed64 (skip)
            v = data[pos:pos + 8]
            pos += 8
        else:
            raise ValueError(f"unsupported wire type {wt}")
        yield field, wt, v


def _decode_map_entry(data: bytes) -> tuple[bytes, bytes]:
    k = v = b""
    for field, _wt, val in _fields(data):
        if field == 1:
            k = val
        elif field == 2:
            v = val
    return k, v


def _signed64(v: int) -> int:
    return v - (1 << 64) if v >= 1 << 63 else v


def decode_syslog_message(data: bytes) -> dict:
    """Wire bytes → engine record dict (canonical properties JSON)."""
    from .schema import props_dumps
    rec = dict(priority=0, facility=0, severity=0, version=0,
               time_reported=0, time_generated=0, hostname="", appname="",
               procid="", msgid="", structured="", message="",
               properties="{}")
    names = {7: "hostname", 8: "appname", 9: "procid", 10: "msgid",
             11: "structured", 12: "message"}
    nums = {1: "priority", 2: "facility", 3: "severity", 4: "version",
            5: "time_reported", 6: "time_generated"}
    props: dict[str, dict[str, str]] = {}
    for field, _wt, v in _fields(data):
        if field in nums:
            rec[nums[field]] = _signed64(int(v))
        elif field in names:
            rec[names[field]] = v.decode("utf-8")
        elif field == 13:
            for f2, _w2, entry in _fields(v):
                if f2 != 1:
                    continue
                k, inner = _decode_map_entry(entry)
                kv: dict[str, str] = {}
                for f3, _w3, e3 in _fields(inner):
                    if f3 == 1:
                        ik, iv = _decode_map_entry(e3)
                        kv[ik.decode()] = iv.decode()
                props[k.decode()] = kv
    rec["properties"] = props_dumps(props)
    return rec
