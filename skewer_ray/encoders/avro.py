"""Dependency-free Avro binary encoding of the SyslogMessage record
(avro/syslogmessage.avsc; conversion semantics model/types.go:262-301).

No Avro library exists in this environment, so the binary encoding
(zigzag-varint lengths, length-prefixed UTF-8 strings, block-encoded
maps) is implemented directly against the reference's fixed schema —
ten string fields in .avsc order plus the two-level Properties map.
Maps are written as a single block in sorted key order (canonical; Avro
readers accept any block split, writers may choose one).

``decode_avro`` is the matching reader, used by the tests to prove the
bytes are self-consistent and by any consumer without an Avro runtime.
"""

from __future__ import annotations

from ..constants import FACILITIES, SEVERITIES
from ..schema import props_loads
from . import rfc3339nano_from_ns

FIELD_ORDER = ("Facility", "Severity", "TimeReported", "TimeGenerated",
               "Hostname", "Appname", "Procid", "Msgid", "Message")


def _zigzag(n: int) -> int:
    return (n << 1) ^ (n >> 63)


def _varint(n: int) -> bytes:
    n = _zigzag(n)
    out = bytearray()
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def _string(s: str) -> bytes:
    b = s.encode("utf-8")
    return _varint(len(b)) + b


def _map(d: dict, value_enc) -> bytes:
    if not d:
        return _varint(0)
    out = bytearray(_varint(len(d)))
    for k in sorted(d):
        out += _string(k)
        out += value_enc(d[k])
    out += _varint(0)  # end-of-blocks marker
    return bytes(out)


def avro_fields(rec: dict) -> dict:
    """The all-string projection (model/types.go:262-284)."""
    fac, sev = rec["facility"], rec["severity"]
    return {
        "Facility": FACILITIES[fac] if 0 <= fac < len(FACILITIES) else "info",
        "Severity": SEVERITIES[sev] if 0 <= sev < len(SEVERITIES) else "info",
        "TimeReported": rfc3339nano_from_ns(rec["time_reported"]),
        "TimeGenerated": rfc3339nano_from_ns(rec["time_generated"]),
        "Hostname": rec["hostname"],
        "Appname": rec["appname"],
        "Procid": rec["procid"],
        "Msgid": rec["msgid"],
        "Message": rec["message"],
    }


def encode_avro(rec: dict) -> bytes | None:
    f = avro_fields(rec)
    out = bytearray()
    for name in FIELD_ORDER:
        out += _string(f[name])
    props = props_loads(rec["properties"])
    out += _map(props, lambda inner: _map(inner, _string))
    return bytes(out)


def encode_fullavro(rec: dict) -> bytes | None:
    """FullMessage binary Avro (avro/fullmessage.avsc field order:
    ClientAddr, SourceType, SourcePath, SourcePort:int, Uid, Fields).
    Batch model: no client socket → ClientAddr/SourcePath empty,
    SourcePort 0; SourceType carries the transcript role and Uid the
    deterministic row uid (model/types.go:351-375 conversion)."""
    inner = encode_avro(rec)
    if inner is None:
        return None
    return (_string("") + _string(rec.get("role") or "") + _string("")
            + _varint(0) + _string(rec.get("uid") or "") + inner)


def decode_fullavro(buf: bytes) -> dict:
    rec = {}
    pos = 0
    rec["ClientAddr"], pos = _read_string(buf, pos)
    rec["SourceType"], pos = _read_string(buf, pos)
    rec["SourcePath"], pos = _read_string(buf, pos)
    rec["SourcePort"], pos = _read_varint(buf, pos)
    rec["Uid"], pos = _read_string(buf, pos)
    rec["Fields"] = decode_avro(buf[pos:])
    return rec


# --- matching reader (tests / avro-less consumers) -------------------------


def _read_varint(buf: bytes, pos: int):
    shift = n = 0
    while True:
        b = buf[pos]
        pos += 1
        n |= (b & 0x7F) << shift
        if not b & 0x80:
            break
        shift += 7
    return (n >> 1) ^ -(n & 1), pos


def _read_string(buf: bytes, pos: int):
    ln, pos = _read_varint(buf, pos)
    return buf[pos:pos + ln].decode("utf-8"), pos + ln


def _read_map(buf: bytes, pos: int, value_dec):
    out = {}
    while True:
        cnt, pos = _read_varint(buf, pos)
        if cnt == 0:
            return out, pos
        if cnt < 0:  # negative count: block byte size follows (spec)
            _sz, pos = _read_varint(buf, pos)
            cnt = -cnt
        for _ in range(cnt):
            k, pos = _read_string(buf, pos)
            v, pos = value_dec(buf, pos)
            out[k] = v


def decode_avro(buf: bytes) -> dict:
    rec = {}
    pos = 0
    for name in FIELD_ORDER:
        rec[name], pos = _read_string(buf, pos)
    def inner(b, p):
        return _read_map(b, p, _read_string)
    rec["Properties"], pos = _read_map(buf, pos, inner)
    assert pos == len(buf), "trailing bytes"
    return rec


# --- textual (Avro JSON) variants — encoders/json.go:58-79,109-132 ---------
#
# The reference's ``jsonavro``/``fulljsonavro`` encoders run goavro's
# TextualFromNative over NativeAvro() (model/types.go:280-301,365-375)
# against avro/syslogmessage.avsc / avro/fullmessage.avsc. For this
# all-string schema the Avro JSON encoding is a plain JSON object with
# the record's fields; goavro iterates Go maps (random order), so like
# every other map surface here the canonical choice is schema order for
# record fields and sorted order for map keys — decode parity with the
# binary form is what the tests pin.

import json as _json


def native_avro(rec: dict) -> dict:
    """NativeAvro() (model/types.go:280-301): avro_fields + Properties,
    in schema field order, maps sorted."""
    out = dict(avro_fields(rec))
    out["Properties"] = {k: dict(sorted(v.items())) for k, v in
                         sorted(props_loads(rec["properties"]).items())}
    return out


def encode_jsonavro(rec: dict) -> str | None:
    """Avro JSON text of the SyslogMessage record (syslogmessage.avsc)."""
    return _json.dumps(native_avro(rec), separators=(",", ":"),
                       ensure_ascii=False)


def encode_fulljsonavro(rec: dict) -> str | None:
    """Avro JSON text of the FullMessage envelope (fullmessage.avsc:
    ClientAddr/SourceType/SourcePath/SourcePort/Uid/Fields). The batch
    model has no client socket, so ClientAddr/SourcePath render empty
    and SourcePort 0; SourceType carries the transcript role (the same
    convention as encode_fulljson) and Uid the deterministic row uid."""
    return _json.dumps({
        "ClientAddr": "",
        "SourceType": rec.get("role") or "",
        "SourcePath": "",
        "SourcePort": 0,
        "Uid": rec.get("uid") or "",
        "Fields": native_avro(rec),
    }, separators=(",", ":"), ensure_ascii=False)
