"""Decoder infrastructure: per-batch record builder + decoder config.

The reference decoder signature is ``func([]byte) ([]*SyslogMessage, error)``
(decoders/decode.go:17) — 1→N with error. Here each decoder is a
block-level function ``decode_block(texts, ts_ns, out)`` appending parsed
records to a :class:`RecordBuilder`; a decode error appends a single
``parse_ok=False`` record carrying the raw line (the reference counts the
error and drops the message — services/base/metrics.go:16-47).

``ts_ns`` (the transcript ``ts`` column in UnixNano) replaces every
``time.Now()`` in the reference so runs are reproducible
(decoders/rfc3164_format.go:35-38, SURVEY.md §7).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class DecoderConfig:
    """Mirror of conf.DecoderBaseConfig (conf/types.go:455-468)."""

    format: str = "rfc3164"
    w3c_fields: str = ""          # space-separated field names (decoders/w3c.go:14-20)
    custom_parser: str = ""       # user-parser name in custom_parsers (decoders/decode.go:131-145)


class RecordBuilder:
    """Column-wise accumulator for parsed records (one list per column)."""

    __slots__ = (
        "row_idx", "sub_idx", "parse_ok", "priority", "facility", "severity",
        "version", "time_reported", "time_generated", "hostname", "appname",
        "procid", "msgid", "structured", "message", "properties",
    )

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, [])

    def add(self, row, sub=0, ok=True, pri=0, fac=0, sev=0, ver=0,
            tr=0, tg=0, host="", app="", proc="", msgid="",
            structured="", msg="", props="{}"):
        self.row_idx.append(row)
        self.sub_idx.append(sub)
        self.parse_ok.append(ok)
        self.priority.append(pri)
        self.facility.append(fac)
        self.severity.append(sev)
        self.version.append(ver)
        self.time_reported.append(tr)
        self.time_generated.append(tg)
        self.hostname.append(host)
        self.appname.append(app)
        self.procid.append(proc)
        self.msgid.append(msgid)
        self.structured.append(structured)
        self.message.append(msg)
        self.properties.append(props)

    def add_error(self, row, raw: str, ts_ns: int):
        """Decode failure: parse_ok=False, raw line preserved in message."""
        self.add(row, ok=False, tr=ts_ns, tg=ts_ns, msg=raw)

    def __len__(self):
        return len(self.row_idx)


def per_line(decode_one):
    """The block decoder of a per-line ``decode_one(line, ts_ns, out,
    row)``: an empty line decodes to no message, as ParsersEnv.Parse
    does (decoders/decode.go:104-106)."""

    def decode_block(texts, ts_ns, out: RecordBuilder, cfg=None):
        for row, (line, n) in enumerate(zip(texts, ts_ns)):
            if line:
                decode_one(line, n, out, row)

    return decode_block
