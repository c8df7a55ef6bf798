"""Decoder registry — the Ray-side equivalent of decoders/decode.go:19-30.

``get_decoder(cfg, parsers)`` returns a block-level callable
``f(texts, ts_ns, out: RecordBuilder)``; ParseStage calls it once per
task, so no parser cache is kept (the reference keys one by murmur3,
decoders/decode.go:147-172). Custom user parsers (the reference's JS
``[[parser]]`` surface, decoders/decode.go:131-145 + javascript/vm.go)
are Python callables ``fn(line: str, ts_ns: int) -> dict | None`` held
by name in the config's ``custom_parsers``; ``get_decoder`` closes over
the one ``cfg.custom_parser`` names, so two configs with a parser of
the same name never see each other's. The dict may set any of: pri,
fac, sev, ver, tr, tg, host, app, proc, msgid, structured, msg, props
(two-level dict); ``None`` is a decode error, and so is every row of
a name the config does not hold.

``get_decoder_vec(cfg)`` returns the format's Arrow fast path, if any
(``_NATIVE_VEC``): it decodes the rows of a plain shape on Arrow
kernels and hands back the rest, which ParseStage decodes per row.
"""

from __future__ import annotations

from .base import DecoderConfig, RecordBuilder
from . import rfc3164, rfc5424, json_format, gelf, influxdb, w3c, ltsv

def _get(d: dict, key: str, default):
    """A user parser's field; a key set to None reads as absent (a null
    time or string would otherwise fail every encoder downstream)."""
    v = d.get(key)
    return default if v is None else v


def _custom_block(fn):
    from ..schema import props_dumps

    def block(texts, ts_ns, out: RecordBuilder, cfg=None):
        for row, (line, n) in enumerate(zip(texts, ts_ns)):
            if not line:
                continue
            if fn is None:
                out.add_error(row, line, n)
                continue
            try:
                d = fn(line, n)
            except Exception:
                d = None
            if d is None:
                out.add_error(row, line, n)
                continue
            props = d.get("props")
            out.add(row, pri=_get(d, "pri", 0), fac=_get(d, "fac", 0),
                    sev=_get(d, "sev", 0), ver=_get(d, "ver", 0),
                    tr=_get(d, "tr", n), tg=_get(d, "tg", n),
                    host=_get(d, "host", ""), app=_get(d, "app", ""),
                    proc=_get(d, "proc", ""), msgid=_get(d, "msgid", ""),
                    structured=_get(d, "structured", ""),
                    msg=_get(d, "msg", ""),
                    props=props_dumps(props) if props else "{}")
    return block


from . import collectd, macos, protobuf_format

_NATIVE = {
    "macos": macos.decode_block,
    "rfc3164": rfc3164.decode_block,
    "rfc5424": rfc5424.decode_block,
    "json": json_format.decode_json_block,
    "rsyslogjson": json_format.decode_rsyslog_block,
    "gelf": gelf.decode_block,
    "influxdb": influxdb.decode_block,
    "collectd": collectd.decode_block,
    "protobuf": protobuf_format.decode_block,
    "w3c": w3c.decode_block,
    "ltsv": ltsv.decode_block,
}

# Arrow fast paths, one per built-in wire format except the binary ones
# (collectd, protobuf) and macos: ``f(texts, ts_ns, cfg) -> (cols,
# fallback_rows)`` (decoders/vec.py). Each takes only the rows whose
# shape its kernels decode byte-identically; ParseStage sends the rest to
# the per-row decoder above, which stays the parity oracle. ``custom``
# user parsers always run per row.
_NATIVE_VEC = {
    "rfc5424": rfc5424.decode_block_vec,
    "rfc3164": rfc3164.decode_block_vec,
    "json": json_format.decode_json_block_vec,
    "rsyslogjson": json_format.decode_rsyslog_block_vec,
    "gelf": gelf.decode_block_vec,
    "influxdb": influxdb.decode_block_vec,
    "w3c": w3c.decode_block_vec,
    "ltsv": ltsv.decode_block_vec,
}


def get_decoder_vec(cfg: DecoderConfig):
    """Arrow fast-path decoder for this config, or None."""
    return _NATIVE_VEC.get(cfg.format)


def get_decoder(cfg: DecoderConfig, parsers: dict | None = None):
    """The block decoder for ``cfg``; a ``custom`` format decodes with
    ``parsers[cfg.custom_parser]``."""
    if cfg.format in _NATIVE:
        return _NATIVE[cfg.format]
    if cfg.format == "custom":
        return _custom_block((parsers or {}).get(cfg.custom_parser))
    raise ValueError(f"unknown decoder format: {cfg.format}")


__all__ = [
    "DecoderConfig", "RecordBuilder", "get_decoder",
]
