"""RELP frame parser (RelpSplit framing, utils/split.go:249): the
incremental parser ``RelpClientSink`` reads the server's answers with."""

from __future__ import annotations

import pytest

from skewer_ray.sinks_live import RelpParseError, RelpStreamParser


def _frame(txnr: int, command: str, data: bytes) -> bytes:
    if data:
        return b"%d %s %d %s\n" % (txnr, command.encode(), len(data), data)
    return b"%d %s 0\n" % (txnr, command.encode())


def test_stream_parser_partial_feeds():
    """Frames split at arbitrary byte boundaries reassemble exactly."""
    payloads = [b"<13>Jun  1 10:00:00 host app: msg %d" % i
                for i in range(5)]
    wire = _frame(1, "open", b"relp_version=0\ncommands=syslog")
    for i, p in enumerate(payloads):
        wire += _frame(i + 2, "syslog", p)
    wire += _frame(len(payloads) + 2, "close", b"")
    for chunk in (1, 3, 7, len(wire)):
        parser = RelpStreamParser()
        got = []
        for off in range(0, len(wire), chunk):
            got.extend(parser.feed(wire[off:off + chunk]))
        assert [f.command for f in got] == \
            ["open"] + ["syslog"] * 5 + ["close"]
        assert [f.txnr for f in got] == list(range(1, 8))
        assert [f.data for f in got][1:-1] == payloads


def test_stream_parser_rejects_garbage():
    with pytest.raises(RelpParseError):
        RelpStreamParser().feed(b"x" * 100)
    with pytest.raises(RelpParseError):
        RelpStreamParser().feed(b"abc syslog 3 foo\n")  # non-numeric txnr


def test_stream_parser_bad_datalen_raises_not_stalls():
    """A non-digit DATALEN must raise immediately — the old behavior
    returned None ('need more bytes') and permanently stalled the
    connection with an unbounded buffer (code-review r03 finding)."""
    p = RelpStreamParser()
    with pytest.raises(RelpParseError):
        p.feed(b"1 syslog x hello\n2 syslog 3 abc\n")
    # a fresh parser still handles the valid follow-on frame fine
    p2 = RelpStreamParser()
    frames = p2.feed(b"2 syslog 3 abc\n")
    assert [(f.txnr, f.data) for f in frames] == [(2, b"abc")]


def test_stream_parser_bad_command_is_parse_error():
    """Non-ASCII / non-lowercase command bytes must surface as
    RelpParseError, never UnicodeDecodeError (ADVICE r03), and a
    malformed header with one space buffers boundedly instead of
    forever."""
    with pytest.raises(RelpParseError):
        RelpStreamParser().feed(b"1 \xffsyslog 3 abc\n")
    with pytest.raises(RelpParseError):
        RelpStreamParser().feed(b"1 SYSLOG 3 abc\n")   # uppercase
    with pytest.raises(RelpParseError):
        RelpStreamParser().feed(b"1 " + b"z" * 100)    # one-space garbage
    # an incomplete but WELL-FORMED header keeps buffering quietly
    p = RelpStreamParser()
    assert p.feed(b"12 syslog") == []
    assert [(f.txnr, f.command, f.data) for f in p.feed(b" 3 abc\n")] \
        == [(12, "syslog", b"abc")]
