"""Live client destinations (TCP, RELP, HTTP, Graylog, NATS, Redis) —
real sockets behind the batch fan-out's per-sink semantics.

TCP (store/dests/tcpdest.go:83-107): TCP has no application-level ack,
so the reference ACKs message N-1 only when the write of message N
succeeds (the ``previousUid`` ratchet); an encoding failure is a
PermError for that uid, a write failure NACKs BOTH the current and the
pending previous uid (either may sit in a lost kernel buffer). The
last message stays PENDING even across a clean ``flush()`` close (a
half-close doesn't prove receipt) — at-least-once, never
at-most-once; ``ack_on_close=True`` opts in to the looser rule.

RELP (store/dests/relpdest.go): windowed sends tagged with txnr; the
server's ``rsp`` answers ack (200→ACK) or reject (500→NACK) each txnr
individually, possibly out of order. The answers share the request
frame grammar (utils/split.go:249 RelpSplit: ``TXNR SP COMMAND SP
DATALEN[ SP DATA]\\n``), so the client reads them with
``RelpStreamParser``.

These are tap/test-scale surfaces (the bulk batch contract stays
parquet); statuses come back as a uid→status dict the lineage layer
can fold into its manifest exactly like the parquet sinks' counts.
"""

from __future__ import annotations

import os
import socket
from dataclasses import dataclass

from .encoders import BINARY_ENCODERS, frame_octet, frame_relp, get_encoder

ACK, NACK, PERMERROR, PENDING = "ack", "nack", "permerror", "pending"


@dataclass
class RelpFrame:
    txnr: int
    command: str
    data: bytes


class RelpParseError(ValueError):
    pass


RELP_MAX_DATA = 132_000   # largest DATALEN a frame may declare


class RelpStreamParser:
    """Incremental RELP frame parser: feed() arbitrary byte chunks,
    collect complete frames (the streaming equivalent of RelpSplit —
    partial frames stay buffered until the rest arrives)."""

    def __init__(self):
        self._buf = b""

    def feed(self, chunk: bytes) -> list[RelpFrame]:
        self._buf += chunk
        frames: list[RelpFrame] = []
        while True:
            fr = self._try_parse_one()
            if fr is None:
                return frames
            frames.append(fr)

    # a complete header is TXNR(≤10 digits) SP COMMAND(≤32) SP
    # DATALEN(≤10 digits) — anything longer without its two spaces is
    # garbage, bounded so a malformed stream can't buffer unboundedly
    MAX_HEADER = 64

    def _try_parse_one(self) -> RelpFrame | None:
        buf = self._buf
        # header: TXNR SP COMMAND SP DATALEN
        parts = buf.split(b" ", 2)
        if len(parts) < 3:
            if len(buf) > self.MAX_HEADER:
                raise RelpParseError("unframed garbage")
            return None
        txnr_b, command_b, rest = parts
        if not txnr_b.isdigit():
            raise RelpParseError(f"bad txnr {txnr_b!r}")
        if not command_b or len(command_b) > 32 or \
                not all(0x61 <= c <= 0x7a for c in command_b):
            # commands are lowercase ASCII words (open/syslog/close/
            # rsp/serverclose/abort); anything else must surface as a
            # protocol error, never a UnicodeDecodeError
            raise RelpParseError(f"bad command {command_b[:32]!r}")
        # DATALEN terminates at SP (data follows) or LF (datalen 0)
        dl_end = 0
        while dl_end < len(rest) and rest[dl_end:dl_end + 1].isdigit():
            dl_end += 1
        if dl_end == 0:
            if rest:  # first byte present and not a digit → malformed,
                # raise instead of waiting forever for "more" bytes
                raise RelpParseError(f"bad datalen start {rest[:1]!r}")
            return None
        if dl_end == len(rest):
            if dl_end > 10:
                raise RelpParseError("bad datalen")
            return None  # digits may continue in the next chunk
        datalen = int(rest[:dl_end])
        if datalen > RELP_MAX_DATA:
            raise RelpParseError(f"frame too large: {datalen}")
        sep = rest[dl_end:dl_end + 1]
        if datalen == 0:
            if sep != b"\n":
                raise RelpParseError("datalen 0 must end with LF")
            consumed = len(txnr_b) + 1 + len(command_b) + 1 + dl_end + 1
            self._buf = buf[consumed:]
            return RelpFrame(int(txnr_b), command_b.decode("ascii"), b"")
        if sep != b" ":
            raise RelpParseError("missing SP before data")
        need = dl_end + 1 + datalen + 1  # DATALEN SP DATA LF
        if len(rest) < need:
            return None
        data = rest[dl_end + 1:dl_end + 1 + datalen]
        if rest[need - 1:need] != b"\n":
            raise RelpParseError("missing frame trailer")
        consumed = len(txnr_b) + 1 + len(command_b) + 1 + need
        self._buf = buf[consumed:]
        return RelpFrame(int(txnr_b), command_b.decode("ascii"), data)


class TcpClientSink:
    """Connect-once TCP client with the reference's lazy-ack ratchet.

    ``ack_on_close=True`` opts in to converting the last pending uid to
    ACK on a clean shutdown — OFF by default because a successful
    half-close does not prove the peer received the bytes (the message
    can sit in a lost kernel buffer); the reference leaves it PENDING
    for redelivery (store/dests/tcpdest.go:83-107)."""

    def __init__(self, address, encoder: str = "rfc5424",
                 line_framing: bool = True, delimiter: str = "\n",
                 ack_on_close: bool = False):
        self._encode = get_encoder(encoder)
        self._binary = encoder in BINARY_ENCODERS
        self._line = line_framing
        self._delim = delimiter
        self._ack_on_close = ack_on_close
        self._sock = socket.create_connection(address)
        self._pending_uid = None

    def send_rows(self, rows: list[dict]) -> dict:
        """Encode+frame+write each record; returns uid→status."""
        status: dict = {}
        for rec in rows:
            uid = rec["uid"]
            payload = self._encode(rec)
            if payload is None:          # encoding error → PermError
                status[uid] = PERMERROR
                continue
            if self._line:
                wire = payload + self._delim
            else:
                wire = frame_octet(payload, binary=self._binary)
            try:
                self._sock.sendall(wire.encode(
                    "latin-1" if self._binary else "utf-8"))
            except OSError:
                status[uid] = NACK
                if self._pending_uid is not None:
                    status[self._pending_uid] = NACK
                    self._pending_uid = None
                return status
            # the write that SUCCEEDS acks the previous message
            if self._pending_uid is not None:
                status[self._pending_uid] = ACK
            self._pending_uid = uid
            status[uid] = PENDING
        return status

    def flush(self) -> dict:
        """Graceful close. The ratchet's last uid stays PENDING (the
        reference's leave-pending-for-redelivery rule: a clean
        half-close does not prove delivery), unless the sink was built
        with ``ack_on_close=True``; a failed shutdown NACKs it."""
        out = {}
        try:
            self._sock.shutdown(socket.SHUT_WR)
            if self._pending_uid is not None:
                out[self._pending_uid] = ACK if self._ack_on_close \
                    else PENDING
                self._pending_uid = None
        except OSError:
            if self._pending_uid is not None:
                out[self._pending_uid] = NACK
                self._pending_uid = None
        finally:
            self._sock.close()
        return out


class RelpClientSink:
    """RELP client: open handshake, windowed syslog frames, per-txnr
    acks read back from the server (200→ACK, 500→NACK).

    ``window`` bounds the frames in flight: after ``window`` unacked
    sends the client drains one rsp before sending more. Without the
    bound, a large batch deadlocks — the server blocks writing acks the
    client isn't reading while the client blocks in sendall (both
    socket buffers full)."""

    def __init__(self, sock: socket.socket, encoder: str = "rfc5424",
                 window: int = 128):
        self._encode = get_encoder(encoder)
        self._binary = encoder in BINARY_ENCODERS
        self._sock = sock
        self._window = max(1, window)
        self._txnr = 1
        self._sock.sendall(
            frame_relp(self._txnr, "open",
                       "relp_version=0\ncommands=syslog").encode())
        # answers share the request frame grammar (TXNR CMD LEN [DATA]
        # LF; the open ack's DATA embeds newlines): parse them
        # incrementally instead of splitting lines
        self._parser = RelpStreamParser()
        self._frames: list = []
        self._read_rsp()  # the open ack

    def _read_rsp(self):
        """Read one ``TXNR rsp LEN DATA`` answer; returns (txnr, code)."""
        while not self._frames:
            chunk = self._sock.recv(4096)
            if not chunk:
                raise ConnectionError("RELP server closed")
            self._frames.extend(self._parser.feed(chunk))
        fr = self._frames.pop(0)
        code = int(fr.data[:3]) if fr.data[:3].isdigit() else 200
        return fr.txnr, code

    def send_rows(self, rows: list[dict]) -> dict:
        status: dict = {}
        txnr_to_uid: dict[int, str] = {}
        outstanding = 0
        for rec in rows:
            uid = rec["uid"]
            payload = self._encode(rec)
            if payload is None:
                status[uid] = PERMERROR
                continue
            # real send window: drain one rsp per send past the bound
            # so neither side's socket buffer can fill up
            if outstanding >= self._window:
                txnr, code = self._read_rsp()
                status[txnr_to_uid[txnr]] = ACK if code == 200 else NACK
                outstanding -= 1
            self._txnr += 1
            txnr_to_uid[self._txnr] = uid
            self._sock.sendall(
                frame_relp(self._txnr, "syslog", payload,
                           binary=self._binary)
                .encode("latin-1" if self._binary else "utf-8"))
            outstanding += 1
        # drain the tail: one rsp per in-flight frame, any order
        for _ in range(outstanding):
            txnr, code = self._read_rsp()
            status[txnr_to_uid[txnr]] = ACK if code == 200 else NACK
        return status

    def close(self):
        self._txnr += 1
        try:
            self._sock.sendall(frame_relp(self._txnr, "close", "").encode())
            self._read_rsp()  # wait for serverclose before tearing down
        except (OSError, ConnectionError):
            pass
        finally:
            self._sock.close()


# ---------------------------------------------------------------------------
# HTTP / Graylog(GELF-UDP) / NATS / Redis client destinations
# (store/dests/httpclient.go, graylog.go, nats.go, redis.go) — the four
# dests r04 still modeled as encode+route only. All four follow the
# base ForEach contract (store/dests/base.go:207-233): encoding error →
# PERMERROR and continue; transport error → NACK the current uid AND
# every remaining one, then stop (the reference calls dofatal and lets
# the store redeliver); success → ACK.
# ---------------------------------------------------------------------------

# encoders.MimeTypes (encoders/encoder.go:43-55): content-type "auto"
# resolves from the configured format; unknown formats → text/plain
MIME_TYPES = {
    "rfc5424": 'text/plain; charset="utf-8"',
    "rfc3164": 'text/plain; charset="utf-8"',
    "file": 'text/plain; charset="utf-8"',
    "json": "application/json",
    "fulljson": "application/json",
    "gelf": "application/json",
    "jsonavro": "application/json",
    "fulljsonavro": "application/json",
    "avro": "application/x-avro-binary",
    "fullavro": "application/x-avro-binary",
    "protobuf": "application/vnd.google.protobuf",
}


def _nack_rest(status: dict, rows: list, start: int) -> dict:
    """base.NACKRemaining: every not-yet-attempted uid is NACKed so the
    store redelivers the whole tail after the fatal."""
    for rec in rows[start:]:
        status.setdefault(rec["uid"], NACK)
    return status


class HttpClientSink:
    """Per-message HTTP requests (store/dests/httpclient.go:57-290):
    URL from a per-message template (str.format over the record — the
    Go text/template equivalent), Content-Type resolved from the
    format ("auto" → MimeTypes ladder), optional basic auth +
    User-Agent. Ack ladder (httpclient.go:232-243 + dequeue): 2xx →
    ACK; any other status or connection failure → NACK (the reference
    wraps non-2xx in an error, and dequeue NACKs every doHTTP error);
    URL-template or encoding failure → PERMERROR (ErrCalculateURL is
    an EncodingError, httpclient.go:261-273)."""

    def __init__(self, address, encoder: str = "rfc5424",
                 method: str = "POST", url_template: str = "/",
                 content_type: str = "auto", useragent: str = "",
                 username: str = "", password: str = ""):
        import http.client
        self._encode = get_encoder(encoder)
        self._binary = encoder in BINARY_ENCODERS
        self._method = method
        self._url_template = url_template
        ct = (content_type or "auto").strip().lower()
        if ct in ("auto", ""):
            ct = MIME_TYPES.get(encoder, "text/plain")
        self._content_type = ct
        self._headers = {}
        if useragent:
            self._headers["User-Agent"] = useragent
        if username and password:
            import base64
            tok = base64.b64encode(f"{username}:{password}".encode())
            self._headers["Authorization"] = "Basic " + tok.decode()
        host, port = address
        self._conn = http.client.HTTPConnection(host, port, timeout=10)

    def send_rows(self, rows: list[dict]) -> dict:
        status: dict = {}
        for i, rec in enumerate(rows):
            uid = rec["uid"]
            payload = self._encode(rec)
            if payload is None:              # encoding error
                status[uid] = PERMERROR
                continue
            try:
                url = self._url_template.format(**rec)
            except (KeyError, IndexError, ValueError):
                status[uid] = PERMERROR      # ErrCalculateURL
                continue
            body = payload.encode("latin-1" if self._binary else "utf-8")
            headers = dict(self._headers)
            headers["Content-Type"] = self._content_type
            import http.client as _hc
            try:
                self._conn.request(self._method, url, body=body,
                                   headers=headers)
                resp = self._conn.getresponse()
                resp.read()                  # drain; keep-alive reuse
            except (OSError, _hc.HTTPException):
                # HTTPException (BadStatusLine, IncompleteRead, …) is a
                # dest error exactly like a socket failure: NACK and
                # stop the batch for redelivery; the keep-alive
                # connection is broken, so the next request reconnects
                self._conn.close()
                status[uid] = NACK
                return _nack_rest(status, rows, i + 1)
            status[uid] = ACK if 200 <= resp.status < 300 else NACK
            if status[uid] == NACK:
                return _nack_rest(status, rows, i + 1)
        return status

    def close(self):
        self._conn.close()


GELF_CHUNK_MAGIC = b"\x1e\x0f"
GELF_MAX_CHUNKS = 128


class GraylogClientSink:
    """GELF-over-UDP writer (store/dests/graylog.go:27-72 with the
    gelf lib's UDP writer semantics): each message is GELF-JSON
    encoded, gzip-compressed (CompressGzip default), and sent as ONE
    datagram when it fits ``mtu`` or as ≤128 chunked datagrams (magic
    1e0f | msg_id[8] | seq u8 | total u8 | part, the frame a Graylog
    input reassembles). UDP is fire-and-forget:
    a successful write ACKs (ForEach ackf=true); >128 chunks or a
    socket error is a send failure → NACK current + remaining."""

    def __init__(self, address, compress: bool = True, mtu: int = 1420):
        import socket as _socket
        self._sock = _socket.socket(_socket.AF_INET, _socket.SOCK_DGRAM)
        self._addr = tuple(address)
        self._compress = compress
        self._mtu = mtu

    def send_rows(self, rows: list[dict]) -> dict:
        import gzip
        from .encoders import encode_gelf
        status: dict = {}
        for i, rec in enumerate(rows):
            uid = rec["uid"]
            payload = encode_gelf(rec)
            if payload is None:
                status[uid] = PERMERROR
                continue
            data = payload.encode("utf-8")
            if self._compress:
                data = gzip.compress(data, mtime=0)
            try:
                if len(data) <= self._mtu:
                    self._sock.sendto(data, self._addr)
                else:
                    part = self._mtu - 12   # header overhead per chunk
                    n = (len(data) + part - 1) // part
                    if n > GELF_MAX_CHUNKS:
                        raise OSError("message requires too many chunks")
                    # fresh id per send: a redelivered message must not
                    # share chunk ids with an earlier, partial send
                    mid = os.urandom(8)
                    for s in range(n):
                        frame = (GELF_CHUNK_MAGIC + mid
                                 + bytes([s, n])
                                 + data[s * part:(s + 1) * part])
                        self._sock.sendto(frame, self._addr)
            except OSError:
                status[uid] = NACK
                return _nack_rest(status, rows, i + 1)
            status[uid] = ACK
        return status

    def close(self):
        self._sock.close()


class _CrlfReader:
    """Buffered CRLF-line reader shared by the NATS / Redis text
    protocols (both are \\r\\n-framed)."""

    def __init__(self, sock):
        self._sock = sock
        self._buf = b""

    def line(self) -> bytes:
        while b"\r\n" not in self._buf:
            chunk = self._sock.recv(4096)
            if not chunk:
                raise ConnectionError("peer closed")
            self._buf += chunk
        out, self._buf = self._buf.split(b"\r\n", 1)
        return out

    def exactly(self, n: int) -> bytes:
        while len(self._buf) < n:
            chunk = self._sock.recv(4096)
            if not chunk:
                raise ConnectionError("peer closed")
            self._buf += chunk
        out, self._buf = self._buf[:n], self._buf[n:]
        return out


class NatsClientSink:
    """NATS publisher (store/dests/nats.go:84-99): INFO/CONNECT/PING
    handshake, then one ``PUB <topic> <len>`` text frame per message —
    publish is fire-and-forget (conn.Publish buffers client-side), so
    a successful write ACKs; the topic comes from the routed row
    (ForEachWithTopic). close() drains with a PING/PONG round trip
    (the library's flush-on-close)."""

    def __init__(self, address, encoder: str = "rfc5424",
                 default_topic: str = "skewer"):
        import json as _json
        import socket as _socket
        self._encode = get_encoder(encoder)
        self._binary = encoder in BINARY_ENCODERS
        self._default_topic = default_topic
        # bounded like HttpClientSink's timeout=10: a hung peer must
        # surface as OSError (→ NACK/redelivery), never a wedged worker
        self._sock = _socket.create_connection(tuple(address), timeout=10)
        self._rd = _CrlfReader(self._sock)
        info = self._rd.line()
        if not info.startswith(b"INFO "):
            raise ConnectionError(f"not a NATS server: {info[:40]!r}")
        opts = _json.dumps({"verbose": False, "pedantic": False,
                            "name": "skewer_ray"})
        self._sock.sendall(f"CONNECT {opts}\r\nPING\r\n".encode())
        if self._rd.line() != b"PONG":
            raise ConnectionError("NATS handshake failed")

    def send_rows(self, rows: list[dict]) -> dict:
        status: dict = {}
        for i, rec in enumerate(rows):
            uid = rec["uid"]
            payload = self._encode(rec)
            if payload is None:
                status[uid] = PERMERROR
                continue
            topic = rec.get("topic") or self._default_topic
            data = payload.encode("latin-1" if self._binary else "utf-8")
            try:
                self._sock.sendall(f"PUB {topic} {len(data)}\r\n".encode()
                                   + data + b"\r\n")
            except OSError:
                status[uid] = NACK
                return _nack_rest(status, rows, i + 1)
            status[uid] = ACK
        return status

    def close(self):
        try:
            self._sock.sendall(b"PING\r\n")
            while self._rd.line() != b"PONG":
                pass                          # skip async server frames
        except (OSError, ConnectionError):
            pass
        finally:
            self._sock.close()


class RedisClientSink:
    """Redis list destination (store/dests/redis.go:50-86): PING at
    connect (NewRedisDestination pings before accepting the dest),
    then ``RPUSH <topic> <payload>`` per message with the topic from
    the routed row. RESP integer reply → ACK; RESP -ERR or transport
    failure → NACK current + remaining (redis errors are not encoding
    errors, so the base ForEach stops the batch)."""

    def __init__(self, address, encoder: str = "rfc5424",
                 default_topic: str = "skewer"):
        import socket as _socket
        self._encode = get_encoder(encoder)
        self._binary = encoder in BINARY_ENCODERS
        self._default_topic = default_topic
        # bounded like HttpClientSink's timeout=10: a hung peer must
        # surface as OSError (→ NACK/redelivery), never a wedged worker
        self._sock = _socket.create_connection(tuple(address), timeout=10)
        self._rd = _CrlfReader(self._sock)
        self._sock.sendall(b"*1\r\n$4\r\nPING\r\n")
        if self._rd.line() != b"+PONG":
            raise ConnectionError("redis PING failed")

    @staticmethod
    def _resp(*parts: bytes) -> bytes:
        out = [b"*%d\r\n" % len(parts)]
        for p in parts:
            out.append(b"$%d\r\n%s\r\n" % (len(p), p))
        return b"".join(out)

    def send_rows(self, rows: list[dict]) -> dict:
        status: dict = {}
        for i, rec in enumerate(rows):
            uid = rec["uid"]
            payload = self._encode(rec)
            if payload is None:
                status[uid] = PERMERROR
                continue
            topic = (rec.get("topic") or self._default_topic).encode()
            data = payload.encode("latin-1" if self._binary else "utf-8")
            try:
                self._sock.sendall(self._resp(b"RPUSH", topic, data))
                reply = self._rd.line()
            except (OSError, ConnectionError):
                status[uid] = NACK
                return _nack_rest(status, rows, i + 1)
            if reply.startswith(b":"):
                status[uid] = ACK
            else:                             # -ERR … → dest error
                status[uid] = NACK
                return _nack_rest(status, rows, i + 1)
        return status

    def close(self):
        self._sock.close()
