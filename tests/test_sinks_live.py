"""Live client destinations (sinks_live) against small in-test peers —
the engine's own wire bytes travel a real socket and come back
losslessly, with the reference's ack semantics.

TCP lazy-ack ratchet: store/dests/tcpdest.go:83-107. RELP windowed
per-txnr acks: store/dests/relpdest.go."""

from __future__ import annotations

import gzip
import socket
import threading
import zlib
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from skewer_ray.sinks_live import (ACK, NACK, PENDING, PERMERROR,
                                   RelpClientSink, RelpStreamParser,
                                   TcpClientSink)

TS = 1768435200 * 10**9


def rec(uid: str, **kw) -> dict:
    base = dict(priority=34, facility=4, severity=2, version=1,
                time_reported=TS, time_generated=TS, hostname="host01",
                appname="app01", procid="4321", msgid="ID47",
                structured="", message=f"body {uid}", properties="{}",
                uid=uid)
    base.update(kw)
    return base


def _tcp_peer():
    """A listening socket and a thread that accepts one connection,
    reads it to EOF and puts its non-empty ``\\n``-split lines in the
    returned list."""
    srv = socket.socket()
    srv.bind(("127.0.0.1", 0))
    srv.listen(1)
    lines: list = []

    def run():
        conn, _ = srv.accept()
        with conn:
            data = b""
            while chunk := conn.recv(65536):
                data += chunk
        lines.extend(ln.decode() for ln in data.split(b"\n") if ln)

    th = threading.Thread(target=run)
    th.start()
    return srv, th, lines


def test_tcp_client_sink_loopback_and_lazy_ack():
    from skewer_ray.encoders import encode_rfc5424

    srv, th, got = _tcp_peer()

    rows = [rec("u1"), rec("u2"), rec("u3", hostname="bad\nhost"),
            rec("u4")]
    sink = TcpClientSink(srv.getsockname(), encoder="rfc5424",
                         ack_on_close=True)
    status = sink.send_rows(rows)
    status.update(sink.flush())
    th.join(timeout=10)
    srv.close()
    assert not th.is_alive()

    # lazy ratchet: u1/u2 acked by the NEXT successful write; u3 is a
    # PermError (invalid hostname) and never hits the wire; u4 acked at
    # graceful flush only because ack_on_close was opted into
    assert status == {"u1": ACK, "u2": ACK, "u3": PERMERROR, "u4": ACK}

    assert got == [encode_rfc5424(rows[0]), encode_rfc5424(rows[1]),
                   encode_rfc5424(rows[3])]


def test_tcp_client_sink_pending_until_next_write():
    srv, th, _lines = _tcp_peer()
    sink = TcpClientSink(srv.getsockname())
    s1 = sink.send_rows([rec("a")])
    assert s1 == {"a": PENDING}          # no app-level ack from TCP yet
    s2 = sink.send_rows([rec("b")])
    assert s2 == {"a": ACK, "b": PENDING}
    # default flush leaves the ratchet PENDING: a clean half-close is
    # not proof of delivery (reference leave-pending semantics)
    assert sink.flush() == {"b": PENDING}
    th.join(timeout=10)
    srv.close()
    assert not th.is_alive()


def _relp_peer(sock, refuse=lambda data: False, reverse=False):
    """The server end of a RELP socketpair: answers ``open`` with its
    offers, each ``syslog`` frame 200 (500 when ``refuse(data)``) —
    each received run of frames in reverse txnr order when ``reverse``
    — and ``close`` with serverclose. Returns the syslog frames read."""
    parser = RelpStreamParser()
    frames: list = []

    def answer(run):
        for fr in reversed(run) if reverse else run:
            code = b"500 KO" if refuse(fr.data) else b"200 OK"
            sock.sendall(b"%d rsp 6 %s\n" % (fr.txnr, code))

    while chunk := sock.recv(65536):
        run = []
        for fr in parser.feed(chunk):
            if fr.command == "open":
                sock.sendall(b"%d rsp %d 200 OK\n%s\n"
                             % (fr.txnr, len(fr.data) + 7, fr.data))
            elif fr.command == "syslog":
                frames.append(fr)
                run.append(fr)
            elif fr.command == "close":
                answer(run)
                sock.sendall(b"%d rsp 0\n0 serverclose 0\n" % fr.txnr)
                return frames
        answer(run)
    return frames


def test_relp_client_window_bounds_inflight_frames():
    """A batch far larger than both socket buffers completes because
    the client drains one rsp per send past the window — without the
    bound this deadlocks (server blocked writing acks, client blocked
    in sendall)."""
    srv_sock, clt_sock = socket.socketpair()
    accepted = []

    def run_server():
        accepted.extend(_relp_peer(srv_sock))
        srv_sock.close()

    th = threading.Thread(target=run_server)
    th.start()

    sink = RelpClientSink(clt_sock, window=8)
    n = 4000
    rows = [rec(f"w{i}", message="x" * 512) for i in range(n)]
    status = sink.send_rows(rows)
    sink.close()
    th.join(timeout=30)
    assert not th.is_alive()

    assert len(accepted) == n
    assert all(status[f"w{i}"] == ACK for i in range(n))


def test_relp_client_against_own_server():
    """Full RELP loopback over a socketpair against the in-test server,
    which answers in reverse txnr order and refuses one frame;
    server-side failures surface as per-uid NACKs regardless of
    completion order."""
    srv_sock, clt_sock = socket.socketpair()
    accepted = []

    def run_server():
        accepted.extend(_relp_peer(
            srv_sock, refuse=lambda data: b"REJECTME" in data,
            reverse=True))
        srv_sock.close()

    th = threading.Thread(target=run_server)
    th.start()

    sink = RelpClientSink(clt_sock)
    rows = [rec("r1"), rec("r2", message="REJECTME"), rec("r3")]
    status = sink.send_rows(rows)
    sink.close()
    th.join(timeout=10)
    assert not th.is_alive()

    assert status == {"r1": ACK, "r2": NACK, "r3": ACK}
    assert len(accepted) == 3            # all frames reached the server


# ---------------------------------------------------------------------------
# HTTP / Graylog / NATS / Redis client dests (store/dests/httpclient.go,
# graylog.go, nats.go, redis.go) — live loopback per transport
# ---------------------------------------------------------------------------


def _http_peer(max_body: int | None = None):
    """A ThreadingHTTPServer on a free port, serving in a thread, that
    records each POST body and answers 201, or 400 when the body is
    longer than ``max_body``. Returns (server, thread, bodies)."""
    bodies: list = []

    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *a):  # quiet test output
            pass

        def do_POST(self):
            body = self.rfile.read(int(self.headers["Content-Length"]))
            if max_body is not None and len(body) > max_body:
                self.send_response(400)
            else:
                bodies.append(body)
                self.send_response(201)
            self.end_headers()

    srv = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    th = threading.Thread(target=srv.serve_forever)
    th.start()
    return srv, th, bodies


def _stop_http_peer(srv, th):
    srv.shutdown()
    srv.server_close()
    th.join(timeout=10)
    assert not th.is_alive()


def test_http_client_sink_posts_and_acks():
    """2xx → ACK per request; encoding failure → PERMERROR without
    touching the wire; payloads arrive intact at the in-test peer."""
    from skewer_ray.encoders import encode_rfc5424
    from skewer_ray.sinks_live import HttpClientSink

    srv, th, bodies = _http_peer()
    rows = [rec("h1"), rec("h2", hostname="bad\nhost"), rec("h3")]
    sink = HttpClientSink(srv.server_address, encoder="rfc5424",
                          url_template="/ingest/{hostname}",
                          useragent="skewer-ray", username="u",
                          password="p")
    status = sink.send_rows(rows)
    sink.close()
    _stop_http_peer(srv, th)
    got = [b.decode() for b in bodies]
    assert status == {"h1": ACK, "h2": PERMERROR, "h3": ACK}
    assert got == [encode_rfc5424(rows[0]), encode_rfc5424(rows[2])]


def test_http_client_sink_4xx_nacks_current_and_remaining():
    """Non-2xx is a dest error, not an encoding error: NACK the failed
    uid AND the unattempted tail (base.ForEach NACKRemaining)."""
    from skewer_ray.sinks_live import HttpClientSink

    # a tight body cap: the padded message's encoded line blows past
    # it → 400, the short one fits
    srv, th, _bodies = _http_peer(max_body=120)
    rows = [rec("ok1", message="short"),
            rec("big", message="x" * 200), rec("never")]
    sink = HttpClientSink(srv.server_address)
    status = sink.send_rows(rows)
    sink.close()
    _stop_http_peer(srv, th)
    assert status == {"ok1": ACK, "big": NACK, "never": NACK}


def test_http_client_sink_content_type_auto():
    from skewer_ray.sinks_live import MIME_TYPES, HttpClientSink
    # the connection opens lazily on the first request: no peer needed
    sink = HttpClientSink(("127.0.0.1", 9), encoder="json",
                          content_type="auto")
    assert sink._content_type == MIME_TYPES["json"] == "application/json"
    sink.close()


def _truncating_http_server(sock, stop):
    """Answers its first request with a truncated body (Content-Length
    100, 5 bytes sent, then close); every later connection gets normal
    empty 200s, request after request, until ``stop`` is set."""
    def read_request(f):
        length = 0
        while True:
            line = f.readline()
            if not line:
                return False
            if line in (b"\r\n", b"\n"):
                break
            k, _, v = line.decode().partition(":")
            if k.strip().lower() == "content-length":
                length = int(v)
        f.read(length)
        return True

    first = True
    sock.settimeout(0.2)
    while not stop.is_set():
        try:
            conn, _ = sock.accept()
        except TimeoutError:
            continue
        conn.settimeout(5)
        with conn, conn.makefile("rb") as f:
            while read_request(f):
                if first:
                    first = False
                    conn.sendall(b"HTTP/1.1 200 OK\r\n"
                                 b"Content-Length: 100\r\n\r\nhello")
                    break
                conn.sendall(b"HTTP/1.1 200 OK\r\n"
                             b"Content-Length: 0\r\n\r\n")


def test_http_client_sink_reconnects_after_truncated_response():
    """A broken keep-alive connection NACKs its batch only: the next
    batch goes out on a fresh connection and ACKs."""
    from skewer_ray.sinks_live import HttpClientSink

    srv = socket.socket()
    srv.bind(("127.0.0.1", 0))
    srv.listen()
    stop = threading.Event()
    thread = threading.Thread(target=_truncating_http_server,
                              args=(srv, stop), daemon=True)
    thread.start()
    sink = HttpClientSink(srv.getsockname())
    try:
        first = sink.send_rows([rec("t1"), rec("t2")])
        second = sink.send_rows([rec("t3")])
    finally:
        sink.close()
        stop.set()
        thread.join(timeout=10)
        srv.close()
    assert not thread.is_alive()
    assert first == {"t1": NACK, "t2": NACK}
    assert second == {"t3": ACK}


def split_datagram(data: bytes):
    """GELF chunk header → (msg_id_hex, seq, total, payload): magic
    1e 0f, 8-byte id, seq, count; an unchunked datagram is ("", 0, 1,
    data)."""
    if data[:2] == b"\x1e\x0f" and len(data) > 12:
        return data[2:10].hex(), data[10], data[11], data[12:]
    return "", 0, 1, data


def inflate(payload: bytes) -> bytes:
    if payload[:2] == b"\x1f\x8b":
        return gzip.decompress(payload)
    if payload[:1] == b"\x78":
        return zlib.decompress(payload)
    return payload


def reassemble(datagrams) -> dict:
    """Chunks joined per message id in seq order and inflated, one
    message per id in arrival order: {"status": ["ok" | "incomplete"],
    "text": [...]}."""
    by_id: dict = {}
    for d in datagrams:
        mid, seq, total, payload = split_datagram(d)
        by_id.setdefault(mid, (total, {}))[1][seq] = payload
    out: dict = {"status": [], "text": []}
    for total, parts in by_id.values():
        whole = sorted(parts) == list(range(total))
        out["status"].append("ok" if whole else "incomplete")
        out["text"].append(inflate(b"".join(
            parts[s] for s in sorted(parts))).decode() if whole else "")
    return out


def _recv_all(srv) -> list:
    """Datagrams until none arrives for 0.5 s (5 s for the first)."""
    datagrams = []
    while True:
        try:
            srv.settimeout(0.5 if datagrams else 5)
            datagrams.append(srv.recvfrom(65536)[0])
        except TimeoutError:
            return datagrams


def test_graylog_sink_single_datagram_roundtrip():
    """Small message → ONE gzip datagram that inflates back to the
    exact GELF JSON."""
    import socket as s

    from skewer_ray.encoders import encode_gelf
    from skewer_ray.sinks_live import GraylogClientSink

    srv = s.socket(s.AF_INET, s.SOCK_DGRAM)
    srv.bind(("127.0.0.1", 0))
    srv.settimeout(5)
    sink = GraylogClientSink(srv.getsockname())
    status = sink.send_rows([rec("g1")])
    data, _peer = srv.recvfrom(65536)
    sink.close()
    srv.close()
    assert status == {"g1": ACK}
    mid, seq, total, payload = split_datagram(data)
    assert (mid, seq, total) == ("", 0, 1)        # unchunked
    assert inflate(payload).decode() == encode_gelf(rec("g1"))


def test_graylog_sink_chunked_reassembles_via_own_source():
    """Payload past the MTU goes out as 1e0f-framed chunks that the
    in-test reassembly turns back into the message."""
    import socket as s

    from skewer_ray.encoders import encode_gelf
    from skewer_ray.sinks_live import GraylogClientSink

    srv = s.socket(s.AF_INET, s.SOCK_DGRAM)
    srv.bind(("127.0.0.1", 0))
    big = rec("g2", message="payload " * 400)     # ~3.2 KB
    sink = GraylogClientSink(srv.getsockname(), compress=False, mtu=600)
    status = sink.send_rows([big])
    datagrams = _recv_all(srv)
    sink.close()
    srv.close()
    assert status == {"g2": ACK}
    assert len(datagrams) > 1                     # really chunked
    out = reassemble(datagrams)
    assert list(out["status"]) == ["ok"]
    assert out["text"][0] == encode_gelf(big)


def test_graylog_sink_redelivery_uses_fresh_chunk_id():
    """Sending the same oversized record twice (a redelivery) yields two
    chunk sets with different message ids, so a receiver reassembles
    each set on its own instead of mixing their chunks."""
    import socket as s

    from skewer_ray.encoders import encode_gelf
    from skewer_ray.sinks_live import GraylogClientSink

    srv = s.socket(s.AF_INET, s.SOCK_DGRAM)
    srv.bind(("127.0.0.1", 0))
    big = rec("g3", message="payload " * 400)
    sink = GraylogClientSink(srv.getsockname(), compress=False, mtu=600)
    statuses = [sink.send_rows([big]), sink.send_rows([big])]
    datagrams = _recv_all(srv)
    sink.close()
    srv.close()
    assert statuses == [{"g3": ACK}, {"g3": ACK}]
    ids = [split_datagram(d)[0] for d in datagrams]
    half = len(ids) // 2
    assert half > 1 and len(ids) == 2 * half
    assert set(ids[:half]) != set(ids[half:])
    assert len(set(ids[:half])) == len(set(ids[half:])) == 1
    out = reassemble(datagrams)
    assert list(out["status"]) == ["ok", "ok"]
    assert list(out["text"]) == [encode_gelf(big)] * 2


def _mini_nats_server(sock, published):
    """One-connection NATS core: INFO, CONNECT/PING handshake, PUB."""
    from skewer_ray.sinks_live import _CrlfReader
    conn, _ = sock.accept()
    conn.sendall(b'INFO {"server_id":"mini"}\r\n')
    rd = _CrlfReader(conn)
    try:
        while True:
            line = rd.line()
            if line.startswith(b"CONNECT"):
                continue
            if line == b"PING":
                conn.sendall(b"PONG\r\n")
                continue
            if line.startswith(b"PUB "):
                _, subj, nbytes = line.split(b" ")
                payload = rd.exactly(int(nbytes))
                rd.exactly(2)                     # trailing CRLF
                published.append((subj.decode(), payload))
    except (ConnectionError, OSError):
        pass
    finally:
        conn.close()


def test_nats_client_sink_publishes_per_topic():
    import socket as s

    from skewer_ray.encoders import encode_rfc5424
    from skewer_ray.sinks_live import NatsClientSink

    srv = s.socket(s.AF_INET, s.SOCK_STREAM)
    srv.bind(("127.0.0.1", 0))
    srv.listen(1)
    published: list = []
    th = threading.Thread(target=_mini_nats_server,
                          args=(srv, published))
    th.start()

    rows = [dict(rec("n1"), topic="app01.host01"),
            rec("n2", hostname="bad\nhost"),      # encoding → PERMERROR
            dict(rec("n3"), topic="t2")]
    sink = NatsClientSink(srv.getsockname(), default_topic="fallback")
    status = sink.send_rows(rows)
    sink.close()                                  # PING/PONG flush
    th.join(timeout=10)
    srv.close()
    assert status == {"n1": ACK, "n2": PERMERROR, "n3": ACK}
    assert published == [
        ("app01.host01", encode_rfc5424(rows[0]).encode()),
        ("t2", encode_rfc5424(rows[2]).encode())]


def _mini_redis_server(sock, lists):
    """One-connection RESP subset: PING and RPUSH (key 'badlist' →
    -ERR, the dest-error path)."""
    from skewer_ray.sinks_live import _CrlfReader
    conn, _ = sock.accept()
    rd = _CrlfReader(conn)
    try:
        while True:
            head = rd.line()
            assert head.startswith(b"*")
            parts = []
            for _ in range(int(head[1:])):
                blen = rd.line()
                assert blen.startswith(b"$")
                parts.append(rd.exactly(int(blen[1:])))
                rd.exactly(2)
            if parts[0].upper() == b"PING":
                conn.sendall(b"+PONG\r\n")
            elif parts[0].upper() == b"RPUSH":
                key = parts[1].decode()
                if key == "badlist":
                    conn.sendall(b"-ERR wrong kind of value\r\n")
                    continue
                lists.setdefault(key, []).extend(parts[2:])
                conn.sendall(b":%d\r\n" % len(lists[key]))
    except (ConnectionError, OSError):
        pass
    finally:
        conn.close()


def test_redis_client_sink_rpush_and_error_ladder():
    import socket as s

    from skewer_ray.encoders import encode_rfc5424
    from skewer_ray.sinks_live import RedisClientSink

    srv = s.socket(s.AF_INET, s.SOCK_STREAM)
    srv.bind(("127.0.0.1", 0))
    srv.listen(1)
    lists: dict = {}
    th = threading.Thread(target=_mini_redis_server, args=(srv, lists))
    th.start()

    rows = [dict(rec("r1"), topic="q1"), dict(rec("r2"), topic="q1"),
            dict(rec("r3"), topic="badlist"), dict(rec("r4"), topic="q2")]
    sink = RedisClientSink(srv.getsockname())
    status = sink.send_rows(rows)
    sink.close()
    th.join(timeout=10)
    srv.close()
    # r3 hits a server-side -ERR: dest error → NACK it AND the
    # unattempted r4 (ForEach stop-the-batch), like the reference
    assert status == {"r1": ACK, "r2": ACK, "r3": NACK, "r4": NACK}
    assert lists == {"q1": [encode_rfc5424(rows[0]).encode(),
                            encode_rfc5424(rows[1]).encode()]}
