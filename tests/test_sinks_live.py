"""Live client destinations (sinks_live) against the live sources —
the engine's own wire bytes travel a real socket and come back
losslessly, with the reference's ack semantics.

TCP lazy-ack ratchet: store/dests/tcpdest.go:83-107. RELP windowed
per-txnr acks: store/dests/relpdest.go."""

from __future__ import annotations

import socket

from skewer_ray.sinks_live import (ACK, NACK, PENDING, PERMERROR,
                                   RelpClientSink, TcpClientSink)

TS = 1768435200 * 10**9


def rec(uid: str, **kw) -> dict:
    base = dict(priority=34, facility=4, severity=2, version=1,
                time_reported=TS, time_generated=TS, hostname="host01",
                appname="app01", procid="4321", msgid="ID47",
                structured="", message=f"body {uid}", properties="{}",
                uid=uid)
    base.update(kw)
    return base


def test_tcp_client_sink_loopback_and_lazy_ack():
    from skewer_ray.encoders import encode_rfc5424
    from skewer_ray.sources.sockets import TcpLineSource, serve_in_thread

    listener = TcpLineSource()
    th, out = serve_in_thread(listener.collect, 1)

    rows = [rec("u1"), rec("u2"), rec("u3", hostname="bad\nhost"),
            rec("u4")]
    sink = TcpClientSink(listener.address, encoder="rfc5424",
                         ack_on_close=True)
    status = sink.send_rows(rows)
    status.update(sink.flush())
    th.join(timeout=10)
    listener.close()

    # lazy ratchet: u1/u2 acked by the NEXT successful write; u3 is a
    # PermError (invalid hostname) and never hits the wire; u4 acked at
    # graceful flush only because ack_on_close was opted into
    assert status == {"u1": ACK, "u2": ACK, "u3": PERMERROR, "u4": ACK}

    got = [r["text"] for r in out[0].to_pylist()]
    assert got == [encode_rfc5424(rows[0]), encode_rfc5424(rows[1]),
                   encode_rfc5424(rows[3])]


def test_tcp_client_sink_pending_until_next_write():
    from skewer_ray.sources.sockets import TcpLineSource, serve_in_thread
    listener = TcpLineSource()
    th, out = serve_in_thread(listener.collect, 1)
    sink = TcpClientSink(listener.address)
    s1 = sink.send_rows([rec("a")])
    assert s1 == {"a": PENDING}          # no app-level ack from TCP yet
    s2 = sink.send_rows([rec("b")])
    assert s2 == {"a": ACK, "b": PENDING}
    # default flush leaves the ratchet PENDING: a clean half-close is
    # not proof of delivery (reference leave-pending semantics)
    assert sink.flush() == {"b": PENDING}
    th.join(timeout=10)
    listener.close()


def test_relp_client_window_bounds_inflight_frames():
    """A batch far larger than both socket buffers completes because
    the client drains one rsp per send past the window — without the
    bound this deadlocks (server blocked writing acks, client blocked
    in sendall)."""
    import threading

    from skewer_ray.sources.relp import serve_relp_connection

    srv_sock, clt_sock = socket.socketpair()
    accepted = []

    def run_server():
        accepted.extend(serve_relp_connection(srv_sock, lambda fr: True))
        srv_sock.close()

    th = threading.Thread(target=run_server)
    th.start()

    sink = RelpClientSink(clt_sock, window=8)
    n = 4000
    rows = [rec(f"w{i}", message="x" * 512) for i in range(n)]
    status = sink.send_rows(rows)
    sink.close()
    th.join(timeout=30)

    assert len(accepted) == n
    assert all(status[f"w{i}"] == ACK for i in range(n))


def test_relp_client_against_own_server():
    """Full RELP loopback: our client dest talks to our server source
    over a socketpair; server-side failures surface as per-uid NACKs
    regardless of completion order."""
    import threading

    from skewer_ray.sources.relp import serve_relp_connection

    srv_sock, clt_sock = socket.socketpair()
    accepted = []

    def process(frame) -> bool:
        return b"REJECTME" not in frame.data

    def run_server():
        accepted.extend(serve_relp_connection(
            srv_sock, process,
            completion_order=lambda fr: list(reversed(fr))))
        srv_sock.close()

    th = threading.Thread(target=run_server)
    th.start()

    sink = RelpClientSink(clt_sock)
    rows = [rec("r1"), rec("r2", message="REJECTME"), rec("r3")]
    status = sink.send_rows(rows)
    sink.close()
    th.join(timeout=10)

    assert status == {"r1": ACK, "r2": NACK, "r3": ACK}
    assert len(accepted) == 3            # all frames reached the server


# ---------------------------------------------------------------------------
# HTTP / Graylog / NATS / Redis client dests (store/dests/httpclient.go,
# graylog.go, nats.go, redis.go) — live loopback per transport
# ---------------------------------------------------------------------------


def test_http_client_sink_posts_and_acks():
    """2xx → ACK per request; encoding failure → PERMERROR without
    touching the wire; payloads arrive intact at our own HTTP source."""
    from skewer_ray.encoders import encode_rfc5424
    from skewer_ray.sinks_live import HttpClientSink
    from skewer_ray.sources.httpsource import HttpLogSource

    src = HttpLogSource()
    rows = [rec("h1"), rec("h2", hostname="bad\nhost"), rec("h3")]
    sink = HttpClientSink(src.address, encoder="rfc5424",
                          url_template="/ingest/{hostname}",
                          useragent="skewer-ray", username="u",
                          password="p")
    status = sink.send_rows(rows)
    sink.close()
    got = [t.decode() if isinstance(t, bytes) else t
           for t in src.rows()["text"].to_pylist()]
    src.close()
    assert status == {"h1": ACK, "h2": PERMERROR, "h3": ACK}
    assert got == [encode_rfc5424(rows[0]), encode_rfc5424(rows[2])]


def test_http_client_sink_4xx_nacks_current_and_remaining():
    """Non-2xx is a dest error, not an encoding error: NACK the failed
    uid AND the unattempted tail (base.ForEach NACKRemaining)."""
    from skewer_ray.sinks_live import HttpClientSink
    from skewer_ray.sources.httpsource import HttpLogSource

    # single-message mode with a tight cap: the padded message's
    # encoded line blows past it → 400, the short one fits
    src = HttpLogSource(disable_multiple=True, max_message_size=120)
    rows = [rec("ok1", message="short"),
            rec("big", message="x" * 200), rec("never")]
    sink = HttpClientSink(src.address)
    status = sink.send_rows(rows)
    sink.close()
    src.close()
    assert status == {"ok1": ACK, "big": NACK, "never": NACK}


def test_http_client_sink_content_type_auto():
    from skewer_ray.sinks_live import MIME_TYPES, HttpClientSink
    from skewer_ray.sources.httpsource import HttpLogSource
    src = HttpLogSource()
    sink = HttpClientSink(src.address, encoder="json",
                          content_type="auto")
    assert sink._content_type == MIME_TYPES["json"] == "application/json"
    sink.close()
    src.close()


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
    import threading

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


def test_graylog_sink_single_datagram_roundtrip():
    """Small message → ONE gzip datagram our chunk source inflates back
    to the exact GELF JSON."""
    import socket as s

    from skewer_ray.encoders import encode_gelf
    from skewer_ray.sinks_live import GraylogClientSink
    from skewer_ray.sources.gelf_chunks import inflate, split_datagram

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


def test_graylog_sink_chunked_reassembles_via_own_source(ray_session):
    """Payload past the MTU goes out as 1e0f-framed chunks that the
    repo's own gelf_chunks reassembly turns back into the message."""
    import socket as s

    import ray.data as rd

    from skewer_ray.encoders import encode_gelf
    from skewer_ray.sinks_live import GraylogClientSink
    from skewer_ray.sources.gelf_chunks import datagrams_to_rows, reassemble

    srv = s.socket(s.AF_INET, s.SOCK_DGRAM)
    srv.bind(("127.0.0.1", 0))
    srv.settimeout(5)
    big = rec("g2", message="payload " * 400)     # ~3.2 KB
    sink = GraylogClientSink(srv.getsockname(), compress=False, mtu=600)
    status = sink.send_rows([big])
    datagrams = []
    while True:
        try:
            srv.settimeout(0.5 if datagrams else 5)
            data, _peer = srv.recvfrom(65536)
            datagrams.append(data)
        except TimeoutError:
            break
    sink.close()
    srv.close()
    assert status == {"g2": ACK}
    assert len(datagrams) > 1                     # really chunked
    out = reassemble(rd.from_arrow(datagrams_to_rows(datagrams))) \
        .to_pandas()
    assert list(out["status"]) == ["ok"]
    assert out["text"][0] == encode_gelf(big)


def test_graylog_sink_redelivery_uses_fresh_chunk_id(ray_session):
    """Sending the same oversized record twice (a redelivery) yields two
    chunk sets with different message ids, so a receiver reassembles
    each set on its own instead of mixing their chunks."""
    import socket as s

    import ray.data as rd

    from skewer_ray.encoders import encode_gelf
    from skewer_ray.sinks_live import GraylogClientSink
    from skewer_ray.sources.gelf_chunks import (datagrams_to_rows,
                                                reassemble, split_datagram)

    srv = s.socket(s.AF_INET, s.SOCK_DGRAM)
    srv.bind(("127.0.0.1", 0))
    big = rec("g3", message="payload " * 400)
    sink = GraylogClientSink(srv.getsockname(), compress=False, mtu=600)
    statuses = [sink.send_rows([big]), sink.send_rows([big])]
    datagrams = []
    while True:
        try:
            srv.settimeout(0.5 if datagrams else 5)
            datagrams.append(srv.recvfrom(65536)[0])
        except TimeoutError:
            break
    sink.close()
    srv.close()
    assert statuses == [{"g3": ACK}, {"g3": ACK}]
    ids = [split_datagram(d)[0] for d in datagrams]
    half = len(ids) // 2
    assert half > 1 and len(ids) == 2 * half
    assert set(ids[:half]) != set(ids[half:])
    assert len(set(ids[:half])) == len(set(ids[half:])) == 1
    out = reassemble(rd.from_arrow(datagrams_to_rows(datagrams))) \
        .to_pandas()
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
    import threading

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
    import threading

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
