"""Table-driven decoder unit tests mirroring the reference fallback
ladders (decoders/rfc3164_format.go:28-194, rfc5424_format.go, etc.)."""

import json

import pytest

from skewer_ray.decoders import DecoderConfig, RecordBuilder, get_decoder
from skewer_ray.decoders import register_custom_parser

TS = 1768435200 * 1_000_000_000  # 2026-01-15T00:00:00Z


def decode(fmt: str, line: str, **cfg):
    out = RecordBuilder()
    dec = get_decoder(DecoderConfig(format=fmt, **cfg))
    dec([line], [TS], out, DecoderConfig(format=fmt, **cfg))
    recs = []
    for i in range(len(out)):
        recs.append({k: getattr(out, k)[i] for k in out.__slots__})
    return recs


def one(fmt, line, **cfg):
    recs = decode(fmt, line, **cfg)
    assert len(recs) == 1, recs
    return recs[0]


# --- rfc3164 ladder (rfc3164_format.go) -----------------------------------

def test_3164_full_old_stamp():
    r = one("rfc3164", "<34>Jan 15 05:10:02 host01 app[4321]: body words")
    assert (r["priority"], r["facility"], r["severity"]) == (34, 4, 2)
    assert r["hostname"] == "host01"
    assert r["appname"] == "app" and r["procid"] == "4321"
    assert r["message"] == "body words"
    assert r["time_reported"] == TS + (5 * 3600 + 10 * 60 + 2) * 10**9


def test_3164_rfc3339():
    r = one("rfc3164", "<34>2026-01-15T05:10:02+00:00 host01 app: body")
    assert r["hostname"] == "host01" and r["appname"] == "app"
    assert r["time_reported"] == TS + (5 * 3600 + 10 * 60 + 2) * 10**9


def test_rfc3339_go_parity():
    """_parse_rfc3339_ns mirrors Go time.Parse(RFC3339Nano): full ns
    precision kept, loose ISO forms fromisoformat accepts rejected."""
    from skewer_ray.decoders.rfc3164 import _parse_rfc3339_ns as p
    base = 1768453802  # 2026-01-15T05:10:02Z
    assert p("2026-01-15T05:10:02Z") == base * 10**9
    assert p("2026-01-15T05:10:02.123456789Z") == base * 10**9 + 123456789
    assert p("2026-01-15T05:10:02.5Z") == base * 10**9 + 500000000
    # >9 fraction digits: extra digits dropped (Go keeps ns)
    assert p("2026-01-15T05:10:02.1234567891Z") == base * 10**9 + 123456789
    assert p("2026-01-15T05:10:02+02:00") == (base - 7200) * 10**9
    for bad in ("2026-01-15t05:10:02Z",      # lowercase t
                "2026-01-15 05:10:02Z",      # space separator
                "2026-01-15T05:10:02z",      # lowercase z
                "2026-01-15T05:10:02,123Z",  # comma fraction
                "2026-01-15T05:10:02+0200",  # offset without colon
                "2026-01-15T05:10:02",       # no offset
                "2026-02-30T05:10:02Z"):     # invalid calendar date
        assert p(bad) is None, bad


def test_3164_no_pri():
    r = one("rfc3164", "plain message no pri")
    assert r["priority"] == 0 and r["message"] == "plain message no pri"
    assert r["time_reported"] == TS and r["time_generated"] == TS


def test_3164_pri_only():
    r = one("rfc3164", "<34>")
    assert (r["priority"], r["facility"], r["severity"]) == (34, 4, 2)
    assert r["message"] == "" and r["time_reported"] == 0


def test_3164_bad_pri():
    r = one("rfc3164", "<999x>oops 1")
    assert r["priority"] == 0 and r["message"] == "<999x>oops 1"


def test_3164_unchecked_pri_range():
    # strconv.Atoi accepts any int; no range check (rfc3164_format.go:50-56)
    r = one("rfc3164", "<999>Jan 15 05:10:02 h app: m")
    assert r["priority"] == 999 and r["facility"] == 124 and r["severity"] == 7


def test_3164_ipv4_hostname_sniff():
    r = one("rfc3164", "<34>Jan 15 05:10:02 10.0.0.1 app[1]:")
    assert r["hostname"] == "10.0.0.1"
    assert r["appname"] == "app" and r["procid"] == "1"


def test_3164_tag_no_hostname():
    r = one("rfc3164", "<34>Jan 15 05:10:02 app[7]: msg here now")
    # s[0] contains "[]:" ⇒ hostname omitted
    assert r["hostname"] == "" and r["appname"] == "app" and r["procid"] == "7"
    assert r["message"] == "msg here now"


def test_3164_single_token_message():
    r = one("rfc3164", "<34>Jan 15 05:10:02 lonely")
    assert r["message"] == "lonely" and r["hostname"] == ""


def test_3164_two_plain_tokens():
    r = one("rfc3164", "<34>Jan 15 05:10:02 first second")
    # no tag chars anywhere → appname/message branch
    assert r["appname"] == "first" and r["message"] == "second"


# --- rfc5424 ----------------------------------------------------------------

def test_5424_full_sd():
    r = one("rfc5424",
            '<165>1 2026-01-15T05:10:02Z host01 app01 4321 ID47 '
            '[ex@32473 k="v" q="a\\]b"] turn body')
    assert (r["priority"], r["facility"], r["severity"], r["version"]) == (165, 20, 5, 1)
    assert r["hostname"] == "host01" and r["appname"] == "app01"
    assert r["procid"] == "4321" and r["msgid"] == "ID47"
    assert r["message"] == "turn body"
    props = json.loads(r["properties"])
    assert props == {"ex@32473": {"k": "v", "q": "a]b"}}


def test_5424_all_nil():
    r = one("rfc5424", "<34>1 - - - - - - body")
    assert r["hostname"] == "" and r["appname"] == "" and r["msgid"] == ""
    assert r["time_reported"] == TS  # '-' timestamp → now() (our ts)
    assert r["message"] == "body"


def test_5424_no_message():
    r = one("rfc5424", "<34>1 2026-01-15T05:10:02Z h a p m -")
    assert r["message"] == "" and r["parse_ok"]


def test_5424_sd_escapes():
    r = one("rfc5424", '<34>1 - h a p m [s x="a\\\\b\\"c"]')
    assert json.loads(r["properties"]) == {"s": {"x": 'a\\b"c'}}


def test_5424_malformed():
    r = one("rfc5424", "<34>not valid at all")
    assert not r["parse_ok"]
    r = one("rfc5424", "<34>1 BADTIME h a p m - msg")
    assert not r["parse_ok"]


def test_5424_repeated_sid_cleared():
    # ClearDomain on sid re-entry (rfc5424_format.go:196-203)
    r = one("rfc5424", '<34>1 - h a p m [s a="1"][s b="2"]')
    assert json.loads(r["properties"]) == {"s": {"b": "2"}}


# --- JSON family ------------------------------------------------------------

def test_json_regular():
    line = json.dumps({"facility": "auth", "severity": "crit",
                       "timereported": "2026-01-15T05:10:02Z",
                       "timegenerated": "2026-01-15T05:10:02Z",
                       "hostname": "h", "appname": "a", "procid": "p",
                       "msgid": "m", "message": "hello",
                       "properties": {"d": {"k": "v"}}})
    r = one("json", line)
    assert (r["facility"], r["severity"], r["priority"], r["version"]) == (4, 2, 34, 1)
    assert json.loads(r["properties"]) == {"d": {"k": "v"}}


def test_json_unknown_names_default():
    # unknown facility → user(1); unknown severity → info(6)
    r = one("json", '{"facility":"nope","severity":"nope"}')
    assert r["facility"] == 1 and r["severity"] == 6


def test_json_invalid():
    r = one("json", "{nope")
    assert not r["parse_ok"] and r["message"] == "{nope"


def test_rsyslog():
    line = ('{"msg":" padded ","pri":"22","hostname":"vm","app-name":"spamd",'
            '"procid":"6948","msgid":"-","structured-data":"-",'
            '"timereported":"2026-01-15T05:10:02Z","$!":{"pid":6948,"b":true}}')
    r = one("rsyslogjson", line)
    assert (r["priority"], r["facility"], r["severity"]) == (22, 2, 6)
    assert r["message"] == "padded" and r["msgid"] == ""
    assert json.loads(r["properties"]) == {"rsyslog": {"pid": "6948", "b": "true"}}


def test_rsyslog_bad_pri():
    r = one("rsyslogjson", '{"msg":"x","pri":"abc"}')
    assert not r["parse_ok"]


@pytest.mark.parametrize("fmt,line", [
    ("json", '{"hostname":5}'), ("json", '{"hostname":true}'),
    ("json", '{"message":{"a":1}}'), ("json", '{"severity":[1]}'),
    ("json", '{"timereported":0}'),
    ("rsyslogjson", '{"pri":13}'), ("rsyslogjson", '{"pri":"1","hostname":5}'),
    ("rsyslogjson", '{"pri":"1","msgid":true}'),
    ("rsyslogjson", '{"pri":"1","msg":{"a":1}}'),
    ("rsyslogjson", '{"pri":"1","timegenerated":false}')])
def test_json_non_string_in_string_field_is_error(fmt, line):
    """Go's unmarshal of a number, bool, array or object into a string
    field fails the message; it is not printed with %v."""
    assert not one(fmt, line)["parse_ok"]


def test_json_null_string_field_reads_empty():
    """Unmarshaling null into a Go string leaves it at "" ."""
    r = one("json", '{"hostname":null,"message":"m"}')
    assert r["parse_ok"] and r["hostname"] == "" and r["message"] == "m"
    r = one("rsyslogjson", '{"pri":"13","app-name":null,"msg":"m"}')
    assert r["parse_ok"] and r["appname"] == "" and r["priority"] == 13


# --- GELF -------------------------------------------------------------------

def test_gelf_underscore_quirk():
    line = ('{"version":"1.1","host":"h","short_message":"s","timestamp":100,'
            '"level":6,"_appname":"x","_other":"y"}')
    r = one("gelf", line)
    # reference quirk: _-extras never populate AppName (gelf.go:58-72 vs
    # go-gelf message.go:80-87) — they land in properties with the underscore
    assert r["appname"] == ""
    assert json.loads(r["properties"])["gelf"] == {"_appname": "x", "_other": "y"}
    assert r["severity"] == 6 and r["facility"] == 1 and r["version"] == 1
    assert r["time_reported"] == 100 * 10**9


def test_gelf_facility_string():
    r = one("gelf", '{"host":"h","short_message":"s","facility":"cron"}')
    assert r["facility"] == 15


def test_gelf_bad_type():
    r = one("gelf", '{"host":5,"short_message":"s"}')
    assert not r["parse_ok"]


# --- influx -----------------------------------------------------------------

def test_influx_typed_fields():
    r = one("influxdb", "cpu,host=h01,region=eu usage_idle=92.5,count=4i,"
                        'name="x",up=true 1767244202000000000')
    assert r["appname"] == "influxdb" and r["message"] == "cpu"
    assert r["hostname"] == "h01"
    assert (r["facility"], r["severity"], r["version"]) == (16, 6, 1)
    assert r["time_reported"] == 1767244202000000000
    p = json.loads(r["properties"])
    assert p["influxdb_tags"] == {"host": "h01", "region": "eu"}
    assert p["influxdb_fields"] == {"usage_idle_float": "92.5",
                                    "count_integer": "4",
                                    "name_string": "x", "up_boolean": "true"}


def test_influx_no_timestamp():
    r = one("influxdb", "cpu value=1.5")
    assert r["time_reported"] == TS


def test_influx_malformed():
    r = one("influxdb", "cpu")
    assert not r["parse_ok"]


# --- w3c / ltsv / custom ----------------------------------------------------

def test_w3c():
    recs = decode("w3c", "2026-01-15 05:10:02 GET /x 200\n#comment\n"
                         "2026-01-15 05:10:03 POST /y -",
                  w3c_fields="date time cs-method cs-uri sc-status")
    assert len(recs) == 2
    p0 = json.loads(recs[0]["properties"])["w3c"]
    assert p0 == {"date": "2026-01-15", "time": "05:10:02",
                  "cs-method": "GET", "cs-uri": "/x", "sc-status": "200"}
    p1 = json.loads(recs[1]["properties"])["w3c"]
    assert "sc-status" not in p1  # '-' ⇒ nil field omitted
    assert recs[1]["sub_idx"] == 1


def test_ltsv_stub_parity():
    # decoders/ltsv.go:5-7 returns no messages
    assert decode("ltsv_stub", "a:b\tc:d") == []


def test_ltsv_real():
    r = one("ltsv", "time:2026-01-15T00:00:00Z\thost:h\tapp:a\tmsg:m\textra:e")
    assert r["hostname"] == "h" and r["appname"] == "a" and r["message"] == "m"
    assert json.loads(r["properties"]) == {"ltsv": {"extra": "e"}}


def test_custom_parser():
    register_custom_parser("zog_t", lambda line, ts: (
        {"app": line.split("|")[1], "msg": line.split("|")[2]}
        if line.startswith("ZOG|") else None))
    r = one("custom", "ZOG|a|b", custom_parser="zog_t")
    assert r["appname"] == "a" and r["message"] == "b"
    r = one("custom", "nope", custom_parser="zog_t")
    assert not r["parse_ok"]


def test_custom_parser_none_reads_as_absent():
    """A user parser that sets a key to None gets the same records, and
    the same four-stage output, as one that leaves the key out: the
    time falls back to the row's ts and strings to "" (a null
    time_reported would fail the whole batch in the json encoder)."""
    import pyarrow.compute as pc

    from skewer_ray.config import default_config
    from skewer_ray.gen import generate_table
    from skewer_ray.stages import (EnrichStage, FanoutEncodeStage,
                                   ParseStage, RouterStage)

    def with_none(line, ts):
        return {"pri": 14, "tr": None, "host": None, "app": "a",
                "msg": line[:40]}

    def without(line, ts):
        return {"pri": 14, "app": "a", "msg": line[:40]}

    cfg = default_config()
    tbl = generate_table(300)
    outs = []
    for name, fn in (("none_keys", with_none), ("absent_keys", without)):
        b = ParseStage(single=DecoderConfig(format="custom",
                                            custom_parser=name),
                       custom_parsers={name: fn})(tbl)
        b = EnrichStage(role_lookup=cfg.role_lookup,
                        tool_lookup=cfg.tool_lookup)(b)
        b = RouterStage(hooks=cfg.hooks)(b)
        outs.append(FanoutEncodeStage(sinks=cfg.sinks)(b))
    assert outs[0].equals(outs[1])
    passing = pc.sum(pc.equal(outs[0]["status"], "passing")).as_py()
    assert passing > 0


# ---------------------------------------------------------------------------
# collectd binary protocol (decoders/collectd.go:19-95)
# ---------------------------------------------------------------------------

def test_collectd_packet_roundtrip():
    import json
    from skewer_ray.decoders import RecordBuilder, get_decoder, DecoderConfig
    from skewer_ray.decoders.collectd import encode_packet
    pkt = encode_packet("db01", 1_700_000_000, [
        ("cpu", "percent", [("gauge", 42.5)]),
        ("interface", "eth0", "if_octets", "", [("derive", -3),
                                                ("counter", 9)]),
    ], interval_s=10)
    b = RecordBuilder()
    dec = get_decoder(DecoderConfig(format="collectd"))
    dec([pkt.decode("latin-1")], [0], b, DecoderConfig(format="collectd"))
    assert len(b) == 2  # one record per values part
    assert b.hostname == ["db01", "db01"]
    assert b.appname == ["collectd", "collectd"]
    # reference parity: procid = plugin, facility user(1), severity info
    assert b.procid == ["cpu", "interface"]
    assert b.facility == [1, 1] and b.severity == [6, 6]
    assert b.time_reported[0] == 1_700_000_000 * 1_000_000_000
    # message = canonical value-list JSON
    m0 = json.loads(b.message[0])
    assert m0["values"] == [42.5] and m0["dsnames"] == ["value"]
    assert m0["interval"] == 10.0 and m0["plugin"] == "cpu"
    m1 = json.loads(b.message[1])
    # if_octets resolves DS names through the embedded types.db
    assert m1["dsnames"] == ["rx", "tx"]
    assert m1["dstypes"] == ["derive", "counter"]
    assert m1["plugin_instance"] == "eth0"
    # properties: gauge/derive domains named via types.db; counter skipped
    p0 = json.loads(b.properties[0])
    assert p0["gauge"] == {"value": "42.500"}
    assert p0["collectd"] == {"type": "percent"}
    p1 = json.loads(b.properties[1])
    assert p1["derive"] == {"rx": "-3"}
    assert "counter" not in p1
    assert p1["collectd"] == {"plugin_instance": "eth0",
                              "type": "if_octets"}
    assert b.sub_idx == [0, 1]


def test_collectd_truncated_packet_single_error_row():
    """A packet failing mid-parse yields ONE error row, no partial
    records (every turn accounted exactly once)."""
    from skewer_ray.decoders import RecordBuilder, get_decoder, DecoderConfig
    from skewer_ray.decoders.collectd import encode_packet
    import struct
    pkt = encode_packet("h", 1, [("cpu", "cpu", [("gauge", 1.0)])])
    # append a values part claiming 2 values but carrying bytes for one
    payload = struct.pack(">H", 2) + b"\x01\x01" + b"\x00" * 8
    bad = pkt + struct.pack(">HH", 0x0006, 4 + len(payload)) + payload
    b = RecordBuilder()
    cfg = DecoderConfig(format="collectd")
    get_decoder(cfg)([bad.decode("latin-1")], [7], b, cfg)
    assert len(b) == 1
    assert b.parse_ok == [False]


def test_collectd_garbage_is_error():
    from skewer_ray.decoders import RecordBuilder, get_decoder, DecoderConfig
    b = RecordBuilder()
    cfg = DecoderConfig(format="collectd")
    get_decoder(cfg)(["not a packet"], [5], b, cfg)
    assert b.parse_ok == [False]


# ---------------------------------------------------------------------------
# protobuf slot (decoders/protobuf.go:8-16; JSON stand-in wire)
# ---------------------------------------------------------------------------

def test_protobuf_decoder_direct_fields():
    import json as _json
    from skewer_ray.decoders import RecordBuilder, get_decoder, DecoderConfig
    msg = _json.dumps({
        "Priority": 165, "Facility": 20, "Severity": 5, "Version": 1,
        "TimeReportedNum": 123, "TimeGeneratedNum": 456,
        "HostName": "h", "AppName": "a", "ProcId": "9", "MsgId": "m",
        "Message": "payload", "Properties": {"d": {"k": "v"}},
    })
    b = RecordBuilder()
    cfg = DecoderConfig(format="protobuf")
    get_decoder(cfg)([msg, "{bad"], [0, 0], b, cfg)
    assert b.parse_ok == [True, False]
    assert (b.priority[0], b.facility[0], b.severity[0]) == (165, 20, 5)
    assert b.time_reported[0] == 123 and b.hostname[0] == "h"
    assert _json.loads(b.properties[0]) == {"d": {"k": "v"}}


def test_rfc5424_vec_parity_with_per_row():
    """decode_block_vec + fallback == pure decode_block over generated
    lines AND the adversarial edge corpus (field-for-field)."""
    import numpy as np
    import pyarrow as pa
    from skewer_ray.decoders import RecordBuilder
    from skewer_ray.decoders.rfc5424 import decode_block, decode_block_vec
    from skewer_ray.gen import generate_table, family_of_conv, conv_index
    from skewer_ray.pipelines.edge_corpus import EDGE_5424, NOW_S

    tbl = generate_table(3000)
    fams = [family_of_conv(conv_index(c))
            for c in tbl["conv_id"].to_pylist()]
    lines = [t for t, f in zip(tbl["text"].to_pylist(), fams)
             if f in (0, 1)]
    lines += [c[0] for c in EDGE_5424]
    # a valid time of -1 ns (once read as "use the row's ts")
    lines.append("<34>1 1969-12-31T23:59:59.999999999Z h a p m - x")
    ns = np.array([NOW_S * 10**9] * len(lines), dtype=np.int64)

    ref = RecordBuilder()
    decode_block(lines, ns.tolist(), ref)

    cols, fb = decode_block_vec(pa.array(lines, pa.string()), ns)
    got = {}
    fields = ("parse_ok", "priority", "facility", "severity", "version",
              "time_reported", "time_generated", "hostname", "appname",
              "procid", "msgid", "structured", "message", "properties")
    if cols is not None:
        ridx = cols.pop("row_idx")
        for k, r in enumerate(ridx):
            got[int(r)] = tuple(
                cols[f][k].as_py() for f in fields)
    fbb = RecordBuilder()
    decode_block([lines[i] for i in fb],
                 [int(ns[i]) for i in fb], fbb)
    for k, local in enumerate(fbb.row_idx):
        got[fb[local]] = tuple(getattr(fbb, f)[k] for f in fields)

    want = {ref.row_idx[k]: tuple(getattr(ref, f)[k] for f in fields)
            for k in range(len(ref))}
    assert got == want
    assert len(want) == len(lines)  # nothing silently dropped


def test_rfc3164_vec_parity_with_per_row():
    """3164 vec fast path + fallback == pure ladder over generated
    (families 2,3,4) and edge-corpus lines."""
    import numpy as np
    import pyarrow as pa
    from skewer_ray.decoders.rfc3164 import decode_block, decode_block_vec
    from skewer_ray.gen import generate_table, family_of_conv, conv_index
    from skewer_ray.pipelines.edge_corpus import EDGE_3164, NOW_S

    tbl = generate_table(6000)
    fams = [family_of_conv(conv_index(c))
            for c in tbl["conv_id"].to_pylist()]
    lines = [t for t, f in zip(tbl["text"].to_pylist(), fams)
             if f in (2, 3, 4)]
    lines += [c[0] for c in EDGE_3164]
    lines += ["<34>Jan 15 05:10:02 host app msg",       # tagless 3-token
              "<34>Feb 30 12:00:00 host app[1]: m",     # bad date
              "<34>Jan 15 05:10:02 host app[1]:",       # 2-token quirk
              "<34>Jan  4 05:10:02 host a.b-c[x7]: m1  m2",
              "  <13>Jan 15 05:10:02 h t[1]: padded  "]
    ns = np.array([NOW_S * 10**9] * len(lines), dtype=np.int64)

    ref = RecordBuilder()
    decode_block(lines, ns.tolist(), ref)

    cols, fb = decode_block_vec(pa.array(lines, pa.string()), ns)
    got = {}
    fields = ("parse_ok", "priority", "facility", "severity", "version",
              "time_reported", "time_generated", "hostname", "appname",
              "procid", "msgid", "structured", "message", "properties")
    if cols is not None:
        ridx = cols.pop("row_idx")
        for k, r in enumerate(ridx):
            got[int(r)] = tuple(cols[f][k].as_py() for f in fields)
    fbb = RecordBuilder()
    decode_block([lines[i] for i in fb], [int(ns[i]) for i in fb], fbb)
    for k, local in enumerate(fbb.row_idx):
        got[fb[local]] = tuple(getattr(fbb, f)[k] for f in fields)

    want = {ref.row_idx[k]: tuple(getattr(ref, f)[k] for f in fields)
            for k in range(len(ref))}
    assert got == want
    assert len(want) == len(lines)
    assert cols is not None and len(got) - len(fb) > 0  # fast path used


def test_macos_log_stream_decode():
    """macOS unified-log JSON mapping (macoslogs.go:135-195 parity)."""
    line = ('{"timestamp":"2026-01-15 05:10:02.123456+0100",'
            '"eventMessage":"hello","processImagePath":"/usr/bin/x",'
            '"processID":42,"messageType":"Error","subsystem":"com.a.b",'
            '"category":"net","threadID":7,"traceID":21,"activityID":3,'
            '"machTimestamp":99,"processUniqueID":1234,'
            '"senderProgramCounter":5}')
    r = one("macos", line)
    assert (r["priority"], r["facility"], r["severity"], r["version"]) == \
        (14, 1, 6, 1)
    assert r["hostname"] == "localhost"
    assert r["appname"] == "/usr/bin/x" and r["procid"] == "42"
    assert r["message"] == "hello"
    # +0100 → UTC 04:10:02.123456
    assert r["time_reported"] == \
        (1768435200 + 4 * 3600 + 600 + 2) * 10**9 + 123456000
    p = json.loads(r["properties"])["macos"]
    assert p["subsystem"] == "com.a.b" and p["category"] == "net"
    assert p["threadID"] == "7" and p["machTimestamp"] == "99"
    # bad timestamp → falls back to ts; bad JSON → error row
    r2 = one("macos", '{"timestamp":"nope","eventMessage":"m"}')
    assert r2["time_reported"] == TS and r2["parse_ok"]
    r3 = one("macos", "not json")
    assert not r3["parse_ok"]


# --- out-of-range values are decode errors ----------------------------------

def _transcript(lines):
    import pyarrow as pa
    from skewer_ray.schema import TRANSCRIPT_SCHEMA
    n = len(lines)
    return pa.table({"conv_id": ["conv-00000000"] * n,
                     "turn_idx": list(range(n)), "role": ["user"] * n,
                     "text": lines, "tool": [""] * n,
                     "ts": [TS // 1000] * n}, schema=TRANSCRIPT_SCHEMA)


_GOOD = {
    "rfc5424": '<34>1 2026-01-15T05:10:02Z h a p m - ok',
    "ltsv": "time:2026-01-15T05:10:02Z\thost:h",
    "json": '{"timereported":"2026-01-15T05:10:02Z","message":"ok"}',
    "rsyslogjson": '{"msg":"ok","pri":"13"}',
    "gelf": '{"host":"h","short_message":"ok","level":6,"timestamp":1.5}',
    "influxdb": "cpu v=1 1768435200000000000",
}


@pytest.mark.parametrize("fmt,line", [
    ("rfc5424", "<34>1 9999-12-31T23:59:59Z h a p m - x"),
    ("rfc5424", "<34>1 0001-01-01T00:00:00Z h a p m - x"),
    ("rfc5424", "<34>1 2262-04-11T23:47:17Z h a p m - x"),
    ("ltsv", "time:9999-12-31T23:59:59Z\thost:h"),
    ("ltsv", "time:0001-01-01T00:00:00Z\thost:h"),
    ("json", '{"timereported":"9999-12-31T23:59:59Z","message":"x"}'),
    ("rsyslogjson", '{"msg":"x","pri":"13",'
                    '"timereported":"9999-12-31T23:59:59Z"}'),
    ("rsyslogjson", '{"msg":"x","pri":"13",'
                    '"timegenerated":"0001-01-01T00:00:00Z"}'),
    ("rsyslogjson", '{"msg":"x","pri":"99999999999"}'),
    ("gelf", '{"host":"h","short_message":"x","level":Infinity}'),
    ("gelf", '{"host":"h","short_message":"x","timestamp":NaN}'),
    ("gelf", '{"host":"h","short_message":"x","timestamp":1e300}'),
    ("gelf", '{"host":"h","short_message":"x","level":1e12}'),
    ("gelf", '{"host":"h","short_message":"x","level":2147483640,'
             '"facility":"user"}'),
    ("influxdb", "cpu v=1 99999999999999999999999"),
    ("influxdb", "cpu v=1 9223372036854775808"),
])
def test_out_of_range_values_are_decode_errors(fmt, line):
    """A value the record's int32/int64 columns cannot hold is a decode
    error (raw line kept), through the vectorized path and per row,
    instead of an exception that fails the batch."""
    from skewer_ray.stages.parse import ParseStage
    stage = ParseStage(single=DecoderConfig(format=fmt))
    out = stage(_transcript([_GOOD[fmt], line, _GOOD[fmt]]))
    assert out["parse_ok"].to_pylist() == [True, False, True]
    bad = out.slice(1, 1).to_pylist()[0]
    assert bad["message"] == line
    assert bad["time_reported"] == bad["time_generated"] == TS


def test_rfc3164_out_of_range_time_takes_the_ladder():
    """p3164 never fails: an RFC3339 time the record cannot hold takes
    the ladder's bad-time branch (message-only, now() as the time)."""
    from skewer_ray.stages.parse import ParseStage
    stage = ParseStage(single=DecoderConfig(format="rfc3164"))
    out = stage(_transcript(["<34>9999-12-31T23:59:59Z host app: m"]))
    r = out.to_pylist()[0]
    assert r["parse_ok"] and r["time_reported"] == TS
    assert r["message"] == "9999-12-31T23:59:59Z host app: m"


# --- vectorized fast paths: parity with the per-row decoders ----------------

_FIELDS = ("parse_ok", "priority", "facility", "severity", "version",
           "time_reported", "time_generated", "hostname", "appname",
           "procid", "msgid", "structured", "message", "properties")


def _records_by_row(cfg, lines, ns, split):
    """{row: [record tuple per sub-message]}: per row only, or (split)
    the format's fast path plus the per-row decoder on its fallback."""
    import numpy as np
    import pyarrow as pa
    from skewer_ray.decoders import get_decoder_vec

    dec = get_decoder(cfg)
    got: dict = {}

    def per_row(rows):
        b = RecordBuilder()
        dec([lines[i] for i in rows], [int(ns[i]) for i in rows], b, cfg)
        for k, local in enumerate(b.row_idx):
            got.setdefault(rows[local], []).append(
                (b.sub_idx[k],) + tuple(getattr(b, f)[k] for f in _FIELDS))

    if not split:
        per_row(list(range(len(lines))))
        return got, len(lines)
    cols, fb = get_decoder_vec(cfg)(pa.array(lines, pa.string()),
                                    np.asarray(ns, dtype=np.int64), cfg)
    if cols is not None:
        for k, r in enumerate(cols.pop("row_idx")):
            got.setdefault(int(r), []).append(
                (0,) + tuple(cols[f][k].as_py() for f in _FIELDS))
    per_row([int(i) for i in fb])
    return got, len(fb)


def _assert_vec_parity(cfg, lines):
    ns = [TS + 7 * i for i in range(len(lines))]
    want, _ = _records_by_row(cfg, lines, ns, split=False)
    got, n_fallback = _records_by_row(cfg, lines, ns, split=True)
    assert got == want
    return n_fallback


def _generated(fam: int, i: int, t: int) -> str:
    from skewer_ray.gen import text_for
    return text_for(fam + 12 * i, t)


_VALUES = ['1', '-0', '1.5', '1e5', 'true', 'false', '"s"', '" pad "',
           '{"n":1}', '[1]', 'null', 'NaN', 'Infinity', 'Inf', '-NaN',
           '"x\\"y"', '"café"', '"\\u00e9"', '99999999999999999999']


def _json_mutations(keys, extra_keys):
    """Strategy factory of line -> line edits for a JSON family: a
    known key's value replaced, a key added, keys reordered, and text
    edits."""
    def loads(line):
        try:
            d = json.loads(line)
        except ValueError:
            return None
        return d if isinstance(d, dict) else None

    def sub_value(key, val):
        def f(line):
            d = loads(line)
            if d is None or key not in d:
                return line
            return line.replace(json.dumps(d[key], separators=(",", ":")),
                                val, 1)
        return f

    def add_key(key, val):
        return lambda line: (line[:-1] + f',"{key}":{val}}}'
                             if line.endswith("}") and len(line) > 2
                             else line)

    def reorder(seed):
        def f(line):
            d = loads(line)
            if d is None:
                return line
            items = sorted(d.items(), key=lambda kv: hash((seed, kv[0])))
            return json.dumps(dict(items), separators=(",", ":"),
                              ensure_ascii=False)
        return f

    def strategy(st):
        vals = st.sampled_from(_VALUES)
        return st.one_of(
            st.builds(sub_value, st.sampled_from(keys), vals),
            st.builds(add_key, st.sampled_from(extra_keys), vals),
            st.builds(reorder, st.integers(0, 99)),
            st.sampled_from([
                lambda line: line + " x",                 # trailing garbage
                lambda line: line + line,                 # two objects
                lambda line: " " + line,
                lambda line: line.replace("h", "é", 1),
                lambda line: line.replace("o", "\\u006f", 1),
            ]))
    return strategy


def _text_mutations(st, extra):
    """Generic text edits plus the format's own ``extra`` edits."""
    def insert(s, at):
        return lambda line: line[:at % (len(line) + 1)] + s \
            + line[at % (len(line) + 1):]

    return st.one_of(
        st.builds(insert, st.sampled_from(
            [" ", "  ", "\t", "\\", '"', "é", "-", ":", "=", ",", "#",
             "\n"]), st.integers(0, 200)),
        st.sampled_from(extra))


def _parity_property(fam, cfg, mutations, edges, max_examples=150,
                     clash=None):
    """decode_block_vec + per-row fallback == decode_block over the
    ``edges`` lines and over blocks of generated lines of family ``fam``
    edited by ``mutations``; every block is checked whole and line by
    line (a JSON type clash splits a block). With ``clash``, a line
    whose value types clash with the generated lines' among 999 of
    them: at least 990 of the 1,000 rows keep the fast path."""
    from hypothesis import HealthCheck, given, settings, strategies as st

    def check(lines):
        _assert_vec_parity(cfg, lines)
        for one in lines:
            _assert_vec_parity(cfg, [one])

    check(edges + [_generated(fam, 1, 2)])
    if clash is not None:
        block = [_generated(fam, i, 2) for i in range(999)]
        assert _assert_vec_parity(cfg, block[:500] + [clash]
                                  + block[500:]) <= 10
    line = st.builds(
        lambda i, t, muts: _apply(_generated(fam, i, t), muts),
        st.integers(0, 300), st.integers(0, 30),
        st.lists(mutations(st), max_size=3))

    @settings(max_examples=max_examples, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(line, min_size=1, max_size=8))
    def prop(lines):
        check(lines)

    prop()


def _apply(line, muts):
    for m in muts:
        line = m(line)
    return line


def test_json_vec_parity_with_per_row():
    edges = [
        '{}', '{"facility":"nope","severity":"crit"}', '{"hostname":null}',
        '{"hostname":5}', '{"hostname":true}', '{"message":{"a":1}}',
        '{"msgid":[1]}', '{"timegenerated":0}',
        '{"hostname":"a","hostname":"b"}', '[1]',
        '{"message":"café"}', '{"message":"a\\"b"}', '{"x":Inf}',
        '{"x":NaN}', '{"a":"x"}{"a":"y"}', '{"a":"x"} y',
        '{"properties":{"d":{"k":"v"}}}', '{"properties":1}',
        '{"timereported":""}', '{"timereported":1}',
        '{"timereported":"2026-02-30T00:00:00Z"}',
        '{"timereported":"2026-12-31T23:59:60Z"}',
        '{"timereported":"2026-01-15T05:10:02.123456789+01:00"}',
        '{"timegenerated":"1969-12-31T23:59:59Z"}',
        '{"timereported":"2262-04-11T23:47:16Z"}',
        '{"timereported":"2262-04-11T23:47:17Z"}',
        '{"zz":[1,2],"message":"m"}', '{"message":"x", "hostname" : "y" }']
    _parity_property(5, DecoderConfig(format="json"), _json_mutations(
        ["hostname", "message", "appname", "facility", "severity",
         "timereported", "timegenerated"],
        ["zz", "properties", "hostname", " k"]), edges,
        clash='{"hostname":5,"message":"m"}')


def test_rsyslogjson_vec_parity_with_per_row():
    edges = [
        '{"msg":"x","pri":"abc"}', '{"msg":"x","pri":"99999999999"}',
        '{"pri":" 22"}', '{"pri":"-3"}', '{"pri":"+3"}', '{"pri":"007"}',
        '{"pri":"1","$!":{"f":1.5}}', '{"pri":"1","$!":{"b":true}}',
        '{"pri":"1","$!":{"n":{"x":"y"}}}', '{"pri":"1","$!":"str"}',
        '{"pri":"1","$!":{" a":"x","a":"y"}}', '{"pri":"1","$!":{}}',
        '{"pri":"1","$!":{"z":" 1 ","a":2,"m":"q"}}',
        '{"pri":"1","timereported":"-","timegenerated":""}',
        '{"pri":"1","hostname":" - ","msgid":"-","msg":"  m  "}',
        '{"pri":"1","timereported":"9999-12-31T23:59:59Z"}',
        '{"pri":13}', '{"pri":"1","hostname":5}', '{"pri":"1","msgid":true}',
        '{"pri":"1","msg":{"a":1}}', '{"pri":"1","app-name":null}']
    _parity_property(6, DecoderConfig(format="rsyslogjson"), _json_mutations(
        ["msg", "hostname", "pri", "timereported", "app-name",
         "structured-data", "$!"],
        ["$!", "zz", "msg", "msgid"]), edges,
        clash='{"msg":"m","hostname":5,"pri":"13"}')


def test_gelf_vec_parity_with_per_row():
    edges = [
        '{"host":"h","short_message":"s","facility":"cron"}',
        '{"host":5}', '{"level":"6"}', '{"level":true}',
        '{"level":Infinity}', '{"timestamp":NaN}', '{"timestamp":1e300}',
        '{"level":1e12}', '{"level":6.7,"timestamp":1.5}', '{"level":-0.5}',
        '{"level":2147483640,"facility":"user"}',
        '{"level":2147483640,"facility":"kern"}', '{"level":-2147483649}',
        '{"timestamp":9223372036.854775}', '{"timestamp":9223372037}',
        '{"timestamp":1768435200.123456789}', '{"level":1e400}',
        '{"full_message":"f","_a":1,"_b":"x","_z":"q"}',
        '{"full_message":"","_c":1.5}', '{"_n":{"x":1}}', '{"_t":true}',
        '{"_big":99999999999999999999}', '{"zz":1.5,"_a":"x"}']
    _parity_property(7, DecoderConfig(format="gelf"), _json_mutations(
        ["host", "short_message", "level", "timestamp", "facility",
         "_appname"],
        ["_x", "_a", "full_message", "zz", "level", "facility"]), edges,
        clash='{"host":5,"short_message":"m"}')


def test_influxdb_vec_parity_with_per_row():
    extra = [
        lambda line: line.replace("eu", "e\\,u", 1),
        lambda line: line.replace("count=", 'name="a b",count=', 1),
        lambda line: line.rsplit(" ", 1)[0],                  # no time
        lambda line: line.rsplit(" ", 1)[0] + " 99999999999999999999",
        lambda line: line.rsplit(" ", 1)[0] + " 9999999999999999999",
        lambda line: line.rsplit(" ", 1)[0] + " 9223372036854775807",
        lambda line: line.rsplit(" ", 1)[0] + " -9223372036854775808",
        lambda line: line.rsplit(" ", 1)[0] + " 007",
        lambda line: line.rsplit(" ", 1)[0] + " -0",
        lambda line: line.rsplit(" ", 1)[0] + " +5",
        lambda line: line.replace("region=eu", "host=b,region=", 1),
        lambda line: line.replace("count=", "up=t,f=FALSE,u=3u,x=+-1i,"
                                  "n=nan,e=1e400,z=,count=", 1),
        lambda line: line.replace("cpu", "", 1),
        lambda line: line + " 1",
    ]
    edges = [
        "cpu", "cpu value=1.5", "cpu v=1 9223372036854775807",
        "cpu v=1 9223372036854775808", "cpu v=1 -9223372036854775808",
        "cpu v=1 -9223372036854775809", "cpu v=1 -0", "cpu v=1 007",
        "cpu,host=a,host=b v=1,v=2i", "cpu,=x v=1", "cpu,k= v=1",
        ",k=v v=1", "cpu v=", "cpu v=nan", "cpu v=1e400", "cpu v=+-5i",
        "cpu v=1_0.5", "cpu  v=1", " cpu v=1", "cpu v=1 ",
        "cpu v=t,w=FALSE,x=5u", "cpu\\,x v=1", 'cpu v="a b"',
        "cpu v=1 1 2", "cpu v=1 abc", "m,b=2,a=1 z=1,a=2", "cpu v=0.1"]
    _parity_property(8, DecoderConfig(format="influxdb"),
                     lambda st: _text_mutations(st, extra), edges)


def test_ltsv_vec_parity_with_per_row():
    extra = [
        lambda line: line + "\t\tk:v",                        # empty field
        lambda line: line + "\tnocolon",
        lambda line: line + "\thost:again\tz:1\ta:2\tz:3",    # repeats
        lambda line: line + '\tq:"x"\t:empty-key\tk:',
        lambda line: line.replace("2026", "9999", 1),
        lambda line: line.replace("Z", ".5+01:00", 1),
        lambda line: line.replace("T", "t", 1),
        lambda line: line + "\ttime:2026-02-30T00:00:00Z",
        lambda line: "\t" + line,
        lambda line: line + "\tmsg:a:b",
    ]
    edges = [
        "a:b\t\tc:d", "nocolon\tx:y", "time:bad", "\t\t", "k:\t:v",
        'host:a\thost:b\tz:1\tz:2\ta:"q"', "msg:a:b:c",
        "time:2026-01-15T00:00:00Z\ttime:2026-01-16T00:00:00Z",
        "time:2026-01-15T00:00:00Z\ttime:x", "café:1", "k:v\\x",
        "time:2026-02-30T00:00:00Z", "time:9999-12-31T23:59:59Z",
        "b:2\ta:1\tb:3", " sp: v \t host : h"]
    _parity_property(10, DecoderConfig(format="ltsv"),
                     lambda st: _text_mutations(st, extra), edges)


@pytest.mark.parametrize("fields", [
    "date time cs-method cs-uri sc-status", "a b a c", "", "café \"q\""])
def test_w3c_vec_parity_with_per_row(fields):
    extra = [
        lambda line: line + "\n#c\n" + line,                  # multi-line
        lambda line: line + ' "quoted value"',
        lambda line: "#" + line,
        lambda line: "  #" + line,
        lambda line: line.replace("GET", "-", 1),
        lambda line: line + " extra more",
        lambda line: line.rsplit(" ", 2)[0],
        lambda line: "   ",
        lambda line: line.replace(" ", "\t", 1),
    ]
    edges = ["#directive", "   ", "  a  b   - d e f g ", 'a "b c" d',
             "a\tb", "- - - - -", "a b", "  #x", "x\n#c\ny z", "x\r\ny"]
    _parity_property(9, DecoderConfig(format="w3c", w3c_fields=fields),
                     lambda st: _text_mutations(st, extra), edges,
                     max_examples=60)


def test_generated_lines_take_the_fast_path():
    """Every generated line of a vectorized format decodes on the fast
    path except the malformed JSON lines (and the degenerate family,
    which is the rfc3164 ladder's fallback branches by design)."""
    from skewer_ray.config import default_decoders
    from skewer_ray.gen import conv_index, family_of_conv, generate_table

    tbl = generate_table(6000)
    fams = [family_of_conv(conv_index(c))
            for c in tbl["conv_id"].to_pylist()]
    texts = tbl["text"].to_pylist()
    for fam, cfg in default_decoders().items():
        if fam in (4, 11):
            continue
        lines = [t for t, f in zip(texts, fams) if f == fam]
        malformed = sum(t.startswith("{invalid") for t in lines)
        assert _assert_vec_parity(cfg, lines) == malformed, cfg.format


def test_parse_stage_output_independent_of_fast_paths():
    """ParseStage gives the same table, row order included, whichever
    rows take a fast path: generated lines, with every 5th line of each
    family edited so that it falls back (or fails to decode), equal the
    stage with every fast path switched off."""
    import pyarrow as pa
    from skewer_ray.config import default_config
    from skewer_ray.gen import generate_table
    from skewer_ray.stages.parse import ParseStage

    cfg = default_config()
    t = generate_table(6000)
    texts = t["text"].to_pylist()
    edits = ["  ", " é", "\\u00e9", '"', "\t", "\n#c\nx y"]
    texts = [s.replace(" ", edits[(i // 5) % len(edits)], 1)
             if i % 5 == 0 else s for i, s in enumerate(texts)]
    t = t.set_column(t.schema.get_field_index("text"), "text",
                     pa.array(texts, pa.string()))
    fast = ParseStage(decoder_for_family=cfg.decoder_for_family,
                      custom_parsers=cfg.custom_parsers)
    per_row = ParseStage(decoder_for_family=cfg.decoder_for_family,
                         custom_parsers=cfg.custom_parsers)
    per_row.decoders = {f: (dec, c, None)
                        for f, (dec, c, _v) in per_row.decoders.items()}
    assert fast(t).equals(per_row(t))
