"""Encoder unit tests (encoders/rfc5424.go, rfc3164.go, json.go, file.go,
gelf.go) — validation ladders + canonical formatting."""

import json

from skewer_ray.encoders import (encode_file, encode_gelf, encode_json,
                                 encode_rfc3164, encode_rfc5424,
                                 rfc3339_from_ns, rfc3339nano_from_ns,
                                 stamp_from_ns)
from skewer_ray.schema import props_dumps

TS = 1768435200 * 10**9 + (5 * 3600 + 10 * 60 + 2) * 10**9  # 2026-01-15T05:10:02Z


def rec(**kw):
    base = dict(priority=34, facility=4, severity=2, version=1,
                time_reported=TS, time_generated=TS, hostname="host01",
                appname="app01", procid="4321", msgid="ID47",
                structured="", message="body", properties="{}")
    base.update(kw)
    return base


def test_time_formats():
    assert rfc3339_from_ns(TS) == "2026-01-15T05:10:02Z"
    assert rfc3339nano_from_ns(TS + 120_000_000) == "2026-01-15T05:10:02.12Z"
    assert stamp_from_ns(TS) == "Jan 15 05:10:02"
    # Go "Jan _2" space padding for single-digit days
    jan2 = (1767312000 + 2 * 86400) * 10**9  # 2026-01-04
    assert stamp_from_ns(jan2).startswith("Jan  4")


def test_5424_basic():
    assert encode_rfc5424(rec()) == \
        "<34>1 2026-01-15T05:10:02Z host01 app01 4321 ID47 - body"


def test_5424_nilify_and_no_msg():
    assert encode_rfc5424(rec(hostname="", appname="", procid="", msgid="",
                              message="")) == \
        "<34>1 2026-01-15T05:10:02Z - - - - -"


def test_5424_sd_sorted_and_escaped():
    p = props_dumps({"b": {"z": "1", "a": 'x"y]z\\'}, "a": {"k": "v"}})
    out = encode_rfc5424(rec(properties=p, message=""))
    assert out.endswith('[a k="v"][b a="x\\"y\\]z\\\\" z="1"]')


def test_5424_validation():
    assert encode_rfc5424(rec(hostname="h é")) is None      # non-ASCII
    assert encode_rfc5424(rec(appname="x" * 49)) is None     # >48
    assert encode_rfc5424(rec(msgid="x" * 33)) is None       # >32
    p = props_dumps({"bad sid": {"k": "v"}})
    assert encode_rfc5424(rec(properties=p)) is None         # space in sid
    p = props_dumps({"s": {'a"b': "v"}})
    assert encode_rfc5424(rec(properties=p)) is None         # quote in name
    p = props_dumps({"s\x7f": {"k": "v"}})
    assert encode_rfc5424(rec(properties=p)) is None         # DEL in sid
    p = props_dumps({"s": {"é": "v"}})
    assert encode_rfc5424(rec(properties=p)) is None         # non-ASCII name


def test_5424_param_name_truncated():
    p = props_dumps({"s": {"n" * 40: "v"}})
    out = encode_rfc5424(rec(properties=p))
    assert '[s ' + "n" * 32 + '="v"]' in out


def test_3164():
    assert encode_rfc3164(rec()) == \
        "<34>Jan 15 05:10:02 host01 app01[4321]: body"
    assert encode_rfc3164(rec(procid="", hostname=" ")) == \
        "<34>Jan 15 05:10:02 localhost app01: body"


def test_file():
    assert encode_file(rec()) == "2026-01-15T05:10:02Z host01 app01 body"
    assert encode_file(rec(hostname="", appname="")) == \
        "2026-01-15T05:10:02Z - - body"


def test_json_roundtrippable():
    out = json.loads(encode_json(rec(properties=props_dumps({"d": {"k": "v"}}))))
    assert out == {"facility": "auth", "severity": "crit",
                   "timereported": "2026-01-15T05:10:02Z",
                   "timegenerated": "2026-01-15T05:10:02Z",
                   "hostname": "host01", "appname": "app01", "procid": "4321",
                   "msgid": "ID47", "message": "body",
                   "properties": {"d": {"k": "v"}}}
    # omitempty: empty strings dropped (model/types.go:210-221 json tags)
    out = json.loads(encode_json(rec(hostname="", message="")))
    assert "hostname" not in out and "message" not in out


def test_gelf():
    out = json.loads(encode_gelf(rec(properties=props_dumps({"d": {"k": "v"}}))))
    assert out["version"] == "1.1" and out["host"] == "host01"
    assert out["short_message"] == "body" and out["level"] == 2
    assert out["timestamp"] == TS / 1e9
    # reference writes extras WITHOUT the GELF underscore prefix
    assert out["facility"] == "auth" and out["appname"] == "app01"
    assert out["d"] == {"k": "v"}


def test_protobuf_encoder_roundtrips_through_decoder():
    import json
    from skewer_ray.decoders import RecordBuilder, get_decoder, DecoderConfig
    from skewer_ray.encoders import encode_protobuf
    rec = {"priority": 165, "facility": 20, "severity": 5, "version": 1,
           "time_reported": 123, "time_generated": 456, "hostname": "h",
           "appname": "a", "procid": "9", "msgid": "m", "structured": "",
           "message": "payload", "properties": '{"d":{"k":"v"}}'}
    wire = encode_protobuf(rec)
    b = RecordBuilder()
    cfg = DecoderConfig(format="protobuf")
    get_decoder(cfg)([wire], [0], b, cfg)
    assert b.parse_ok == [True]
    assert b.priority == [165] and b.message == ["payload"]
    assert json.loads(b.properties[0]) == {"d": {"k": "v"}}


def test_fulljson_encoder_envelope():
    import json
    from skewer_ray.encoders import encode_fulljson
    rec = {"priority": 14, "facility": 1, "severity": 6, "version": 1,
           "time_reported": 0, "time_generated": 0, "hostname": "h",
           "appname": "a", "procid": "", "msgid": "", "structured": "",
           "message": "x", "properties": "{}",
           "uid": "c:0:0", "conv_id": "c", "turn_idx": 0, "role": "user"}
    d = json.loads(encode_fulljson(rec))
    assert d["uid"] == "c:0:0" and d["conv_id"] == "c"
    assert d["fields"]["message"] == "x"


def test_avro_binary_roundtrip():
    """Dependency-free Avro binary (avro/syslogmessage.avsc field order)
    round-trips through the matching reader, including the two-level
    Properties map and varint edge sizes."""
    from skewer_ray.encoders.avro import decode_avro, encode_avro
    rec = {"facility": 4, "severity": 2, "time_reported": 1700000000123456789,
           "time_generated": 0, "hostname": "h" * 100, "appname": "app",
           "procid": "12", "msgid": "", "message": "hello é 世界",
           "properties": '{"d1":{"k":"v"},"d2":{"a":"b","c":"d"}}'}
    wire = encode_avro(rec)
    back = decode_avro(wire)
    assert back["Facility"] == "auth" or back["Facility"]  # name mapping
    assert back["Hostname"] == "h" * 100
    assert back["Message"] == "hello é 世界"
    assert back["Msgid"] == ""
    assert back["Properties"] == {"d1": {"k": "v"},
                                  "d2": {"a": "b", "c": "d"}}
    assert back["TimeReported"].startswith("2023-11-14T22:13:20.123456789Z"[:10])
    # empty-props record
    rec2 = dict(rec, properties="{}")
    assert decode_avro(encode_avro(rec2))["Properties"] == {}
    # registry form carries the bytes latin-1 in the string column
    from skewer_ray.encoders import get_encoder
    s = get_encoder("avro")(rec)
    assert s.encode("latin-1") == wire


def test_vectorized_encoders_match_per_row():
    """encode_batch output is byte-identical to the per-row encoders
    across validation failures, nil fields, SD bags, escapes, unicode,
    fractional timestamps, and single-digit days."""
    import pyarrow as pa
    from skewer_ray.encoders import ENCODERS
    from skewer_ray.encoders.vectorized import encode_batch

    jan2 = (1767312000 + 2 * 86400) * 10**9  # 2026-01-04 (space-pad day)
    cases = [
        rec(),
        rec(message=""),
        rec(hostname="", appname="", procid="", msgid=""),
        rec(hostname="bad\nhost"),                     # invalid rfc5424
        rec(hostname="h" * 256),                       # too long
        rec(appname="app\n"),                          # trailing newline
        rec(msgid="Ħ"),                                # non-ascii msgid
        rec(properties=props_dumps({"ex@32473": {"k": 'va"l]ue\\'}})),
        rec(properties=props_dumps({"bad=name": {"k": "v"}})),  # SD invalid
        rec(message='quote " back \\ ctrl \n tab \t'),
        rec(message="unicode é 世界"),
        rec(time_reported=TS + 123_456_789),           # fractional secs
        rec(time_reported=jan2, time_generated=jan2),
        # pre-1970: floor vs truncate division differ (ADVICE r02) —
        # 1969-12-31T23:59:59Z minus 0.5s must stay :58, not :59
        rec(time_reported=-1_500_000_000,
            time_generated=-1_500_000_000),
        rec(time_reported=-10**9, time_generated=-10**9),  # exact -1s
        # the whole int64 range: 1677-09-21T00:12:43Z .. 2262-04-11T23:47:16Z
        rec(time_reported=-2**63, time_generated=-2**63),
        rec(time_reported=2**63 - 1, time_generated=2**63 - 1),
        rec(time_reported=951782400 * 10**9,           # 2000-02-29 leap day
            time_generated=951782400 * 10**9),
        rec(time_reported=1769904000 * 10**9,          # 2026-02-01 (%e pad)
            time_generated=1769904000 * 10**9),
        rec(procid="  99  ", hostname="   "),
        rec(priority=191, facility=23, severity=7),
        rec(facility=99, severity=9),                  # out-of-range names
    ]
    cols = {k: [c[k] for c in cases] for k in cases[0]}
    tbl = pa.table({k: pa.array(v) for k, v in cols.items()})
    for name in ("rfc5424", "rfc3164", "file", "json"):
        want = [ENCODERS[name](c) for c in cases]
        got = encode_batch(name, tbl).to_pylist()
        assert got == want, f"{name}: {got} != {want}"
    assert encode_batch("gelf", tbl) is None  # no vectorized form


def test_vectorized_timestamps_match_per_row():
    """ts_rfc3339 / ts_date / _ts_stamp equal the per-row renderers over
    every int64 UnixNano value; null stays null."""
    import pyarrow as pa
    from hypothesis import given, settings, strategies as st

    from skewer_ray.encoders.vectorized import _ts_stamp, ts_date, ts_rfc3339

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-2**63, 2**63 - 1) | st.none(),
                    min_size=1, max_size=20))
    def check(values):
        col = pa.array(values, pa.int64())
        for fn, ref in ((ts_rfc3339, rfc3339_from_ns),
                        (ts_date, lambda ns: rfc3339_from_ns(ns)[:10]),
                        (_ts_stamp, stamp_from_ns)):
            want = [None if v is None else ref(v) for v in values]
            assert fn(col).to_pylist() == want, fn.__name__

    check()


def _valid_sd_name_per_char(s):
    """The per-character SD-NAME predicate the regex replaced (oracle)."""
    return all(33 <= ord(c) <= 126 and c not in '=]"' for c in s)


def _escape_sd_per_char(s):
    """The per-character SD escape loop the str.replace chain replaced."""
    out = []
    for c in s:
        if c in ('\\', '"', ']'):
            out.append("\\")
        out.append(c)
    return "".join(out)


def test_sd_name_and_escape_match_per_char_oracle():
    from hypothesis import given, settings, strategies as st

    from skewer_ray.encoders import _escape_sd, _valid_sd_name

    alphabet = st.sampled_from(['=', ']', '"', '\\', ' ', '\x7f', 'é',
                                '\U0001f600']) \
        | st.sampled_from([chr(c) for c in range(33, 127)])

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet, max_size=12))
    def check(s):
        assert _valid_sd_name(s) == _valid_sd_name_per_char(s)
        assert _escape_sd(s) == _escape_sd_per_char(s)

    check()


def test_protowire_golden_bytes():
    """Hand-derived wire bytes for a known SyslogMessage (gogo layout,
    model/types.pb.go:598-678): proto3 zero/empty omission, Properties
    always emitted, nested map entries."""
    from skewer_ray.protowire import (decode_syslog_message,
                                      encode_syslog_message)
    r = {"priority": 34, "facility": 0, "severity": 0, "version": 0,
         "time_reported": 0, "time_generated": 0, "hostname": "h",
         "appname": "", "procid": "", "msgid": "", "structured": "",
         "message": "", "properties": '{"d":{"k":"v"}}'}
    want = bytes.fromhex(
        "0822"              # field1 varint 34
        "3a0168"            # field7 "h"
        "6a0f"              # field13 Properties, 15 bytes
        "0a0d"              # map entry, 13 bytes
        "0a0164"            # key "d"
        "1208"              # value InnerProperties, 8 bytes
        "0a06" "0a016b" "120176")  # inner entry k="k" v="v"
    assert encode_syslog_message(r) == want
    back = decode_syslog_message(want)
    assert back["priority"] == 34 and back["hostname"] == "h"
    assert back["properties"] == '{"d":{"k":"v"}}'
    # empty message still carries the (empty) Properties field
    r0 = {k: (0 if isinstance(v, int) else "") for k, v in r.items()}
    r0["properties"] = "{}"
    assert encode_syslog_message(r0) == bytes.fromhex("6a00")
    # varint edge: 64-bit negative int64 roundtrips two's-complement
    rneg = dict(r, time_reported=-5)
    assert decode_syslog_message(
        encode_syslog_message(rneg))["time_reported"] == -5


def test_fanout_per_row_fallbacks_match_row_encoders():
    """Formats without a vectorized encoder and templates with format
    specs go through the per-row fallback: every passing row's bytes,
    route and es ack equal the per-row encoder, render_template (file
    routes sanitized, es names raw) and valid_index_name."""
    import pyarrow.compute as pc

    from skewer_ray.config import SinkConfig, default_config, render_template
    from skewer_ray.encoders import get_encoder, rfc3339_from_ns
    from skewer_ray.gen import generate_table
    from skewer_ray.stages import (EnrichStage, FanoutEncodeStage,
                                   ParseStage, RouterStage)
    from skewer_ray.stages.esbulk import valid_index_name
    from skewer_ray.stages.fanout import _sanitize_route

    cfg = default_config()
    b = ParseStage(decoder_for_family=cfg.decoder_for_family,
                   custom_parsers=cfg.custom_parsers)(generate_table(2000))
    b = EnrichStage(role_lookup=cfg.role_lookup,
                    tool_lookup=cfg.tool_lookup)(b)
    b = RouterStage(hooks=cfg.hooks)(b)
    sinks = (
        SinkConfig(name="gelf", kind="kafka", encoder="gelf"),
        SinkConfig(name="avro", kind="kafka", encoder="avro"),
        SinkConfig(name="file", kind="file", encoder="file",
                   filename_tmpl="{appname:>5}_{date}"),
        SinkConfig(name="es", kind="es", encoder="json",
                   filename_tmpl="logs-{severity:02d}-{hostname!s}"),
        SinkConfig(name="es_mix", kind="es", encoder="json",
                   filename_tmpl="logs-{msgid!s}-{severity:02d}"),
    )
    out = FanoutEncodeStage(sinks=sinks)(b)

    passing = b.filter(pc.equal(b["filter_status"], "passing")).to_pylist()
    assert len(passing) > 1000
    for r in passing:
        r["date"] = rfc3339_from_ns(r["time_reported"])[:10]
    got = {(s, u): (st, rt, e) for s, u, st, rt, e in zip(
        *(out[c].to_pylist()
          for c in ("sink", "uid", "status", "route", "encoded")))}
    es_statuses = set()
    for s in sinks:
        encode = get_encoder(s.encoder)
        for r in passing:
            status, route, encoded = got[(s.name, r["uid"])]
            want = encode(r)
            if want is None:
                assert (status, encoded) == ("permerror", None)
                continue
            if s.kind == "kafka":
                assert (status, route, encoded) == \
                    ("passing", r["topic"], want)
            elif s.kind == "file":
                assert (status, encoded) == ("passing", want)
                assert route == _sanitize_route(
                    render_template(s.filename_tmpl, r))
            else:
                name = render_template(s.filename_tmpl, r)
                es_statuses.add(status)
                if valid_index_name(name):
                    assert (status, route, encoded) == \
                        ("passing", name, want)
                else:
                    assert (status, route, encoded) == ("nack", "-", None)
    assert es_statuses == {"passing", "nack"}


def test_avro_textual_variants_roundtrip():
    """jsonavro/fulljsonavro (encoders/json.go:58-79,109-132): Avro JSON
    text whose parsed content equals the binary form's decode — the
    4-entry avro family is complete and internally consistent."""
    import json as _j

    from skewer_ray.encoders import get_encoder
    from skewer_ray.encoders.avro import (decode_avro, decode_fullavro,
                                          encode_avro, encode_fullavro)

    rec = {"facility": 4, "severity": 2,
           "time_reported": 1700000000123456789, "time_generated": 0,
           "hostname": "host01", "appname": "app", "procid": "12",
           "msgid": "ID47", "message": "hello é 世界",
           "properties": '{"d1":{"k":"v"},"d2":{"a":"b"}}',
           "uid": "conv-1:7", "role": "tool"}

    txt = get_encoder("jsonavro")(rec)
    native = _j.loads(txt)
    assert native == decode_avro(encode_avro(rec))

    full_txt = get_encoder("fulljsonavro")(rec)
    full = _j.loads(full_txt)
    # fullmessage.avsc field set (model/types.go:365-375)
    assert set(full) == {"ClientAddr", "SourceType", "SourcePath",
                         "SourcePort", "Uid", "Fields"}
    assert full["Uid"] == "conv-1:7" and full["SourceType"] == "tool"
    assert full["Fields"] == native

    # binary fullavro round-trips through its own reader and agrees
    wire = encode_fullavro(rec)
    back = decode_fullavro(wire)
    assert back["Uid"] == "conv-1:7" and back["SourcePort"] == 0
    assert back["Fields"] == native

    # the registry serves the latin-1-carried binary form
    s = get_encoder("fullavro")(rec)
    assert s.encode("latin-1") == wire
