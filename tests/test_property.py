"""Property-based roundtrips (hypothesis): encoder→decoder inverses,
property-bag canonicalization."""

from __future__ import annotations

import json
import string

from hypothesis import given, settings
from hypothesis import strategies as st

from skewer_ray.decoders import DecoderConfig, RecordBuilder, get_decoder
from skewer_ray.encoders import (encode_protobuf, encode_rfc3164,
                                 encode_rfc5424)
from skewer_ray.schema import props_dumps, props_loads

_PRINTABLE = string.ascii_letters + string.digits + ".-_:/"
ident = st.text(alphabet=_PRINTABLE, min_size=1, max_size=20)
msg_text = st.text(
    alphabet=string.ascii_letters + string.digits + " .,-!?", max_size=60
).map(str.strip)
ts_ns = st.integers(min_value=0, max_value=4_000_000_000).map(
    lambda s: s * 1_000_000_000)


def _decode_one(fmt: str, line: str, ts: int = 0) -> RecordBuilder:
    b = RecordBuilder()
    cfg = DecoderConfig(format=fmt)
    get_decoder(cfg)([line], [ts], b, cfg)
    return b


# "-" is the RFC5424 nil token: a field whose literal value is "-"
# cannot round-trip by design (encodes to nil, decodes to empty)
_not_nil = ident.filter(lambda s: s != "-")


@given(pri=st.integers(0, 191), host=_not_nil, app=st.text(
       _PRINTABLE, min_size=1, max_size=20).filter(lambda s: s != "-"),
       proc=_not_nil, msgid=st.text(
           _PRINTABLE, min_size=1, max_size=16).filter(lambda s: s != "-"),
       msg=msg_text, tr=ts_ns)
@settings(max_examples=150, deadline=None)
def test_rfc5424_encode_decode_roundtrip(pri, host, app, proc, msgid, msg, tr):
    rec = {"priority": pri, "facility": pri // 8, "severity": pri % 8,
           "version": 1, "time_reported": tr, "time_generated": tr,
           "hostname": host, "appname": app[:48], "procid": proc,
           "msgid": msgid[:32], "structured": "", "message": msg,
           "properties": "{}"}
    wire = encode_rfc5424(rec)
    assert wire is not None
    b = _decode_one("rfc5424", wire)
    assert b.parse_ok == [True]
    assert b.priority == [pri]
    assert b.hostname == [host] and b.appname == [app[:48]]
    assert b.procid == [proc] and b.msgid == [msgid[:32]]
    assert b.message == [msg]
    assert b.time_reported == [tr]


# RFC3164 hostname heuristic accepts letters/digits/.:-_ only
# (decoders/rfc3164_format.go:188-194); '/' etc. classify as TAG
hostident = st.text(alphabet=string.ascii_letters + string.digits + ".-_",
                    min_size=1, max_size=20)


@given(pri=st.integers(0, 191), host=hostident, app=st.text(
    string.ascii_letters + string.digits + ".-_", min_size=1, max_size=20),
    proc=st.integers(1, 99999).map(str),
    # empty message = tag-only line: ambiguous in RFC3164 (the
    # reference's fallback ladder cannot distinguish it either)
    msg=msg_text.filter(bool), tr=ts_ns)
@settings(max_examples=150, deadline=None)
def test_rfc3164_encode_decode_roundtrip(pri, host, app, proc, msg, tr):
    rec = {"priority": pri, "time_reported": tr, "hostname": host,
           "appname": app, "procid": proc, "message": msg}
    wire = encode_rfc3164(rec)
    b = _decode_one("rfc3164", wire, ts=tr)
    assert b.parse_ok == [True]
    assert b.priority == [pri]
    assert b.hostname == [host]
    assert b.appname == [app] and b.procid == [proc]
    assert b.message == [msg]
    # Jan _2 format has no year: decoder stamps the input ts's year —
    # round-trips month/day/time within the same year
    assert abs(b.time_reported[0] - tr) < 366 * 86400 * 1_000_000_000


@given(pri=st.integers(0, 191), fields=st.fixed_dictionaries({
    "HostName": ident, "AppName": ident, "ProcId": ident,
    "MsgId": ident, "Message": msg_text}),
    props=st.dictionaries(ident, st.dictionaries(ident, ident, max_size=3),
                          max_size=3), tr=ts_ns)
@settings(max_examples=100, deadline=None)
def test_protobuf_wire_roundtrip(pri, fields, props, tr):
    rec = {"priority": pri, "facility": pri // 8, "severity": pri % 8,
           "version": 1, "time_reported": tr, "time_generated": tr,
           "hostname": fields["HostName"], "appname": fields["AppName"],
           "procid": fields["ProcId"], "msgid": fields["MsgId"],
           "structured": "", "message": fields["Message"],
           "properties": props_dumps(props)}
    b = _decode_one("protobuf", encode_protobuf(rec))
    assert b.parse_ok == [True]
    assert b.message == [fields["Message"]]
    assert props_loads(b.properties[0]) == (props if props else {})


@given(props=st.dictionaries(ident, st.dictionaries(ident, msg_text,
                                                    max_size=4), max_size=4))
@settings(max_examples=100, deadline=None)
def test_props_canonical_roundtrip(props):
    s = props_dumps(props)
    assert props_loads(s) == (props if props else {})
    # canonical: dumping the parsed form is identical (sorted keys)
    assert props_dumps(props_loads(s)) == s if props else True
    assert json.loads(s or "{}") == (props if props else {})


@given(meas=st.text(string.ascii_letters, min_size=1, max_size=10),
       host=st.text(string.ascii_letters + string.digits, min_size=1,
                    max_size=10),
       fval=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
       ival=st.integers(-10**9, 10**9),
       sval=st.text(string.ascii_letters + " ,=", max_size=20),
       ts=st.integers(0, 4_000_000_000).map(lambda s: s * 10**9))
@settings(max_examples=100, deadline=None)
def test_influx_line_roundtrip(meas, host, fval, ival, sval, ts):
    """Construct a line-protocol point → decode → typed fields recovered
    with Go-style float formatting."""
    from skewer_ray.decoders.influxdb import _fmt_float
    line = (f'{meas},host={host} f={_fmt_float(fval)},i={ival}i,'
            f'b=true,s="{sval}" {ts}')
    b = _decode_one("influxdb", line)
    assert b.parse_ok == [True]
    assert b.message == [meas] and b.hostname == [host]
    assert b.time_reported == [ts]
    props = json.loads(b.properties[0])
    f = props["influxdb_fields"]
    assert f["f_float"] == _fmt_float(fval)
    assert f["i_integer"] == str(ival)
    assert f["b_boolean"] == "true"
    assert f["s_string"] == sval
    assert props["influxdb_tags"]["host"] == host


_sd_name = st.text(
    alphabet=string.ascii_letters + string.digits + ".-_@", min_size=1,
    max_size=12)
_sd_value = st.text(
    alphabet=string.ascii_letters + string.digits + ' .,\\"]=![', max_size=20)


@given(props=st.dictionaries(_sd_name,
                             st.dictionaries(_sd_name, _sd_value,
                                             min_size=1, max_size=3),
                             min_size=1, max_size=3),
       msg=msg_text, tr=ts_ns)
@settings(max_examples=150, deadline=None)
def test_rfc5424_structured_data_roundtrip(props, msg, tr):
    """SD escaping (\\ \" ]) must survive encode → decode back into the
    canonical Properties bag (encoders/rfc5424.go:84-110 ↔
    decoders/rfc5424_format.go:194-223)."""
    rec = {"priority": 165, "facility": 20, "severity": 5, "version": 1,
           "time_reported": tr, "time_generated": tr, "hostname": "h",
           "appname": "a", "procid": "1", "msgid": "m", "structured": "",
           "message": msg, "properties": props_dumps(props)}
    wire = encode_rfc5424(rec)
    assert wire is not None
    b = _decode_one("rfc5424", wire)
    assert b.parse_ok == [True], wire
    got = props_loads(b.properties[0])
    # encoder truncates param names to 32 chars (ours are shorter)
    assert got == props, wire
    assert b.message == [msg]


@given(host=ident, msg=msg_text, lvl=st.integers(0, 7),
       app=ident, ts=st.integers(0, 4_000_000_000))
@settings(max_examples=100, deadline=None)
def test_gelf_decode_property(host, msg, lvl, app, ts):
    line = json.dumps({"version": "1.1", "host": host, "short_message": msg,
                       "timestamp": ts, "level": lvl, "_appname": app,
                       "_custom": "x"})
    b = _decode_one("gelf", line)
    assert b.parse_ok == [True]
    assert b.hostname == [host] and b.message == [msg]
    assert b.severity == [lvl]
    # go-gelf quirk kept faithfully: _-prefixed extras never populate
    # AppName — they land in the "gelf" property domain with the
    # underscore (decoders/gelf.go:58-72 vs message.go:75-114)
    assert b.appname == [""]
    props = json.loads(b.properties[0])["gelf"]
    assert props["_appname"] == app and props["_custom"] == "x"
    assert b.time_reported == [ts * 1_000_000_000]


@given(fields=st.lists(st.sampled_from(
    ["date", "time", "cs-method", "cs-uri", "sc-status", "c-ip"]),
    min_size=2, max_size=6, unique=True),
    vals=st.lists(st.text(string.ascii_letters + string.digits + "/.",
                          min_size=1, max_size=12), min_size=6, max_size=6))
@settings(max_examples=100, deadline=None)
def test_w3c_decode_property(fields, vals):
    from skewer_ray.decoders import DecoderConfig, RecordBuilder, get_decoder
    cfg = DecoderConfig(format="w3c", w3c_fields=" ".join(fields))
    line = " ".join(vals[:len(fields)])
    b = RecordBuilder()
    get_decoder(cfg)([line], [0], b, cfg)
    assert b.parse_ok == [True]
    props = json.loads(b.properties[0])["w3c"]
    assert props == dict(zip(fields, vals[:len(fields)]))


# ---------------------------------------------------------------------------
# curation / scrub chains (pure-function properties, no Ray)
# ---------------------------------------------------------------------------

@given(text=st.text(min_size=0, max_size=600),
       size=st.integers(50, 300), stride=st.integers(20, 250))
@settings(max_examples=60, deadline=None)
def test_chunking_covers_and_reassembles(text, size, stride):
    """The real Arrow chunking kernel equals Python slicing, and when
    stride <= size the chunks tile the document with no gaps."""
    import pyarrow as pa
    from skewer_ray.functions.curation import chunk_table

    tbl = pa.table({"doc_id": pa.array([7], pa.int64()),
                    "text": pa.array([text])})
    out = chunk_table(tbl, size, stride)
    got = sorted(zip(out["chunk_idx"].to_pylist(),
                     out["chunk"].to_pylist()))
    n = len(text)
    want = []
    i = 0
    while i * stride < n:
        want.append((i, text[i * stride:i * stride + size]))
        i += 1
    assert got == want
    assert set(out["doc_id"].to_pylist()) <= {7}
    if stride <= size and n:
        pos = 0
        for i, c in got:
            assert i * stride <= pos  # no gap when stride <= size
            pos = max(pos, i * stride + len(c))
        assert pos == n  # chunks reach the end of the document


@given(s=st.text(min_size=0, max_size=200))
@settings(max_examples=100, deadline=None)
def test_scrub_and_mask_are_idempotent(s):
    """Applying the PII scrub / template mask twice equals once —
    placeholders contain no characters their own rules match."""
    import pyarrow as pa
    from skewer_ray.functions.anonymize import scrub_pii
    from skewer_ray.functions.templates import mask_templates
    col = pa.array([s])
    once = scrub_pii(col).to_pylist()[0]
    assert scrub_pii(pa.array([once])).to_pylist()[0] == once
    m1 = mask_templates(col).to_pylist()[0]
    assert mask_templates(pa.array([m1])).to_pylist()[0] == m1


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.text(max_size=6), st.integers(-5, 5)),
                min_size=1, max_size=80),
       st.booleans())
def test_vectorized_bucket_matches_per_row_crc32(pairs, composite):
    """The dictionary-encoded bucket kernel is bit-identical to the
    historical per-row crc32("\\x1f".join(map(str, key_tuple))) form,
    including composite keys and nulls (str(None) == "None")."""
    import zlib

    import pyarrow as pa
    import pyarrow.compute as pc

    from skewer_ray.stages.buckets import _bucket_of, _str_per_distinct

    tbl = pa.table({
        "a": pa.array([None if t[0] == "~" else t[0] for t in pairs],
                      pa.string()),
        "b": pa.array([t[1] for t in pairs], pa.int64()),
    })
    keys = ["a", "b"] if composite else ["a"]
    strs = [_str_per_distinct(tbl[k]) for k in keys]
    joined = strs[0] if len(strs) == 1 else \
        pc.binary_join_element_wise(*strs, "\x1f")
    if isinstance(joined, pa.ChunkedArray):
        joined = joined.combine_chunks()
    got = _bucket_of(joined, 512).to_pylist()
    cols = [tbl[k].to_pylist() for k in keys]
    want = [zlib.crc32("\x1f".join(map(str, t)).encode()) % 512
            for t in zip(*cols)]
    assert got == want


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 100)),
                min_size=0, max_size=200))
def test_segmented_cumsum_matches_per_group(pairs):
    """segmented_cumsum over key-sorted rows == an independent cumsum
    per key run (values ≥ 0 precondition of the kernel)."""
    import numpy as np
    from skewer_ray.stages.buckets import run_starts, segmented_cumsum

    pairs.sort(key=lambda t: t[0])
    keys = np.asarray([k for k, _ in pairs], dtype=np.int64)
    vals = np.asarray([v for _, v in pairs], dtype=np.int64)
    got = segmented_cumsum(vals, run_starts(keys))
    want = np.empty_like(vals)
    i = 0
    while i < len(keys):
        j = i
        while j < len(keys) and keys[j] == keys[i]:
            j += 1
        want[i:j] = np.cumsum(vals[i:j])
        i = j
    assert np.array_equal(got, want)


@given(st.lists(st.integers(0, 3), min_size=0, max_size=100))
def test_run_starts_marks_value_changes(keys):
    import numpy as np
    from skewer_ray.stages.buckets import run_starts

    arr = np.asarray(sorted(keys), dtype=np.int64)
    starts = run_starts(arr)
    for i, s in enumerate(starts):
        assert s == (i == 0 or arr[i] != arr[i - 1])


# ---------- new-op kernels (graph/bpe/quantize/diff round) ----------

@settings(max_examples=150, deadline=None)
@given(st.lists(st.text(min_size=0, max_size=8), max_size=30))
def test_bpe_pair_kernel_matches_counter(words):
    import re
    from collections import Counter

    from skewer_ray.functions.bpe import pair_counts_kernel

    # the kernel's contract: words are norm_words output, i.e.
    # whitespace-free (NUL and other non-whitespace controls are LEGAL
    # word characters and must be counted like any char)
    words = [re.sub(r"\s+", "", w) for w in words]
    keys, counts = pair_counts_kernel(words)
    got = {(chr(int(k) >> 32), chr(int(k) & 0xFFFFFFFF)): int(n)
           for k, n in zip(keys, counts)}
    want = Counter()
    for w in words:
        for i in range(len(w) - 1):
            want[(w[i], w[i + 1])] += 1
    assert got == dict(want)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 2**52))
def test_gap_bin_is_bit_length(g):
    import numpy as np

    bins = np.frexp(np.array([g], np.int64).astype(np.float64))[1]
    assert int(bins[0]) == g.bit_length()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False, width=32),
                min_size=4, max_size=64).map(tuple))
def test_quantize_codes_in_range_and_monotone(vals):
    import numpy as np

    m = np.array([vals], np.float32).astype(np.float64)
    amax = np.abs(m).max(axis=0)
    safe = np.where(amax > 0, amax, 1.0)
    q = np.clip(np.floor(m * 127.0 / safe), -127, 127)
    q[:, amax == 0.0] = 0
    assert (np.abs(q) <= 127).all()
    # sign preserved (floor can shift a positive value down but never
    # below -127 or across more than one unit of scale)
    pos = m[0] > safe * (1.0 / 127.0)
    assert (q[0][pos] >= 1).all()
