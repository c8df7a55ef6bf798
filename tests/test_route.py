"""Routing/filter hook tests (javascript/vm.go semantics +
store/forwarder.go:126-219) and the topic validation ladder."""

import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from skewer_ray.config import (HookSet, default_config, default_filter,
                               default_topic_fn, render_template)
from skewer_ray.constants import (DEFAULT_TOPIC, FILTER_DROPPED, FILTER_PASS,
                                  FILTER_REJECTED, topic_name_is_valid)
from skewer_ray.stages import RouterStage


def test_topic_validation():
    assert topic_name_is_valid("syslog-app1")
    assert topic_name_is_valid("a.B_c-9")
    assert not topic_name_is_valid("")
    assert not topic_name_is_valid("x" * 250)
    assert not topic_name_is_valid("has space")
    assert not topic_name_is_valid("sl/ash")


def test_finalize_topics_matches_per_row_check():
    """The vectorized topic check (charset regex + byte length) keeps a
    topic exactly where topic_name_is_valid does; null stays null."""
    from skewer_ray.config import finalize_topics
    topics = ["", "a", "x" * 249, "x" * 250, "a.B_c-9", "has space",
              "sl/ash", "café", "é" * 100, "é" * 200, "x" * 248 + "é",
              "\u00e9", "ﬁx", "tab\t"]
    got = finalize_topics(pa.array(topics + [None], pa.string()))
    want = [t if topic_name_is_valid(t) else DEFAULT_TOPIC for t in topics]
    assert got.to_pylist() == want + [None]


def test_hookset_topic_ladder():
    h = HookSet(topic_fn=lambda r: "")
    assert h.topic({}) == DEFAULT_TOPIC                  # empty → default
    h = HookSet(topic_fn=lambda r: "bad topic!")
    assert h.topic({}) == DEFAULT_TOPIC                  # invalid → default
    h = HookSet(topic_tmpl="syslog-{appname}")
    assert h.topic({"appname": "x"}) == "syslog-x"       # template fallback
    h = HookSet(topic_fn=lambda r: 1 / 0)
    assert h.topic({}) == DEFAULT_TOPIC                  # hook error → default


def test_render_template_missing_keys():
    assert render_template("pk-{hostname}", {}) == "pk-"


def test_default_filter():
    assert default_filter({"severity": 7, "appname": "a", "msgid": ""})[0] == FILTER_DROPPED
    assert default_filter({"severity": 1, "appname": "reject-me", "msgid": ""})[0] == FILTER_REJECTED
    code, mut = default_filter({"severity": 1, "appname": "a", "msgid": "id07"})
    assert code == FILTER_PASS and mut == {"msgid": "ID07"}


def _record_batch(**overrides):
    base = {
        "conv_id": ["conv-00000000"], "turn_idx": [0], "sub_idx": [0],
        "uid": ["conv-00000000:0:0"], "role": ["user"], "tool": [""],
        "parse_ok": [True], "priority": [34], "facility": [4],
        "severity": [2], "version": [1], "time_reported": [0],
        "time_generated": [0], "hostname": ["h"], "appname": ["a"],
        "procid": ["p"], "msgid": ["id01"], "structured": [""],
        "message": ["m"], "properties": ["{}"],
    }
    base.update(overrides)
    n = len(base["conv_id"])
    cols = {}
    for k, v in base.items():
        if k in ("turn_idx", "sub_idx", "priority", "facility", "severity",
                 "version"):
            cols[k] = pa.array(v, pa.int32())
        elif k in ("time_reported", "time_generated"):
            cols[k] = pa.array(v, pa.int64())
        elif k == "parse_ok":
            cols[k] = pa.array(v, pa.bool_())
        else:
            cols[k] = pa.array(v, pa.string())
    assert all(len(v) == n for v in base.values())
    return pa.table(cols)


def test_router_stage_pass_mutation():
    cfg = default_config()
    out = RouterStage(cfg.hooks)(_record_batch())
    assert out["topic"][0].as_py() == "syslog-a"
    assert out["partition_key"][0].as_py() == "pk-h"
    assert out["filter_status"][0].as_py() == "passing"
    assert out["msgid"][0].as_py() == "ID01"  # mutation written back


def test_router_stage_drop_reject_parse_error():
    cfg = default_config()
    b = _record_batch(
        conv_id=["conv-00000000"] * 3, turn_idx=[0, 1, 2], sub_idx=[0] * 3,
        uid=["u0", "u1", "u2"], role=["user"] * 3, tool=[""] * 3,
        parse_ok=[True, True, False], priority=[39, 34, 0],
        facility=[4, 4, 0], severity=[7, 2, 0], version=[1, 1, 0],
        time_reported=[0] * 3, time_generated=[0] * 3,
        hostname=["h"] * 3, appname=["a", "reject-me", ""],
        procid=[""] * 3, msgid=["id01"] * 3, structured=[""] * 3,
        message=["m"] * 3, properties=["{}"] * 3)
    out = RouterStage(cfg.hooks)(b)
    assert out["filter_status"].to_pylist() == ["dropped", "rejected",
                                                "parse_error"]


def test_router_filter_error_is_permerror():
    def bad_filter(rec):
        raise RuntimeError("boom")
    out = RouterStage(HookSet(filter_fn=bad_filter))(_record_batch())
    assert out["filter_status"][0].as_py() == "error"


def test_partition_number_hook():
    import dataclasses
    h = HookSet(partition_number_fn=lambda r: r["severity"] + 10)
    out = RouterStage(h)(_record_batch())
    assert out["partition_number"][0].as_py() == 12
    # batch forms without a partition-number batch form: the hook must
    # still run, so the HookSet routes per row
    h = dataclasses.replace(default_config().hooks,
                            partition_number_fn=h.partition_number_fn)
    assert not h.vectorized
    assert RouterStage(h)(_record_batch())["partition_number"][0].as_py() == 12


def test_per_conf_hook_selection():
    """Per-ConfId hook envs (store/forwarder.go:133-156): different
    source families route through different topic hooks."""
    import pyarrow as pa
    from skewer_ray.config import HookSet, default_config
    from skewer_ray.stages import ParseStage, RouterStage
    from skewer_ray.gen import generate_table

    cfg = default_config()
    tbl = generate_table(600)  # conv families 0..N
    parsed = ParseStage(decoder_for_family=cfg.decoder_for_family,
                        custom_parsers=cfg.custom_parsers)(tbl)
    hooks = {
        None: HookSet(topic_tmpl="default-{appname}"),
        0: HookSet(topic_fn=lambda r: "family-zero"),
        2: HookSet(topic_fn=lambda r: "family-two"),
    }
    out = RouterStage(hooks=hooks)(parsed)
    from skewer_ray.stages.parse import family_array
    fams = family_array(out["conv_id"])
    topics = out["topic"].to_pylist()
    ok = out["parse_ok"].to_pylist()
    for f, t, o in zip(fams, topics, ok):
        if not o:
            continue
        if f == 0:
            assert t == "family-zero"
        elif f == 2:
            assert t == "family-two"
        else:
            assert t.startswith("default-") or t == "default-topic"

    # sections that compile next to sections kept per-row (``len(...)``,
    # ``msg.Structured``, a lambda, a Python-callable HookSet): each
    # routes exactly as the all-per-row path does (helpers below)
    from skewer_ray.toml_config import config_from_toml
    cfg = config_from_toml(_toml([
        _section("rfc5424"),
        _section("rfc5424", topic=_LEN_TOPIC),
        _section("rfc3164", filt=_STRUCTURED_FILTER),
        _section("rfc3164", topic=_LAMBDA_TOPIC),
    ]))
    assert [cfg.hooks[i].vectorized for i in range(4)] == [
        True, False, False, False]
    hooks = dict(cfg.hooks)
    hooks[5] = HookSet(topic_fn=lambda r: "family-five")
    parsed = _parsed(cfg, 1200)
    fast = RouterStage(hooks)(parsed)
    assert fast.equals(RouterStage(_per_row_only(hooks))(parsed))
    fams = family_array(fast["conv_id"])
    ok = fast["parse_ok"].to_pylist()
    for f, t, o in zip(fams, fast["topic"].to_pylist(), ok):
        if o and f == 1:
            assert t.startswith("len-")
        elif o and f == 3:
            assert t.startswith("lam-") or t == DEFAULT_TOPIC
        elif o and f == 5:
            assert t == "family-five"


def test_vectorized_hooks_match_loop_path():
    """The all-Arrow fast path and the per-row loop must produce
    identical route columns over a real parsed batch (all 12 families,
    parse errors, drops, rejects, mutations)."""
    import dataclasses
    from skewer_ray.config import default_config
    from skewer_ray.gen import generate_table
    from skewer_ray.stages import ParseStage

    cfg = default_config()
    tbl = generate_table(3000)
    parsed = ParseStage(decoder_for_family=cfg.decoder_for_family,
                        custom_parsers=cfg.custom_parsers)(tbl)
    # non-ASCII msgids whose Python upper() differs from Arrow's
    msgid = parsed["msgid"].to_pylist()
    odd = ["straße", "ﬁx", "ŉ", "ΐ"]
    for i in range(0, len(msgid), 7):
        msgid[i] = odd[(i // 7) % len(odd)]
    parsed = parsed.set_column(parsed.column_names.index("msgid"), "msgid",
                               pa.array(msgid, pa.string()))
    assert cfg.hooks.vectorized
    fast = RouterStage(hooks=cfg.hooks)(parsed)
    loop_hooks = dataclasses.replace(
        cfg.hooks, topic_batch=None, partition_key_batch=None,
        filter_batch=None)
    assert not loop_hooks.vectorized
    slow = RouterStage(hooks=loop_hooks)(parsed)
    for col in ("topic", "partition_key", "partition_number",
                "filter_result", "filter_status", "msgid"):
        assert fast[col].to_pylist() == slow[col].to_pylist(), col


def test_null_parse_ok_is_parse_error_on_both_paths():
    """A null ``parse_ok`` is a parse error whether the HookSet routes
    with batch forms or row by row."""
    import dataclasses
    cfg = default_config()
    b = _record_batch(
        conv_id=["conv-00000000"] * 3, turn_idx=[0, 1, 2], sub_idx=[0] * 3,
        uid=["u0", "u1", "u2"], role=["user"] * 3, tool=[""] * 3,
        parse_ok=[None, True, None], priority=[34] * 3, facility=[4] * 3,
        severity=[2] * 3, version=[1] * 3, time_reported=[0] * 3,
        time_generated=[0] * 3, hostname=["h"] * 3,
        appname=["reject-me", "a", "a"], procid=[""] * 3,
        msgid=["id01"] * 3, structured=[""] * 3, message=["m"] * 3,
        properties=["{}"] * 3)
    loop_hooks = dataclasses.replace(
        cfg.hooks, topic_batch=None, partition_key_batch=None,
        filter_batch=None)
    fast = RouterStage(cfg.hooks)(b)
    slow = RouterStage(loop_hooks)(b)
    assert fast["filter_status"].to_pylist() == [
        "parse_error", "passing", "parse_error"]
    assert fast["filter_result"].to_pylist() == [-1, 0, -1]
    assert fast["topic"].to_pylist() == ["", "syslog-a", ""]
    assert fast.equals(slow)


# ---------------------------------------------------------------------------
# TOML hooks: compiled batch forms against the per-row hooks
# ---------------------------------------------------------------------------

_TOPIC_SRC = '''
def Topic(msg):
    if msg.Appname:
        return "syslog-" + msg.Appname
    return ""
'''

_FILTER_SRC = '''
def FilterMessages(msg):
    if msg.Severity == 7:
        return FILTER.DROPPED
    if msg.Appname == "reject-me":
        return FILTER.REJECTED
    msg.Msgid = msg.Msgid.upper()
    return FILTER.PASS
'''

_PARSER_SRC = '''
def Zog(raw):
    parts = raw.split("|")
    if len(parts) != 3 or parts[0] != "ZOG":
        return None
    return {"appname": parts[1], "message": parts[2],
            "facility": 16, "severity": 5}
'''

_FORMATS = ["rfc5424", "rfc5424", "rfc3164", "rfc3164", "rfc3164", "json",
            "rsyslogjson", "gelf", "influxdb", "w3c", "ltsv", "Zog"]


def _section(fmt, topic=_TOPIC_SRC, filt=_FILTER_SRC):
    extra = ('\n  w3c_fields = "date time cs-method cs-uri sc-status"'
             if fmt == "w3c" else "")
    return (f'[[syslog]]\n  format = "{fmt}"{extra}\n'
            '  partition_key_tmpl = "pk-{{.Hostname}}"\n'
            f"  topic_function = '''{topic}'''\n"
            f"  filter_func = '''{filt}'''\n")


def _toml(sections):
    return "\n".join(
        sections
        + [f"[[parser]]\n  name = \"Zog\"\n  func = '''{_PARSER_SRC}'''\n",
           '[kafka]\n  brokers = ["localhost:9092"]\n'])


# the benchmark's 12-section config: one section per generator family
HOOKS_TOML = _toml([_section(f) for f in _FORMATS])


def _per_row_only(hooks):
    """The same hooks without their batch forms: every group takes the
    per-row loop."""
    import dataclasses
    strip = dict(topic_batch=None, partition_key_batch=None,
                 filter_batch=None)
    if isinstance(hooks, HookSet):
        return dataclasses.replace(hooks, **strip)
    return {k: dataclasses.replace(h, **strip) for k, h in hooks.items()}


def _parsed(cfg, n):
    from skewer_ray.gen import generate_table
    from skewer_ray.stages import ParseStage
    return ParseStage(decoder_for_family=cfg.decoder_for_family,
                      custom_parsers=cfg.custom_parsers)(generate_table(n))


def test_toml_hooks_routed_output_equals_per_row_path():
    from skewer_ray.toml_config import config_from_toml
    cfg = config_from_toml(HOOKS_TOML)
    sections = [h for k, h in cfg.hooks.items() if k is not None]
    assert len(sections) == 12
    assert all(h.vectorized for h in sections)
    parsed = _parsed(cfg, 6000)
    fast = RouterStage(cfg.hooks)(parsed)
    slow = RouterStage(_per_row_only(cfg.hooks))(parsed)
    assert fast.equals(slow)
    assert fast["uid"].equals(parsed["uid"])


def test_dispatcher_keeps_input_order_for_interleaved_families():
    """Families interleaved row by row (not grouped as ParseStage leaves
    them) come back in input order, routed as the per-row path does."""
    import numpy as np
    from skewer_ray.stages.parse import family_array
    from skewer_ray.toml_config import config_from_toml
    cfg = config_from_toml(HOOKS_TOML)
    parsed = _parsed(cfg, 1200)
    shuffled = parsed.take(
        np.random.default_rng(7).permutation(parsed.num_rows))
    fams = family_array(shuffled["conv_id"])
    assert (fams[1:] != fams[:-1]).sum() > 12 * 2   # many runs per family
    out = RouterStage(cfg.hooks)(shuffled)
    assert out["uid"].equals(shuffled["uid"])
    assert out.equals(RouterStage(_per_row_only(cfg.hooks))(shuffled))


_LEN_TOPIC = '''
def Topic(msg):
    return "len-" + str(len(msg.Appname))
'''

_STRUCTURED_FILTER = '''
def FilterMessages(msg):
    if msg.Structured == "":
        return FILTER.REJECTED
    msg.Msgid = "sd"
    return FILTER.PASS
'''

_LAMBDA_TOPIC = '''
Topic = lambda msg: "lam-" + msg.Appname
'''


# --- property test: hook sources from the compile whitelist ---------------

_STR_FIELDS = ["Appname", "Msgid", "Hostname", "procid"]
_INT_FIELDS = ["Severity", "Facility"]
_STR_LITS = ['""', '"a"', '"reject-me"', '"straße"', '"x-"', '"ﬁx"']
_INT_LITS = ["0", "1", "7", "-3"]


def _str_expr(depth):
    leaf = st.one_of(st.sampled_from([f"msg.{f}" for f in _STR_FIELDS]),
                     st.sampled_from(_STR_LITS))
    if depth == 0:
        return leaf
    sub = _str_expr(depth - 1)
    return st.one_of(
        leaf,
        st.builds(lambda a, b: f"({a} + {b})", sub, sub),
        st.builds(lambda a: f"{a}.upper()", sub),
        st.builds(lambda a, op, b: f"({a} {op} {b})", sub,
                  st.sampled_from(["or", "and"]), sub))


def _int_expr():
    return st.one_of(st.sampled_from([f"msg.{f}" for f in _INT_FIELDS]),
                     st.sampled_from(_INT_LITS))


def _cond(depth):
    cmp = st.one_of(
        st.builds(lambda a, op, b: f"{a} {op} {b}", _str_expr(1),
                  st.sampled_from(["==", "!="]), _str_expr(1)),
        st.builds(lambda a, op, b: f"{a} {op} {b}", _int_expr(),
                  st.sampled_from(["==", "!="]), _int_expr()),
        _str_expr(1), _int_expr())
    if depth == 0:
        return cmp
    sub = _cond(depth - 1)
    return st.one_of(
        cmp,
        st.builds(lambda a: f"not ({a})", sub),
        st.builds(lambda a, op, b: f"({a}) {op} ({b})", sub,
                  st.sampled_from(["or", "and"]), sub))


def _chain(ret):
    """An if/elif/else chain whose bodies are one return."""
    return st.builds(
        lambda conds, rets, els: "".join(
            f"    {'if' if i == 0 else 'elif'} {c}:\n        return {r}\n"
            for i, (c, r) in enumerate(zip(conds, rets)))
        + (f"    else:\n        return {els}\n" if els else ""),
        st.lists(_cond(1), min_size=1, max_size=3),
        st.lists(ret, min_size=3, max_size=3),
        st.one_of(st.none(), ret))


def _body(ret, final):
    assign = st.builds(lambda f, e: f"    msg.{f} = {e}\n",
                       st.sampled_from(["Msgid", "Appname", "Message"]),
                       _str_expr(1))
    return st.builds(lambda stmts, last: "".join(stmts) + last,
                     st.lists(st.one_of(assign, _chain(ret)), max_size=4),
                     final)


_CODES = st.sampled_from(["FILTER.PASS", "FILTER.DROPPED",
                          "FILTER.REJECTED", "FILTER.ERROR", "0", "9"])
_FILTER_HOOK = _body(_CODES, st.one_of(
    st.just(""), st.builds(lambda c: f"    return {c}\n", _CODES))).map(
    lambda b: "def FilterMessages(msg):\n" + (b or "    return\n"))
_TOPIC_HOOK = _body(_str_expr(2), st.one_of(
    st.just("    return\n"),
    st.builds(lambda e: f"    return {e}\n", _str_expr(2)))).map(
    lambda b: "def Topic(msg):\n" + b)

_TEXT = st.one_of(st.none(), st.sampled_from(
    ["", "a", "reject-me", "straße", "ﬁx", "ŉ", "ΐ", "app.1", "x y"]))


@st.composite
def _records(draw):
    n = draw(st.integers(1, 12))
    col = lambda s: draw(st.lists(s, min_size=n, max_size=n))  # noqa: E731
    sev = col(st.one_of(st.none(), st.sampled_from([0, 1, 5, 7])))
    return _record_batch(
        conv_id=["conv-00000000"] * n, turn_idx=list(range(n)),
        sub_idx=[0] * n, uid=[f"u{i}" for i in range(n)],
        role=["user"] * n, tool=[""] * n,
        parse_ok=col(st.sampled_from([True, True, True, False, None])),
        priority=[8] * n, facility=col(st.sampled_from([0, 1, 16])),
        severity=sev, version=[1] * n, time_reported=[0] * n,
        time_generated=[0] * n, hostname=col(_TEXT), appname=col(_TEXT),
        procid=col(_TEXT), msgid=col(_TEXT), structured=[""] * n,
        message=col(_TEXT), properties=["{}"] * n)


@settings(max_examples=150, deadline=None)
@given(_TOPIC_HOOK, _FILTER_HOOK,
       st.sampled_from(["", "t-{{.Appname}}-{{.Severity}}", "{{.Msgid}}"]),
       _records())
def test_compiled_hooks_match_per_row_hooks(topic, filt, tmpl, batch):
    """Hook sources drawn from the compile whitelist always compile, and
    their batch forms route every record (nulls, "", non-ASCII, parse
    errors) exactly as the per-row hooks do."""
    from skewer_ray.toml_config import config_from_toml
    sec = ('[[syslog]]\n  format = "rfc5424"\n'
           f"  topic_function = '''{topic}'''\n"
           f"  filter_func = '''{filt}'''\n")
    if tmpl:   # a template key: partition keys render it
        sec += f'  partition_key_tmpl = "{tmpl}"\n'
    hs = config_from_toml(sec).hooks
    assert hs.vectorized, (topic, filt)
    fast = RouterStage(hs)(batch)
    slow = RouterStage(_per_row_only(hs))(batch)
    assert fast.equals(slow), (topic, filt, tmpl)
