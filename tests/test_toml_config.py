"""TOML pipeline-config surface (skewer.example.toml semantics with
Python as the embedded hook language)."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from skewer_ray.toml_config import config_from_toml, go_template_to_py

EXAMPLE = '''
# two listeners with different formats + hooks
[[syslog]]
  port = 1514
  format = "rfc5424"
  protocol = "tcp"
  topic_tmpl = "logs-{{.Appname}}"
  partition_key_tmpl = "pk-{{.Hostname}}"
  filter_func = """
def FilterMessages(msg):
    if msg.Severity == 7:
        return FILTER.DROPPED
    msg.Msgid = msg.Msgid.upper()
    return FILTER.PASS
"""

[[syslog]]
  port = 2514
  format = "Zed"
  protocol = "tcp"
  topic_function = """
def Topic(msg):
    return "zed-" + msg.Appname
"""

[[parser]]
  name = "Zed"
  func = """
def Zed(raw):
    if not raw.startswith("ZED|"):
        return None
    m = NewEmptySyslogMessage()
    m.Appname = "zedapp"
    m.Facility = 16
    m.Severity = 5
    m.Message = raw.split("|", 1)[1]
    return m
"""

[kafka]
  brokers = ["k1", "k2"]
  compression = "snappy"

[file_destination]
  filename = "{{.Appname}}-{{.Hostname}}"
  format = "file"

[elasticsearch_destination]
  index_name_template = "logs-{{.Msgid}}"
  format = "json"
'''


def test_go_template_mapping():
    assert go_template_to_py("syslog-{{.Appname}}") == "syslog-{appname}"
    assert go_template_to_py("{{ .Hostname }}/{{.Msgid}}") == \
        "{hostname}/{msgid}"
    assert go_template_to_py("x-{{.TimeReported}}") == "x-{time_reported}"


def test_config_from_toml_structure():
    cfg = config_from_toml(EXAMPLE)
    assert set(cfg.decoder_for_family) == {0, 1}
    assert cfg.decoder_for_family[0].format == "rfc5424"
    assert cfg.decoder_for_family[1].format == "custom"
    assert cfg.decoder_for_family[1].custom_parser == "Zed"
    assert [s.name for s in cfg.sinks] == ["kafka", "file", "es"]
    assert cfg.sinks[1].filename_tmpl == "{appname}-{hostname}"
    assert cfg.sinks[2].kind == "es"
    assert cfg.sinks[2].filename_tmpl == "logs-{msgid}"
    # two sections → per-ConfId hook dict
    assert isinstance(cfg.hooks, dict) and 0 in cfg.hooks and 1 in cfg.hooks


def test_config_without_a_source_is_refused():
    """No [[syslog]] section and no enabled [journald] leaves every
    turn without a decoder: the load fails, not each task later."""
    import pytest

    for text in ('[kafka]\n  brokers = ["x"]\n',
                 '[journald]\n  enabled = false\n[kafka]\n'):
        with pytest.raises(ValueError, match="no source"):
            config_from_toml(text)
    cfg = config_from_toml('[journald]\n  enabled = true\n')
    assert [c.format for c in cfg.decoder_for_family.values()] == \
        ["rfc3164"]


def test_toml_hooks_through_router(ray_session):
    """The compiled Python hooks behave like the reference contract:
    template topics, FILTER enum results, PASS mutation write-back, and
    the [[parser]] custom format — end to end through the real stages."""
    from skewer_ray.stages import ParseStage, RouterStage

    cfg = config_from_toml(EXAMPLE)
    rows = []
    # conv index % 12 = family → section: conv-..00 → section 0 (5424),
    # conv-..01 → section 1 (Zed custom parser)
    for t in range(4):
        sev = 7 if t == 3 else 2
        rows.append(("conv-00000000", t,
                     f"<{32 + sev}>1 2026-01-15T05:10:02Z h app1 - id{t} - m{t}"))
        rows.append(("conv-00000001", t, f"ZED|payload {t}"))
    rows.append(("conv-00000001", 9, "not zed"))
    tbl = pa.table({
        "conv_id": pa.array([r[0] for r in rows]),
        "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
        "role": pa.array([""] * len(rows)),
        "text": pa.array([r[2] for r in rows]),
        "tool": pa.array([""] * len(rows)),
        "ts": pa.array([1_700_000_000_000_000] * len(rows),
                       pa.timestamp("us")),
    })
    parsed = ParseStage(decoder_for_family=cfg.decoder_for_family,
                        custom_parsers=cfg.custom_parsers)(tbl)
    routed = RouterStage(hooks=cfg.hooks)(parsed)

    by_key = {(c, t): i for i, (c, t) in enumerate(
        zip(routed["conv_id"].to_pylist(),
            pc.cast(routed["turn_idx"], pa.int64()).to_pylist()))}
    topics = routed["topic"].to_pylist()
    status = routed["filter_status"].to_pylist()
    msgids = routed["msgid"].to_pylist()
    apps = routed["appname"].to_pylist()

    i = by_key[("conv-00000000", 0)]
    assert topics[i] == "logs-app1"
    assert status[i] == "passing"
    assert msgids[i] == "ID0"            # PASS mutation write-back
    i = by_key[("conv-00000000", 3)]
    assert status[i] == "dropped"        # severity 7 → FILTER.DROPPED
    i = by_key[("conv-00000001", 0)]
    assert apps[i] == "zedapp"           # [[parser]] custom format
    assert topics[i] == "zed-zedapp"     # topic_function
    assert routed["facility"].to_pylist()[i] == 16
    i = by_key[("conv-00000001", 9)]
    assert not routed["parse_ok"].to_pylist()[i]  # parser returned None


def test_toml_config_runs_fused_pipeline(ray_session):
    """config_from_toml output drives the full fused fan-out path
    (hooks/parsers survive cloudpickle to Ray workers)."""
    import ray.data as rd
    from skewer_ray.pipelines.flagship import build_fanout

    cfg = config_from_toml(EXAMPLE)
    tbl = pa.table({
        "conv_id": pa.array(["conv-00000001"] * 50),
        "turn_idx": pa.array(range(50), pa.int32()),
        "role": pa.array([""] * 50),
        "text": pa.array([f"ZED|line {i}" for i in range(50)]),
        "tool": pa.array([""] * 50),
        "ts": pa.array([1_700_000_000_000_000] * 50, pa.timestamp("us")),
    })
    out = build_fanout(rd.from_arrow(tbl), cfg).to_pandas()
    passing = out[(out.sink == "kafka") & (out.status == "passing")]
    assert len(passing) == 50
    assert (passing.topic == "zed-zedapp").all()
    froutes = out[(out.sink == "file") & (out.status == "passing")].route
    assert set(froutes) == {"zedapp-"}  # {appname}-{hostname}, empty host


def test_toml_hooks_pickle_without_module_scan(monkeypatch):
    """Every exec-built hook, filter and parser function has a
    ``__module__``, so pickling the fused chain probes no module for
    one (cloudpickle's ``_whichmodule`` scans all of ``sys.modules``
    for each function without one)."""
    from ray import cloudpickle
    from ray.cloudpickle import cloudpickle as cp_impl
    from test_route import HOOKS_TOML

    from skewer_ray.pipelines.flagship import _specs
    from skewer_ray.stages.fused import fused_task_fn

    moduleless = []
    whichmodule = cp_impl._whichmodule

    def counting(obj, name):
        if getattr(obj, "__module__", "") is None:
            moduleless.append(name)
        return whichmodule(obj, name)
    monkeypatch.setattr(cp_impl, "_whichmodule", counting)
    cloudpickle.dumps(fused_task_fn(_specs(config_from_toml(HOOKS_TOML))))
    assert moduleless == []


def test_equal_sections_share_one_hookset():
    from test_route import HOOKS_TOML

    from skewer_ray.stages import RouterStage
    cfg = config_from_toml(HOOKS_TOML)
    assert cfg.hooks[0] is cfg.hooks[11]
    assert len(RouterStage(cfg.hooks).groups) == 1


def test_differing_section_routes_as_its_own_group():
    from test_route import (_FORMATS, _parsed, _per_row_only, _section,
                            _toml)

    from skewer_ray.stages import RouterStage
    filt = '''
def FilterMessages(msg):
    if msg.Severity == 6:
        return FILTER.DROPPED
    return FILTER.PASS
'''
    sections = [_section(f) for f in _FORMATS]
    sections[5] = _section(_FORMATS[5], filt=filt)
    cfg = config_from_toml(_toml(sections))
    assert cfg.hooks[5] is not cfg.hooks[0]
    assert cfg.hooks[0] is cfg.hooks[11]
    router = RouterStage(cfg.hooks)
    assert len(router.groups) == 2
    parsed = _parsed(cfg, 6000)
    fast = router(parsed)
    assert fast.equals(RouterStage(_per_row_only(cfg.hooks))(parsed))
