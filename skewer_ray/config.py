"""Pipeline configuration — the user-extension surface.

Mirrors the reference's per-source ``FilterSubConfig`` (conf/types.go:368-375:
filter func, topic func/template, partition-key func/template, partition
number func) and ``DecoderBaseConfig``, with JS hooks re-expressed as Python
callables or ``str.format``-style template strings. Hooks are compiled once
per config and built once per task (store/forwarder.go:133-156's
per-ConfId env cache).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .constants import (DEFAULT_TOPIC, FILTER_DROPPED, FILTER_PASS,
                        FILTER_REJECTED, topic_name_is_valid)
from .decoders import DecoderConfig
from .gen import FAMILY_NAMES


class _SafeView:
    """Zero-copy mapping view for str.format_map: missing keys render
    empty, present keys are fetched lazily from the underlying record
    (which may itself be a lazy column view — see stages/route.Row)."""

    __slots__ = ("rec",)

    def __init__(self, rec):
        self.rec = rec

    def __getitem__(self, key):
        try:
            v = self.rec[key]
        except KeyError:
            return ""
        return "" if v is None else v


def render_template(tmpl: str, rec) -> str:
    """Go text/template equivalent for simple field substitution."""
    return tmpl.format_map(_SafeView(rec))


def template_pieces(tmpl: str):
    """(literal, field) pieces of a plain-substitution template, or None
    when it uses format specs or conversions (those render per row)."""
    from string import Formatter
    pieces = []
    for lit, f, spec, conv in Formatter().parse(tmpl):
        if conv or spec:
            return None
        pieces.append((lit, f))
    return pieces


def render_template_batch(pieces, column):
    """Vectorized ``render_template`` over ``template_pieces``: an Arrow
    string join of the literals and the field columns. ``column(field)``
    returns the field's array, or None for a field that renders empty;
    nulls render empty, as in ``_SafeView``. Returns a plain str when no
    piece reads a column."""
    import pyarrow as pa
    import pyarrow.compute as pc
    parts = []
    has_array = False
    for lit, field in pieces:
        if lit:
            parts.append(lit)
        col = None if field is None else column(field)
        if col is not None:
            if not pa.types.is_string(col.type):
                col = pc.cast(col, pa.string())
            parts.append(pc.fill_null(col, ""))
            has_array = True
    if not has_array:
        return "".join(parts)
    out = parts[0] if len(parts) == 1 else pc.binary_join_element_wise(
        *parts, "")
    return out.combine_chunks() if isinstance(out, pa.ChunkedArray) else out


@dataclass(frozen=True)
class HookSet:
    """Filter/topic/partition hooks for one source config (ConfId).

    The per-record callables mirror the reference's per-message JS hooks
    and accept ANY Python function. The optional ``*_batch`` forms are
    the Ray-native vectorized fast path: RouterStage routes the rows of
    a HookSet whose ``vectorized`` holds with Arrow ops and no per-row
    loop (toml_config compiles simple Python hooks to these forms). Both
    forms are asserted equivalent in tests/test_route.py."""

    topic_fn: Optional[Callable[[dict], str]] = None
    topic_tmpl: str = ""
    partition_key_fn: Optional[Callable[[dict], str]] = None
    partition_key_tmpl: str = ""
    partition_number_fn: Optional[Callable[[dict], int]] = None
    # filter_fn(rec) -> (result_code, mutations-or-None); PASS writes
    # mutations back (javascript/vm.go:427-436)
    filter_fn: Optional[Callable[[dict], tuple]] = None
    # vectorized forms: fn(batch: pa.Table) -> pa.Array (topics must
    # already be validated/defaulted — see finalize_topics);
    # filter_batch(batch) -> (codes: int32 Array, mutations:
    # dict[col, replacement Array] applied where code == PASS)
    topic_batch: Optional[Callable] = None
    partition_key_batch: Optional[Callable] = None
    partition_number_batch: Optional[Callable] = None
    filter_batch: Optional[Callable] = None

    @property
    def vectorized(self) -> bool:
        return (self.topic_batch is not None
                and self.partition_key_batch is not None
                and self.filter_batch is not None
                and (self.partition_number_fn is None
                     or self.partition_number_batch is not None))

    def topic(self, rec: dict) -> str:
        """JS func first, template fallback, empty/invalid → default-topic
        (store/forwarder.go:169-174, javascript/vm.go:312-346,497-535)."""
        t = ""
        if self.topic_fn is not None:
            try:
                t = self.topic_fn(rec) or ""
            except Exception:
                t = ""
        elif self.topic_tmpl:
            t = render_template(self.topic_tmpl, rec)
        if not t or not topic_name_is_valid(t):
            return DEFAULT_TOPIC
        return t

    def partition_key(self, rec: dict) -> str:
        if self.partition_key_fn is not None:
            try:
                return self.partition_key_fn(rec) or ""
            except Exception:
                return ""
        if self.partition_key_tmpl:
            return render_template(self.partition_key_tmpl, rec)
        return ""

    def partition_number(self, rec: dict) -> int:
        if self.partition_number_fn is not None:
            try:
                return int(self.partition_number_fn(rec))
            except Exception:
                return 0
        return 0

    def filter(self, rec: dict) -> tuple:
        if self.filter_fn is None:
            return FILTER_PASS, None
        try:
            return self.filter_fn(rec)
        except Exception:
            return 3, None  # FILTER_ERROR → PermError (forwarder.go:203-208)


@dataclass(frozen=True)
class SinkConfig:
    """One destination (store/dests/interface.go:26-40).

    kind "kafka": route = topic column (kafkadest.go:23-108).
    kind "file": route = rendered filename template
        (filedest.go:199-263 — the filename is a template over msg fields).
    kind "stderr": single catch-all route.

    Each row's ``encoded`` payload is written unframed: a destination
    is its ``sink=`` dir of Parquet files, so there is no wire framing
    (octet counting, RELP).
    """

    name: str
    kind: str = "kafka"
    encoder: str = "rfc5424"
    filename_tmpl: str = "{appname}_{date}"


@dataclass
class PipelineConfig:
    hooks: HookSet = field(default_factory=HookSet)
    sinks: tuple = ()
    role_lookup: dict = field(default_factory=dict)
    tool_lookup: dict = field(default_factory=dict)
    # decoder per family index (the transcript generator assigns family =
    # conv_index % 12, standing in for skewer's per-source ConfId)
    decoder_for_family: dict = field(default_factory=dict)
    # named user parsers shipped to parse workers (the [[parser]] surface)
    custom_parsers: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Default fixture config (FIXTURES.md §3)
# ---------------------------------------------------------------------------

ROLE_CLASS = {
    "user": "human", "assistant": "model", "system": "control", "tool": "tool",
}
TOOL_CATEGORY = {
    "": "none", "grep": "search", "bash": "exec", "search": "search",
    "browser": "web", "python": "exec", "sql": "data", "editor": "edit",
    "calc": "data", "map": "data", "fetch": "web", "test": "exec",
    "plan": "control", "git": "vcs", "docker": "infra", "k8s": "infra",
}


# topic_name_is_valid as Arrow kernels: the charset regex, then the
# 249 limit as a byte length (the regex only matches ASCII, so bytes =
# characters); RE2 compiles a bounded {1,249} repetition slowly
_TOPIC_RE = r"^[A-Za-z0-9._-]+$"
_TOPIC_MAX = 249


def finalize_topics(raw):
    """Vectorized topic validation + default fallback
    (javascript/vm.go:497-535 rules; mirrors HookSet.topic)."""
    import pyarrow.compute as pc
    valid = pc.and_(pc.match_substring_regex(raw, _TOPIC_RE),
                    pc.less_equal(pc.binary_length(raw), _TOPIC_MAX))
    return pc.if_else(valid, raw, DEFAULT_TOPIC)


def default_topic_batch(batch):
    import pyarrow.compute as pc
    app = batch["appname"]
    raw = pc.if_else(pc.equal(app, ""), DEFAULT_TOPIC,
                     pc.binary_join_element_wise("syslog-", app, ""))
    return finalize_topics(raw)


def default_pk_batch(batch):
    import pyarrow.compute as pc
    return pc.binary_join_element_wise("pk-", batch["hostname"], "")


def default_filter_batch(batch):
    """Vectorized default_filter: codes + the PASS-only msgid-upper
    mutation column."""
    import pyarrow as pa
    import pyarrow.compute as pc
    codes = pc.if_else(
        pc.equal(batch["severity"], 7), FILTER_DROPPED,
        pc.if_else(pc.equal(batch["appname"], "reject-me"),
                   FILTER_REJECTED, FILTER_PASS))
    return (pc.cast(codes, pa.int32()), {"msgid": str_upper(batch["msgid"])})


def str_upper(col):
    """Python ``str.upper`` over a string array: ``pc.utf8_upper`` where
    the value is ASCII, ``str.upper`` once per distinct non-ASCII value
    elsewhere (Arrow maps 'ß' to 'ẞ' where Python and JS give 'SS')."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from .encoders.vectorized import _render_unique
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    up = pc.utf8_upper(col)
    is_ascii = pc.string_is_ascii(col)
    if not is_ascii.false_count:
        return up
    other = pc.invert(pc.fill_null(is_ascii, True))
    return pc.replace_with_mask(
        up, other, _render_unique(col.filter(other), str.upper))


def default_filter(rec: dict):
    """Drop debug, reject 'reject-me', otherwise pass with msgid uppercased
    (exercises PASS mutation write-back, javascript/vm.go:427-436)."""
    if rec["severity"] == 7:
        return FILTER_DROPPED, None
    if rec["appname"] == "reject-me":
        return FILTER_REJECTED, None
    return FILTER_PASS, {"msgid": rec["msgid"].upper()}


def default_topic_fn(rec: dict) -> str:
    return f"syslog-{rec['appname']}" if rec["appname"] else ""


def default_decoders() -> dict:
    cfgs = {}
    for i, name in enumerate(FAMILY_NAMES):
        if name in ("rfc5424nil",):
            cfgs[i] = DecoderConfig(format="rfc5424")
        elif name in ("rfc3164", "rfc31643339", "degenerate"):
            cfgs[i] = DecoderConfig(format="rfc3164")
        elif name == "w3c":
            cfgs[i] = DecoderConfig(
                format="w3c", w3c_fields="date time cs-method cs-uri sc-status")
        elif name == "custom":
            cfgs[i] = DecoderConfig(format="custom", custom_parser="zog")
        else:
            cfgs[i] = DecoderConfig(format=name)
    return cfgs


def zog_parser(line: str, ts_ns: int):
    """Example user parser (skewer.example.toml:70-80 surface):
    "ZOG|app|body" → appname/message, facility local0, severity notice."""
    parts = line.split("|")
    if len(parts) != 3 or parts[0] != "ZOG":
        return None
    return {"app": parts[1], "msg": parts[2], "fac": 16, "sev": 5,
            "pri": 133, "tr": ts_ns}


def default_config() -> PipelineConfig:
    return PipelineConfig(
        hooks=HookSet(
            topic_fn=default_topic_fn,
            partition_key_tmpl="pk-{hostname}",
            filter_fn=default_filter,
            topic_batch=default_topic_batch,
            partition_key_batch=default_pk_batch,
            filter_batch=default_filter_batch,
        ),
        sinks=(
            SinkConfig(name="kafka", kind="kafka", encoder="rfc5424"),
            SinkConfig(name="file", kind="file", encoder="file",
                       filename_tmpl="{appname}_{date}"),
            SinkConfig(name="stderr", kind="stderr", encoder="json"),
        ),
        role_lookup=dict(ROLE_CLASS),
        tool_lookup=dict(TOOL_CATEGORY),
        decoder_for_family=default_decoders(),
        custom_parsers={"zog": zog_parser},
    )
