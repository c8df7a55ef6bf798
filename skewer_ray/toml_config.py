"""TOML pipeline configuration — the reference's config surface
(skewer.example.toml, conf/types.go:368-375 FilterSubConfig +
conf/types.go:66-69 [[parser]]) re-expressed for the Ray engine.

Mapping:
- ``[[syslog]]`` sections → one source config (ConfId) each: the
  section's ``format`` becomes the DecoderConfig for that family slot
  (transcript family = section index, the batch stand-in for
  per-listener ConfIds), and its topic/partition-key/filter hooks
  become that slot's HookSet.
- Go ``text/template`` strings (``{{.Appname}}``) → our field templates
  (``{appname}``); the exported field names map per
  model/types.go:443-449.
- JS hook functions → PYTHON source (documented deviation: the embedded
  language is Python, everything else — function names ``Topic`` /
  ``FilterMessages`` / ``<parser name>``, the ``FILTER.PASS/DROPPED/
  REJECTED`` result enum, the mutable ``msg`` argument,
  ``NewEmptySyslogMessage()`` — keeps the reference contract,
  javascript/vm.go:45-60,312-346,427-436).
- Hook compilation: besides the per-row callable, each hook gets a batch
  form over ``pyarrow.compute`` when its source stays inside a small
  whitelist, so RouterStage routes that section without a per-row loop
  (the skewer engine compiles hooks once per ConfId,
  store/forwarder.go:133-156). The whitelist: one ``def`` of the hook
  with one argument, whose body holds only top-level
  ``msg.<Field> = expr`` assignments (later reads see them), if/elif/else
  chains whose bodies are one ``return``, and a final ``return`` (no
  value, ``None``: PASS or ""). Expressions: ``msg.<Field>`` of the
  stages.route._HOOK_COLS fields, str and int literals, ``FILTER.*``,
  ``==``/``!=`` on operands of one type, ``not``/``and``/``or`` and
  truth tests, str ``+`` and ``.upper()``. Filters return ``FILTER.*``
  or int literals, Topic/PartitionKey return str. Anything else (a
  call, ``len``, a lambda, ``msg.Structured``, a local variable) keeps
  that hook per-row, and with it the section. Plain ``{field}``
  topic/partition-key templates get batch forms too. A compiled hook
  still sends a row to its per-row callable when a field the hook reads
  is null there (Python could raise), or for the whole batch when the
  batch lacks such a field or holds it with another type; so batch and
  per-row forms agree on every row (tests/test_route.py).
- ``[[parser]]`` → named custom parser in the config's
  ``custom_parsers``, for ``format = name`` sections
  (decoders/decode.go:131-145).
- ``[kafka]`` / ``[file_destination]`` / ``[stderr]``-style dest
  sections → SinkConfigs (``dest_format`` chooses the encoder,
  conf/defaults.go; kafka defaults on).
- network/TLS/store tuning keys and a ``[[syslog]]`` section's
  ``encoding`` are accepted and ignored: socket wire concerns are
  replaced by Ray Data sources/sinks, and the input ``text`` column
  already holds UTF-8 Arrow strings, so a charset has nothing to
  re-decode.
- dynamic reload (SIGHUP / Consul watch, cmd/serve.go:788-827,
  consul/dynamicconf.go): a batch engine's equivalent is re-planning —
  configs are parsed per run, every stage derives from the
  ``PipelineConfig`` value, and nothing caches across runs keyed on
  anything but the config hash (decoders' parser cache), so "reload" =
  rerun with the new file; resumable runs (state/manifest) skip
  partitions already done under the OLD config by design — delete the
  manifests to force reprocessing under the new one.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import re
import tomllib
from types import SimpleNamespace

import pyarrow as pa
import pyarrow.compute as pc

from .config import (HookSet, PipelineConfig, SinkConfig, finalize_topics,
                     render_template_batch, str_upper, template_pieces)
from .constants import (FILTER_DROPPED, FILTER_ERROR, FILTER_PASS,
                        FILTER_REJECTED)
from .decoders import DecoderConfig
from .stages.route import _HOOK_COLS, _MUTABLE, LazyCols, Row

# Go template field → record column (model/types.go:443-449 names)
_GO_FIELDS = {
    "Priority": "priority", "Facility": "facility", "Severity": "severity",
    "Version": "version", "TimeReported": "time_reported",
    "TimeGenerated": "time_generated", "Hostname": "hostname",
    "Appname": "appname", "Procid": "procid", "Msgid": "msgid",
    "Message": "message", "Structured": "structured",
}
_GO_TMPL_RE = re.compile(r"\{\{\s*\.(\w+)\s*\}\}")


def go_template_to_py(tmpl: str) -> str:
    """'syslog-{{.Appname}}' → 'syslog-{appname}'. Unknown fields render
    empty (config._SafeView), like a missing Go template field."""
    def sub(m):
        return "{" + _GO_FIELDS.get(m.group(1), m.group(1).lower()) + "}"
    return _GO_TMPL_RE.sub(sub, tmpl)


_FILTER_ENUM = SimpleNamespace(PASS=FILTER_PASS, DROPPED=FILTER_DROPPED,
                               REJECTED=FILTER_REJECTED, ERROR=FILTER_ERROR)

_MSG_FIELDS = ("priority", "facility", "severity", "version",
               "time_reported", "time_generated", "hostname", "appname",
               "procid", "msgid", "structured", "message")


def _empty_rec() -> dict:
    d = {f: 0 for f in _MSG_FIELDS[:6]}
    d.update({f: "" for f in _MSG_FIELDS[6:]})
    return d


class _Msg:
    """Hook argument: attribute access in BOTH Go-exported and python
    casing over the underlying record, mutation-tracked."""

    def __init__(self, rec):
        object.__setattr__(self, "_rec", rec)
        object.__setattr__(self, "_mut", {})

    def _key(self, name: str) -> str:
        return _GO_FIELDS.get(name, name.lower())

    def __getattr__(self, name):
        key = self._key(name)
        if key in self._mut:
            return self._mut[key]
        try:
            return self._rec[key]
        except KeyError:
            raise AttributeError(name) from None

    def __setattr__(self, name, value):
        self._mut[self._key(name)] = value


def compile_hook_source(src: str, fn_name: str):
    """exec user source; return the named function. The namespace
    provides the reference's ambient API (FILTER enum,
    NewEmptySyslogMessage — returning an attribute-style message so the
    reference's ``m.Appname = ...`` idiom works verbatim).

    TRUST BOUNDARY (ADVICE r02): the reference runs hooks inside an
    embedded JS VM; here they are Python executed in-process, so a
    config file is CODE and must only come from the operator (the CLI
    --config docs state this). Builtins are restricted to a small
    allowlist — enough for field logic, excluding import/open/eval-type
    escape hatches. This narrows accidents, not a determined attacker:
    do not load untrusted configs.

    The globals carry ``__name__`` (``<fn_name>``, like the compile
    filename, so it names no importable module): a function whose
    globals lack it has ``__module__ = None``, and cloudpickle then
    probes every loaded module for it, once per function, each time a
    Ray job pickles the config. Named, the function pickles by value
    with no module scan."""
    import builtins
    _ALLOWED_BUILTINS = {
        n: getattr(builtins, n) for n in (
            "abs", "all", "any", "bool", "dict", "divmod", "enumerate",
            "filter", "float", "format", "frozenset", "hash", "int",
            "isinstance", "len", "list", "map", "max", "min", "range",
            "repr", "reversed", "round", "set", "sorted", "str", "sum",
            "tuple", "zip", "ValueError", "KeyError", "TypeError",
            "Exception", "True", "False", "None")
        if hasattr(builtins, n)}
    env = {"__name__": f"<{fn_name}>", "FILTER": _FILTER_ENUM,
           "NewEmptySyslogMessage": lambda: _Msg(_empty_rec()),
           "__builtins__": _ALLOWED_BUILTINS}
    exec(compile(src, f"<{fn_name}>", "exec"), env)
    fn = env.get(fn_name)
    if not callable(fn):
        raise ValueError(f"config source must define {fn_name}()")
    return fn


def _topic_fn(src: str):
    fn = compile_hook_source(src, "Topic")

    def topic(rec) -> str:
        return str(fn(_Msg(rec)) or "")
    return topic


def _pk_fn(src: str):
    fn = compile_hook_source(src, "PartitionKey")

    def pk(rec) -> str:
        return str(fn(_Msg(rec)) or "")
    return pk


def _filter_fn(src: str):
    fn = compile_hook_source(src, "FilterMessages")

    def filt(rec):
        m = _Msg(rec)
        code = fn(m)
        code = FILTER_PASS if code is None else int(code)
        return code, (m._mut or None)
    return filt


def _parser_fn(src: str, name: str):
    fn = compile_hook_source(src, name)

    def parse(raw: str, ts_ns: int):
        m = fn(raw)
        if m is None:
            return None
        if isinstance(m, _Msg):
            d = dict(m._rec)
            d.update(m._mut)
        else:
            d = dict(m)
        pri = d.get("priority") or (d.get("facility", 0) * 8
                                    + d.get("severity", 0))
        return {"pri": pri, "fac": d.get("facility", 0),
                "sev": d.get("severity", 0), "ver": d.get("version", 0),
                "tr": d.get("time_reported") or ts_ns,
                "tg": d.get("time_generated") or ts_ns,
                "host": d.get("hostname", ""), "app": d.get("appname", ""),
                "proc": d.get("procid", ""), "msgid": d.get("msgid", ""),
                "msg": d.get("message", "")}
    return parse


_FORMAT_ALIASES = {"auto": "rfc3164", "": "rfc3164"}
_KNOWN_FORMATS = {"rfc5424", "rfc3164", "json", "rsyslogjson", "gelf",
                  "influxdb", "collectd", "protobuf", "w3c", "ltsv"}


# ---------------------------------------------------------------------------
# Hook compiler: hook source → batch form over pyarrow.compute
# ---------------------------------------------------------------------------

class _Uncompilable(Exception):
    """The hook uses a construct outside the compile whitelist."""


# static types of the hook-visible fields (stages.route._HOOK_COLS);
# the rest are strings
_INT_FIELDS = frozenset(("turn_idx", "priority", "facility", "severity",
                         "version", "time_reported"))
_FILTER_CODES = vars(_FILTER_ENUM)
_TRUE = pa.scalar(True)
_FALSE = pa.scalar(False)


def _truth(t: str, v):
    """Python truthiness of a typed value, as a boolean mask."""
    return v if t == "bool" else pc.not_equal(v, "" if t == "str" else 0)


def _upper(v):
    return (pa.scalar(v.as_py().upper()) if isinstance(v, pa.Scalar)
            else str_upper(v))


def _full(v, n: int):
    if isinstance(v, pa.Scalar):
        return pa.repeat(v, n)
    return v.combine_chunks() if isinstance(v, pa.ChunkedArray) else v


def _int_literal(node):
    """The value of an int literal (``7``, ``-3``), else None."""
    neg = isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
    if neg:
        node = node.operand
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return -node.value if neg else node.value
    return None


def _no_doc(stmts: list) -> list:
    if (stmts and isinstance(stmts[0], ast.Expr)
            and isinstance(stmts[0].value, ast.Constant)
            and isinstance(stmts[0].value.value, str)):
        return stmts[1:]
    return stmts


class _Env(dict):
    """Field key → current column: a field not yet assigned reads the
    batch."""

    def __init__(self, batch: pa.Table):
        super().__init__()
        self.batch = batch

    def __missing__(self, key):
        col = self[key] = _full(self.batch[key], 0)
        return col


class _Compiler:
    """Expressions of one hook → closures ``f(env) -> Arrow value``.
    Types: "str", "int", and "bool" (a comparison or a mixed
    ``and``/``or``; usable only for its truth)."""

    def __init__(self, msg: str):
        self.msg = msg
        self.reads: set[str] = set()

    def field(self, node) -> str:
        if not (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == self.msg):
            raise _Uncompilable(ast.dump(node))
        key = _GO_FIELDS.get(node.attr, node.attr.lower())
        if key not in _HOOK_COLS:
            raise _Uncompilable(f"field {node.attr}")
        return key

    def expr(self, node):
        i = _int_literal(node)
        if i is not None:
            if -2**63 <= i < 2**63:
                c = pa.scalar(i, pa.int64())
                return "int", lambda env: c
        elif isinstance(node, ast.Constant) and type(node.value) is str:
            c = pa.scalar(node.value, pa.string())
            return "str", lambda env: c
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id == "FILTER"):
            if node.attr in _FILTER_CODES:
                c = pa.scalar(_FILTER_CODES[node.attr], pa.int64())
                return "int", lambda env: c
        elif isinstance(node, ast.Attribute):
            key = self.field(node)
            self.reads.add(key)
            return ("int" if key in _INT_FIELDS else "str"), \
                lambda env: env[key]
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "upper"
              and not node.args and not node.keywords):
            t, f = self.expr(node.func.value)
            if t == "str":
                return "str", lambda env: _upper(f(env))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            (ta, fa), (tb, fb) = self.expr(node.left), self.expr(node.right)
            if ta == tb == "str":
                return "str", lambda env: pc.binary_join_element_wise(
                    fa(env), fb(env), "")
        elif (isinstance(node, ast.Compare) and len(node.ops) == 1
              and isinstance(node.ops[0], (ast.Eq, ast.NotEq))):
            (ta, fa), (tb, fb) = (self.expr(node.left),
                                  self.expr(node.comparators[0]))
            if ta == tb != "bool":
                op = pc.equal if isinstance(node.ops[0], ast.Eq) \
                    else pc.not_equal
                return "bool", lambda env: op(fa(env), fb(env))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            t, f = self.expr(node.operand)
            return "bool", lambda env: pc.invert(_truth(t, f(env)))
        elif isinstance(node, ast.BoolOp):
            return self.boolop(node)
        raise _Uncompilable(ast.dump(node))

    def boolop(self, node):
        ops = [self.expr(v) for v in node.values]
        is_or = isinstance(node.op, ast.Or)
        types = {t for t, _ in ops}
        t = types.pop()
        if types or t == "bool":
            comb = pc.or_ if is_or else pc.and_
            return "bool", lambda env: functools.reduce(
                comb, [_truth(t, f(env)) for t, f in ops])

        # one value type: ``or`` gives the first truthy operand,
        # ``and`` the first falsy one, else the last
        def value(env):
            vals = [f(env) for _, f in ops]
            out = vals[-1]
            for v in reversed(vals[:-1]):
                m = _truth(t, v)
                out = pc.if_else(m, v, out) if is_or else pc.if_else(m, out, v)
            return out
        return t, value

    def cond(self, node):
        t, f = self.expr(node)
        return lambda env: _truth(t, f(env))

    def ret(self, node: ast.Return, returns: str):
        """The returned value's closure; None when it is the hook's
        default (a bare ``return``, ``None``, ``""`` or PASS)."""
        v = node.value
        if v is None or (isinstance(v, ast.Constant) and v.value is None):
            return None
        if returns == "code":
            if (isinstance(v, ast.Attribute) and isinstance(v.value, ast.Name)
                    and v.value.id == "FILTER"):
                code = _FILTER_CODES.get(v.attr)
            else:
                code = _int_literal(v)
            if code is None or not -2**31 <= code < 2**31:
                raise _Uncompilable("filter result")
            c = pa.scalar(code, pa.int32())
            return None if code == FILTER_PASS else (lambda env: c)
        t, f = self.expr(v)
        if t != "str":
            raise _Uncompilable("non-str result")
        return None if isinstance(v, ast.Constant) and v.value == "" else f


def _compile_hook(src: str, fn_name: str, returns: str):
    """Compile a hook inside the whitelist to ``(run, reads, sets)``, or
    None. ``run(batch) -> (values, env)``: the hook's result for every
    row (undefined where a read field is null) and the final field
    columns; ``reads``/``sets``: the fields it reads/assigns.
    ``returns`` is "str" (Topic, PartitionKey; None → "") or "code"
    (FilterMessages; None → PASS)."""
    try:
        defs = _no_doc(ast.parse(src).body)
    except SyntaxError:
        return None
    if (len(defs) != 1 or not isinstance(defs[0], ast.FunctionDef)
            or defs[0].name != fn_name or defs[0].decorator_list):
        return None
    a = defs[0].args
    if (len(a.args) != 1 or a.posonlyargs or a.vararg or a.kwonlyargs
            or a.kwarg or a.defaults or a.args[0].arg == "FILTER"):
        return None
    cx = _Compiler(a.args[0].arg)
    default = (pa.scalar("", pa.string()) if returns == "str"
               else pa.scalar(FILTER_PASS, pa.int32()))
    # steps: ("set", key, f) or ("if", [(cond-or-None, ret-or-None)])
    steps, sets = [], []
    body = _no_doc(defs[0].body)
    try:
        for i, st in enumerate(body):
            if isinstance(st, ast.Assign) and len(st.targets) == 1:
                key = cx.field(st.targets[0])
                t, f = cx.expr(st.value)
                if t != ("int" if key in _INT_FIELDS else "str"):
                    raise _Uncompilable(f"{key} = {t}")
                steps.append(("set", key, f))
                sets.append(key)
            elif isinstance(st, ast.If):
                chain = []
                while True:
                    if len(st.body) != 1 or not isinstance(st.body[0],
                                                           ast.Return):
                        raise _Uncompilable("if body")
                    chain.append((cx.cond(st.test),
                                  cx.ret(st.body[0], returns)))
                    if len(st.orelse) == 1 and isinstance(st.orelse[0],
                                                          ast.If):
                        st = st.orelse[0]
                        continue
                    if st.orelse:
                        if (len(st.orelse) != 1
                                or not isinstance(st.orelse[0], ast.Return)):
                            raise _Uncompilable("else body")
                        chain.append((None, cx.ret(st.orelse[0], returns)))
                    break
                steps.append(("if", chain))
            elif isinstance(st, ast.Return) and i == len(body) - 1:
                steps.append(("if", [(None, cx.ret(st, returns))]))
            else:
                raise _Uncompilable(type(st).__name__)
    except _Uncompilable:
        return None
    # a trailing chain that only returns the default changes nothing
    while (steps and steps[-1][0] == "if"
           and not any(r for _, r in steps[-1][1])):
        steps.pop()

    def run(batch: pa.Table):
        env = _Env(batch)
        running, result = _TRUE, default
        for step in steps:
            if step[0] == "set":
                _, key, f = step
                v = f(env)
                env[key] = (v if running is _TRUE
                            else pc.if_else(running, v, env[key]))
                continue
            # first match wins; rows that return stop running (rows
            # that return the default keep it: nothing else set them)
            chain = step[1]
            for j, (cond, ret) in enumerate(chain):
                c = None if cond is None else cond(env)
                if ret is not None:
                    taken = (running if c is None else c if running is _TRUE
                             else pc.and_(running, c))
                    result = pc.if_else(taken, ret(env), result)
                if c is None or (step is steps[-1] and j == len(chain) - 1):
                    running = _FALSE    # nothing runs after this
                else:
                    c = pc.invert(c)
                    running = c if running is _TRUE else pc.and_(running, c)
        return _full(result, batch.num_rows), env

    return run, frozenset(cx.reads), tuple(sets)


def _compile_template(tmpl: str):
    """A plain ``{field}`` template as ``(run, reads, ())``, or None."""
    pieces = template_pieces(tmpl)
    if pieces is None or any(f is not None and not f.isidentifier()
                             for _, f in pieces):
        return None
    reads = frozenset(f for _, f in pieces if f in _HOOK_COLS)

    def run(batch: pa.Table):
        out = render_template_batch(
            pieces, lambda f: batch[f] if f in reads else None)
        if isinstance(out, str):
            out = pa.repeat(pa.scalar(out, pa.string()), batch.num_rows)
        return out, None
    return run, reads, ()


def _const(value):
    def run(batch: pa.Table):
        return pa.repeat(value, batch.num_rows), _Env(batch)
    return run, frozenset(), ()


def _fallback_rows(batch: pa.Table, reads):
    """Rows the batch form cannot reproduce: a mask of the rows where a
    read field is null (Python may raise there), None when there are
    none, or True (every row) when the batch lacks a read field or holds
    it with another type."""
    nulls = []
    for key in reads:
        i = batch.schema.get_field_index(key)
        if i < 0:
            return True
        col = batch.column(i)
        is_type = (pa.types.is_integer if key in _INT_FIELDS
                   else pa.types.is_string)
        if not is_type(col.type):
            return True
        if col.null_count:
            nulls.append(pc.is_null(col))
    if not nulls:
        return None
    return _full(functools.reduce(pc.or_, nulls), 0)


def _rows(batch: pa.Table, mask) -> list:
    """Per-row record views of the ``mask`` rows, as RouterStage's loop
    builds them."""
    sub = batch if mask is True else batch.filter(mask)
    cols = LazyCols(sub, _HOOK_COLS)
    return [Row(cols, i) for i in range(sub.num_rows)]


def _merge(values, mask, fixed: list, typ):
    """``values`` with the ``mask`` rows replaced by ``fixed``."""
    fixed = pa.array(fixed, typ)
    return fixed if mask is True else pc.replace_with_mask(values, mask,
                                                           fixed)


def _value_batch(compiled, row_fn, finalize):
    """Batch form of a str-valued hook (topic, partition key); the rows
    in ``_fallback_rows`` take ``row_fn``, the per-row hook."""
    run, reads, _ = compiled

    def batch_fn(batch: pa.Table):
        fb = _fallback_rows(batch, reads)
        vals = None if fb is True else finalize(run(batch)[0])
        if fb is None:
            return vals
        return _merge(vals, fb, [row_fn(r) for r in _rows(batch, fb)],
                      pa.string())
    return batch_fn


def _filter_batch(compiled, row_fn):
    """Batch form of a filter hook: ``(codes, muts)`` with a column per
    assigned mutable field; the rows in ``_fallback_rows`` take
    ``row_fn``, the per-row hook."""
    run, reads, sets = compiled
    keys = [k for k in dict.fromkeys(sets) if k in _MUTABLE]

    def filter_batch(batch: pa.Table):
        n = batch.num_rows
        fb = _fallback_rows(batch, reads)
        if fb is True:
            codes, env = None, _Env(batch)
        else:
            codes, env = run(batch)
        muts = {k: _full(env[k], n) for k in keys
                if batch.schema.get_field_index(k) >= 0}
        if fb is None:
            return codes, muts
        res = [row_fn(r) for r in _rows(batch, fb)]
        codes = _merge(codes, fb, [c for c, _ in res], pa.int32())
        orig = batch if fb is True else batch.filter(fb)
        for k in muts:
            vals = orig[k].to_pylist()
            for j, (_c, mut) in enumerate(res):
                if mut and k in mut:
                    vals[j] = mut[k]
            muts[k] = _merge(muts[k], fb, vals, pa.string())
        return codes, muts
    return filter_batch


def _batch_forms(section: dict, kw: dict, per_row: HookSet) -> dict:
    """The batch forms of one section's hooks that compile. A hook
    function shadows its template, as in ``HookSet.topic``; a section
    without a hook routes every row to the default."""
    def value(fn_key, fn_name, tmpl_key):
        if section.get(fn_key):
            return _compile_hook(section[fn_key], fn_name, "str")
        if kw.get(tmpl_key):
            return _compile_template(kw[tmpl_key])
        return _const(pa.scalar("", pa.string()))

    forms = {}
    topic = value("topic_function", "Topic", "topic_tmpl")
    if topic is not None:
        forms["topic_batch"] = _value_batch(topic, per_row.topic,
                                            finalize_topics)
    pk = value("partition_key_func", "PartitionKey", "partition_key_tmpl")
    if pk is not None:
        forms["partition_key_batch"] = _value_batch(
            pk, per_row.partition_key, lambda v: v)
    filt = (_compile_hook(section["filter_func"], "FilterMessages", "code")
            if section.get("filter_func")
            else _const(pa.scalar(FILTER_PASS, pa.int32())))
    if filt is not None:
        forms["filter_batch"] = _filter_batch(filt, per_row.filter)
    return forms


# the section keys that make up a HookSet; sections equal on them share one
_HOOK_KEYS = ("topic_function", "topic_tmpl", "partition_key_func",
              "partition_key_tmpl", "filter_func")


def _hook_key(section: dict) -> tuple:
    """The section's ``_HOOK_KEYS`` values in that order, None if unset."""
    return tuple(section.get(k) or None for k in _HOOK_KEYS)


def _hookset(key: tuple) -> HookSet:
    """The HookSet of one section's ``_hook_key``."""
    section = dict(zip(_HOOK_KEYS, key))
    kw = {}
    if section.get("topic_function"):
        kw["topic_fn"] = _topic_fn(section["topic_function"])
    if section.get("topic_tmpl"):
        kw["topic_tmpl"] = go_template_to_py(section["topic_tmpl"])
    if section.get("partition_key_func"):
        kw["partition_key_fn"] = _pk_fn(section["partition_key_func"])
    if section.get("partition_key_tmpl"):
        kw["partition_key_tmpl"] = go_template_to_py(
            section["partition_key_tmpl"])
    if section.get("filter_func"):
        kw["filter_fn"] = _filter_fn(section["filter_func"])
    per_row = HookSet(**kw)
    return dataclasses.replace(per_row,
                               **_batch_forms(section, kw, per_row))


def config_from_toml(text_or_path: str) -> PipelineConfig:
    """Build a PipelineConfig from skewer-style TOML (path or content).

    Sections (``[[syslog]]`` and ``[journald]``) whose hook keys
    (``_HOOK_KEYS``) are equal share one HookSet, as the reference caches
    built parsers by config content (decoders/decode.go:147-172):
    RouterStage routes them as one group, and the job pickles the hooks
    once. Within a worker they share the Python globals of their hooks
    too, so a hook that keeps state in a global sees every such
    section's rows."""
    if "\n" in text_or_path or text_or_path.lstrip().startswith(("[", "#")):
        data = tomllib.loads(text_or_path)
    else:
        with open(text_or_path, "rb") as fh:
            data = tomllib.load(fh)

    custom_parsers = {}
    for p in data.get("parser", []):
        name = p["name"]
        custom_parsers[name] = _parser_fn(p["func"], name)

    hookset = functools.cache(_hookset)    # per config, not per process
    decoder_for_family: dict[int, DecoderConfig] = {}
    hooks_for: dict = {}
    for i, sec in enumerate(data.get("syslog", [])):
        fmt = sec.get("format", "auto")
        fmt_l = _FORMAT_ALIASES.get(fmt.lower(), fmt.lower())
        if fmt_l in _KNOWN_FORMATS:
            decoder_for_family[i] = DecoderConfig(
                format=fmt_l,
                w3c_fields=sec.get("w3c_fields", ""))
        elif fmt in custom_parsers:
            decoder_for_family[i] = DecoderConfig(format="custom",
                                                  custom_parser=fmt)
        else:
            raise ValueError(f"[[syslog]] #{i}: unknown format {fmt!r}")
        hooks_for[i] = hookset(_hook_key(sec))
    if data.get("journald", {}).get("enabled"):
        i = len(decoder_for_family)
        decoder_for_family[i] = DecoderConfig(format="rfc3164")
        hooks_for[i] = hookset(_hook_key(data["journald"]))
    if not decoder_for_family:
        # every turn would find no decoder and fail its task
        raise ValueError("config has no source: add a [[syslog]] section "
                         "or enable [journald]")

    hooks_for[None] = next(iter(hooks_for.values()))

    sinks: list[SinkConfig] = []
    if "kafka" in data:
        sinks.append(SinkConfig(
            name="kafka", kind="kafka",
            encoder=data.get("main", {}).get("dest_format", "rfc5424")))
    fd = data.get("file_destination")
    if fd:
        sinks.append(SinkConfig(
            name="file", kind="file",
            encoder=fd.get("format", "file"),
            filename_tmpl=go_template_to_py(
                fd.get("filename", "{appname}_{date}"))))
    ed = data.get("elasticsearch_destination")
    if ed:
        # index_name_template default "skewer" (conf/defaults.go:63);
        # per-item bulk acks via stages/esbulk.py
        sinks.append(SinkConfig(
            name="es", kind="es",
            encoder=ed.get("format", "json"),
            filename_tmpl=go_template_to_py(
                ed.get("index_name_template", "skewer"))))
    if data.get("stderr_destination", {}).get("enabled"):
        sinks.append(SinkConfig(name="stderr", kind="stderr",
                                encoder="json"))
    if not sinks:
        sinks.append(SinkConfig(name="kafka", kind="kafka",
                                encoder="rfc5424"))

    n_sections = len([k for k in hooks_for if k is not None])
    return PipelineConfig(
        hooks=hooks_for if n_sections > 1 else hooks_for[None],
        sinks=tuple(sinks),
        decoder_for_family=decoder_for_family,
        custom_parsers=custom_parsers,
    )
