"""Grok-style named-pattern extraction over Arrow string columns — the
classic log-pipeline "grok" operator (the north-star's "grok/regex
parse" surface; the reference ships fixed-format decoders, grok is the
user-composable generalization).

A grok expression interleaves literal text with ``%{PATTERN}`` /
``%{PATTERN:field}`` references; ``expand_grok`` compiles it to ONE RE2
regex where every named field is a capture group, and ``grok_extract``
applies it to a Dataset with a single vectorized ``pc.extract_regex``
call per batch — no Python row loop, zero-copy in, and the same regex
runs verbatim in any other RE2 engine (DuckDB included), which is what
the oracle does.

Pattern definitions use only non-capturing groups, so in the expanded
regex capture-group *index i* == *i-th field* — the SQL oracle extracts
by index with byte-identical semantics.
"""

from __future__ import annotations

import re

GROK_PATTERNS: dict[str, str] = {
    "INT": r"[+-]?\d+",
    "NUMBER": r"[+-]?\d+(?:\.\d+)?",
    "WORD": r"\w+",
    "NOTSPACE": r"\S+",
    "DATA": r".*?",
    "GREEDYDATA": r".*",
    "HOSTNAME": r"[A-Za-z0-9](?:[A-Za-z0-9_\-\.]*[A-Za-z0-9])?",
    "IPV4": r"(?:\d{1,3}\.){3}\d{1,3}",
    "UUID": r"[0-9a-fA-F]{8}-(?:[0-9a-fA-F]{4}-){3}[0-9a-fA-F]{12}",
    "LOGLEVEL": (r"(?:DEBUG|INFO|NOTICE|WARN(?:ING)?|ERR(?:OR)?|"
                 r"CRIT(?:ICAL)?|ALERT|EMERG(?:ENCY)?|FATAL|TRACE)"),
    "TIMESTAMP_ISO8601": (r"\d{4}-\d{2}-\d{2}[Tt ]\d{2}:\d{2}:\d{2}"
                          r"(?:\.\d+)?(?:Z|[+-]\d{2}:?\d{2})?"),
    "SYSLOGTIMESTAMP": r"[A-Z][a-z]{2} [ \d]\d \d{2}:\d{2}:\d{2}",
}

_REF = re.compile(r"%\{(\w+)(?::(\w+))?\}")


def expand_grok(expr: str, named: bool = True) -> tuple[str, list[str]]:
    """Expand a grok expression to (regex, field_names).

    ``named=True`` emits ``(?P<field>...)`` groups (for
    ``pc.extract_regex``); ``named=False`` emits plain ``(...)`` groups
    in the same order (for engines that extract by index). Unnamed
    ``%{PATTERN}`` references become non-capturing. Unknown pattern
    names raise KeyError.
    """
    fields: list[str] = []

    def sub(m: re.Match) -> str:
        body = GROK_PATTERNS[m.group(1)]
        field = m.group(2)
        if field is None:
            return f"(?:{body})"
        if field in fields:
            raise ValueError(f"duplicate grok field {field!r}")
        fields.append(field)
        return (f"(?P<{field}>{body})" if named else f"({body})")

    return _REF.sub(sub, expr), fields


def grok_extract(ds, expr: str, keep: list[str] | None = None,
                 drop_unmatched: bool = True,
                 types: dict[str, str] | None = None):
    """Apply a grok expression to the ``text`` column: one new column per named
    field. ``keep`` = passthrough columns; ``types`` maps field → Arrow
    type name ("int64"/"float64") for post-extract casts. Unmatched rows
    are dropped (or kept with nulls + ``grok_match=False``).
    Embarrassingly parallel — one vectorized RE2 pass per batch.
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    regex, fields = expand_grok(expr)
    keep = list(keep or [])
    types = types or {}

    def fn(batch: pa.Table) -> pa.Table:
        ext = pc.extract_regex(batch["text"], pattern=regex)
        valid = pc.is_valid(ext)
        cols = {c: batch[c] for c in keep}
        for i, f in enumerate(fields):
            col = pc.struct_field(ext, i)
            if f in types:
                col = pc.cast(col, types[f])
            cols[f] = col
        t = pa.table(cols)
        if drop_unmatched:
            return t.filter(valid)
        return t.append_column("grok_match", valid)

    return ds.map_batches(fn, batch_format="pyarrow")
