"""Arrow schemas for the transcript input and the parsed record.

The record schema is the columnar equivalent of the reference's
``SyslogMessage`` + ``FullMessage`` envelope (model/types.pb.go:72-86,
183-193): flat int32/int64/string columns, with the two-level
``Properties`` map carried as a canonical JSON string (sorted keys) for
groupby/write compatibility.

``uid`` is the deterministic replacement for the reference's random ULID
(utils/ulid.go:16-177): ``f"{conv_id}:{turn_idx}:{sub_idx}"`` so that runs
are reproducible and routed-row set equality is testable.
"""

from __future__ import annotations

import json

import pyarrow as pa

TRANSCRIPT_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("role", pa.string()),
        ("text", pa.string()),
        ("tool", pa.string()),
        ("ts", pa.timestamp("us")),
    ]
)

# Parsed record columns (parse stage output). Passthrough keys first, then
# the SyslogMessage fields. time_* are UnixNano int64 like the reference's
# TimeReportedNum/TimeGeneratedNum (model/types.go:443-449).
RECORD_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("sub_idx", pa.int32()),
        ("uid", pa.string()),
        ("role", pa.string()),
        ("tool", pa.string()),
        ("ts", pa.timestamp("us")),
        ("parse_ok", pa.bool_()),
        ("priority", pa.int32()),
        ("facility", pa.int32()),
        ("severity", pa.int32()),
        ("version", pa.int32()),
        ("time_reported", pa.int64()),
        ("time_generated", pa.int64()),
        ("hostname", pa.string()),
        ("appname", pa.string()),
        ("procid", pa.string()),
        ("msgid", pa.string()),
        ("structured", pa.string()),
        ("message", pa.string()),
        ("properties", pa.string()),
    ]
)


def props_dumps(props: dict[str, dict[str, str]] | None) -> str:
    """Canonical JSON for the two-level property bag (sorted keys).

    The reference's map iteration order is random; we define a canonical
    sorted order on both engine and oracle sides (SURVEY.md §7 "what's
    hard" #1).
    """
    if not props:
        return "{}"
    return json.dumps(props, sort_keys=True, separators=(",", ":"))


from functools import lru_cache


@lru_cache(maxsize=1 << 16)
def _props_loads_cached(s: str) -> dict[str, dict[str, str]]:
    return json.loads(s)


def props_loads(s: str | None) -> dict[str, dict[str, str]]:
    """Parse the canonical property-bag JSON. Cached: distinct property
    strings are few relative to rows (callers must not mutate the result)."""
    if not s or s == "{}":
        return {}
    return _props_loads_cached(s)
