"""Lookup enrichment stage — broadcast map-side join, no shuffle.

The reference's sources enrich records with metadata via SetProperty
(services/accounting.go:91, services/filepoll.go:206). Here the
role/tool dictionaries (north rule "lookup enrich") are broadcast once
(small dicts serialized with the stage spec and built once per task)
and applied as a vectorized ``index_in``+``take`` per batch; a value
missing from its dict maps to "unknown".
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc


def _lookup_column(col, mapping: dict[str, str], default: str) -> pa.Array:
    keys = pa.array(list(mapping.keys()), pa.string())
    vals = pa.array(list(mapping.values()) + [default], pa.string())
    idx = pc.index_in(col, value_set=keys)
    idx = pc.fill_null(idx, len(mapping))  # missing key → default slot
    return pc.take(vals, idx)


class EnrichStage:
    """Adds role_class / tool_category columns from broadcast dicts."""

    def __init__(self, role_lookup, tool_lookup):
        self.role_lookup = dict(role_lookup)
        self.tool_lookup = dict(tool_lookup)

    def __call__(self, batch: pa.Table) -> pa.Table:
        rc = _lookup_column(batch["role"], self.role_lookup, "unknown")
        tc = _lookup_column(batch["tool"], self.tool_lookup, "unknown")
        return batch.append_column("role_class", rc).append_column("tool_category", tc)
