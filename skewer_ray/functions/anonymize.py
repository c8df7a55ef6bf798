"""Log anonymization: consistent host pseudonymization plus generic PII
scrubbing over the parsed transcript stream.

The GDPR-ish sanitization pass a log pipeline runs before logs leave the
trust boundary (the reference's closest surface is its filter/mutation
hook chain, /root/reference/store/filter.go — anonymization is the
standard production use of that hook): hostnames are replaced by
deterministic pseudonyms (same host → same pseudonym, so joins and
per-host aggregates still work downstream) and free-text fields pass
through a fixed RE2 scrub chain (emails, IPv4s, intl phone numbers).

Scale shape: pure per-batch map. Pseudonyms are md5-derived — no shared
lookup table to coordinate — and computed once per *distinct* hostname
per batch (host cardinality ≪ row count). The scrub chain is vectorized
Arrow RE2, zero Python per row. Rules are RE2-compatible so the DuckDB
oracle (chained regexp_replace) reproduces output byte-for-byte.
"""

from __future__ import annotations

import hashlib

import pyarrow as pa

from .regex_chain import apply_chain, chain_sql

# (pattern, replacement), applied strictly in order; RE2 syntax only.
PII_RULES: list[tuple[str, str]] = [
    (r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    (r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
    (r"\+\d{7,15}\b", "<PHONE>"),
]


def scrub_pii(col: pa.ChunkedArray | pa.Array) -> pa.ChunkedArray | pa.Array:
    """Apply the PII scrub chain to a string column (vectorized RE2)."""
    return apply_chain(col, PII_RULES)


def pii_rules_sql(col_expr: str) -> str:
    """The identical scrub chain as a DuckDB expression."""
    return chain_sql(col_expr, PII_RULES)


def host_pseudonym(h: str) -> str:
    # 16 hex chars = 64 bits: birthday-bound collision odds stay
    # negligible up to billions of distinct hosts (8 chars = 32 bits
    # would start merging hosts around ~77k distinct values)
    return "" if h == "" else "h-" + hashlib.md5(h.encode()).hexdigest()[:16]


def pseudonymize_hosts(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """hostname → 'h-' + md5(hostname)[:16] (64-bit form, see
    host_pseudonym), md5 computed once per distinct value via
    dictionary encoding."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    d = col.dictionary_encode()
    mapped = pa.array([host_pseudonym(h) for h in d.dictionary.to_pylist()],
                      pa.string())
    return mapped.take(d.indices)


def anonymize_hosts(parsed_ds):
    """(conv_id, turn_idx, hostname→pseudonym, appname, scrubbed message)
    over the syslog families of the parsed stream."""
    import numpy as np

    from ..stages.parse import family_array

    def fn(batch: pa.Table) -> pa.Table:
        mask = np.isin(family_array(batch["conv_id"]), (0, 1, 2, 3))
        batch = batch.filter(pa.array(mask))
        return pa.table({
            "conv_id": batch["conv_id"],
            "turn_idx": batch["turn_idx"],
            "hostname": pseudonymize_hosts(batch["hostname"]),
            "appname": batch["appname"],
            "message": scrub_pii(batch["message"]),
        })

    return parsed_ds.map_batches(fn, batch_format="pyarrow")
