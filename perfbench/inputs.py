"""Seeded transcript inputs for the benchmark.

Rows come from ``skewer_ray.gen.text_for``/``role_for``/``tool_for``, so the
12 wire-format families keep their per-conversation round-robin
(family = conv index % 12). The seed picks a conv-index offset; offsets are
multiples of 84 = lcm(12 families, 21 conversation lengths), so every seed
yields the same family mix and row count, and they are further apart than
an input has conversations, so no two seeds share a conversation: every
text that carries its conversation differs (all but the degenerate
family's fixed lines and the malformed JSON lines).

Files are written the way ``ensure_transcripts`` writes them
(``part-NNNNN.parquet``, 12,500-row row groups). The directory name must
not start with ``sf``: the pipeline reads such a name as a scale factor and
substitutes its own fixed corpus.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq

from skewer_ray import gen
from skewer_ray.schema import TRANSCRIPT_SCHEMA

TURNS = 60_000     # input turns per workload (whole conversations: 60,001)
N_FILES = 12       # one pipeline partition per file
# lcm(N_FAMILIES, number of distinct conversation lengths) x 100: more
# conversations than any input here has (at least 10 turns each)
_SEED_STRIDE = 84 * 100


def conv_offset(seed: int) -> int:
    """First conv index for ``seed``: stays within the 8-digit conv ids."""
    return _SEED_STRIDE * (1 + seed % 10_000)


def make_table(seed: int, turns: int = TURNS) -> pa.Table:
    """Whole conversations from ``conv_offset(seed)`` on, until ``turns``."""
    cols = {name: [] for name in TRANSCRIPT_SCHEMA.names}
    i = conv_offset(seed)
    n = 0
    while n < turns:
        cid = f"conv-{i:08d}"
        base = gen.BASE_EPOCH + (i * 37) % 86400
        for t in range(gen.conv_len(i)):
            cols["conv_id"].append(cid)
            cols["turn_idx"].append(t)
            cols["role"].append(gen.role_for(i, t))
            cols["text"].append(gen.text_for(i, t))
            cols["tool"].append(gen.tool_for(i, t))
            cols["ts"].append((base + t) * 1_000_000)
        n += gen.conv_len(i)
        i += 1
    return pa.table(cols, schema=TRANSCRIPT_SCHEMA)


def write_inputs(out_dir: str, seed: int, turns: int = TURNS,
                 n_files: int = N_FILES) -> int:
    """Write the seeded table as ``n_files`` parquet files; return its
    number of rows."""
    if os.path.basename(os.path.normpath(out_dir)).startswith("sf"):
        raise ValueError(f"input dir {out_dir!r} would be read as a scale "
                         "factor; choose a name not starting with 'sf'")
    if turns > 10 * _SEED_STRIDE:
        raise ValueError(f"{turns} turns would overlap the next seed's input")
    table = make_table(seed, turns)
    os.makedirs(out_dir, exist_ok=True)
    per = -(-table.num_rows // n_files)
    for k in range(n_files):
        pq.write_table(table.slice(k * per, per),
                       os.path.join(out_dir, f"part-{k:05d}.parquet"),
                       row_group_size=12_500)
    return table.num_rows
