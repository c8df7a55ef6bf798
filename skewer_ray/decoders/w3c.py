"""W3C Extended Log Format decoder.

Semantics: decoders/w3c.go:14-43 — a decoder parameterized by configured
field names; every parsed field value lands in properties domain "w3c";
all other SyslogMessage fields stay at their zero values (the reference
builds the message with ``model.Factory()`` only). 1→N shape: a payload
may hold several lines; ``#`` directive lines are skipped; ``-`` values
are nil (omitted).
"""

from __future__ import annotations

import json
import shlex

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import vec
from .base import RecordBuilder
from ..schema import props_dumps


def _fields(cfg) -> list[str]:
    return (cfg.w3c_fields if cfg and cfg.w3c_fields else "").split(" ")


def decode_block(texts, ts_ns, out: RecordBuilder, cfg=None):
    fields = _fields(cfg)
    for row, (payload, n) in enumerate(zip(texts, ts_ns)):
        if not payload:
            continue
        sub = 0
        ok_any = False
        err = False
        for line in payload.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                vals = shlex.split(line) if '"' in line else line.split()
            except ValueError:
                err = True
                break
            props = {}
            for name, val in zip(fields, vals):
                if val != "-":
                    props[name] = val
            out.add(row, sub=sub, tr=0, tg=n,
                    props=props_dumps({"w3c": props} if props else {}))
            sub += 1
            ok_any = True
        if err:
            out.add_error(row, payload, n)
        elif not ok_any:
            pass  # empty payload → no messages, like parser.Next() EOF


# ---------------------------------------------------------------------------
# vectorized fast path (decoders/vec.py): a plain one-line payload without
# quotes whose stripped line is not blank and not a '#' directive; every
# other payload (multi-line, quoted, '#', blank) goes to decode_block
# ---------------------------------------------------------------------------


def decode_block_vec(texts, ts_ns, cfg=None):
    """W3C fast path: one message (sub_idx 0) per payload."""
    n = len(texts)
    line = pc.utf8_trim(texts, " ")
    ok = (vec.matches(texts, vec.PLAIN) & ~vec.matches(texts, '"')
          & ~vec.matches(line, r"^(?:#|$)"))
    rows = np.nonzero(ok)[0]
    if not len(rows):
        return None, np.arange(n)
    m = len(rows)
    vals = pc.ascii_split_whitespace(pc.take(line, pa.array(rows)))
    flat = pc.list_flatten(vals)
    row_of = pc.list_parent_indices(vals).to_numpy()
    starts = vals.offsets.to_numpy()[:-1]
    pos = np.arange(len(flat)) - starts[row_of]
    # '-' is nil: the field stays unset
    flat = pc.if_else(pc.equal(flat, "-"), pa.scalar(None, pa.string()),
                      flat)
    by_name: dict[str, list] = {}
    for j, name in enumerate(_fields(cfg)):
        at = np.nonzero(pos == j)[0]
        idx = np.full(m, -1, dtype=np.int64)
        idx[row_of[at]] = at
        by_name.setdefault(name, []).append(
            pc.take(flat, pa.array(idx, mask=idx < 0)))
    # a repeated field name keeps its last non-nil value
    pieces = [vec.kv_piece(json.dumps(name), pc.coalesce(*reversed(cols)))
              for name, cols in sorted(by_name.items())]
    cols = vec.record_cols(
        rows, np.ones(m, dtype=bool), time_generated=ts_ns[rows],
        properties=vec.props_json("w3c", pieces))
    return cols, vec.fallback(n, rows)
