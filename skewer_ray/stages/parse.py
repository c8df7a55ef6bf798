"""Parse stage: transcript batch → parsed syslog records (Arrow in/out).

The Ray-side equivalent of skewer's per-source parser goroutines
(services/network/tcp.go:145-196: frame → ParsersEnv.Parse → FullMessage
with ULID + ConfId). Decoder selection: family = conv_index % 12 (the
generator's per-conv round-robin, standing in for per-source ConfId
config). 1→N decoders (W3C multi-line payloads) expand rows with
``sub_idx``; the deterministic ``uid = conv_id:turn_idx:sub_idx`` replaces
the random ULID (utils/ulid.go:16-177).

A family whose format has an Arrow fast path (``decoders.get_decoder_vec``)
decodes the rows of a plain shape on Arrow kernels and the rest per row;
its records still come out in source-row order, so the output does not
depend on which rows took the fast path. The output is families in
ascending order, one contiguous table per batch.

A callable class so decoder construction (registry lookup,
custom-parser binding) happens once per task, not once per batch:
the fused task-pool chain (stages/fused.py) builds it once per task
and reuses it across that task's batches.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..decoders import (DecoderConfig, RecordBuilder, get_decoder,
                        get_decoder_vec)
from ..gen import N_FAMILIES
from ..schema import RECORD_SCHEMA

# the record value columns a decoder fills (RecordBuilder's fields)
_VALUE_COLS = RECORD_SCHEMA.names[RECORD_SCHEMA.get_field_index("parse_ok"):]


def family_array(conv_ids: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Vectorized conv_index % N_FAMILIES from 'conv-NNNNNNNN' strings."""
    idx = pc.cast(pc.utf8_slice_codeunits(conv_ids, 5, 99), pa.int64())
    return (idx.to_numpy(zero_copy_only=False) % N_FAMILIES).astype(np.int64)


class ParseStage:
    def __init__(self, decoder_for_family: dict[int, DecoderConfig] | None = None,
                 single: DecoderConfig | None = None,
                 custom_parsers: dict | None = None):
        self.single = single is not None
        if single is not None:
            self.cfgs = {f: single for f in range(N_FAMILIES)}
        else:
            self.cfgs = dict(decoder_for_family or {})
        # a custom family's decoder closes over this config's user
        # parser, bound once per task — the equivalent of compiling JS
        # parser funcs per VM-pool entry (decoders/decode.go:85-99);
        # cloudpickle ships the callables.
        self.decoders = {f: (get_decoder(c, custom_parsers), c,
                             get_decoder_vec(c))
                         for f, c in self.cfgs.items()}
        # families without a configured source decode with the FIRST
        # configured section — the "format=auto" catch-all listener
        # semantics (a TOML config with fewer sections than the corpus
        # has families must not crash the stream)
        self.default_decoder = (next(iter(self.decoders.values()))
                                if self.decoders else None)

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.single:
            # one decoder for the whole stream: no per-conv family
            # routing (arbitrary conv_id values allowed, e.g. the
            # single-format edge and macOS/collectd corpus tables)
            fam = np.zeros(batch.num_rows, dtype=np.int64)
        else:
            fam = family_array(batch["conv_id"])
        ts_ns_all = pc.cast(batch["ts"], pa.int64()).to_numpy(
            zero_copy_only=False) * 1000
        text = batch["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()

        # every part (fast or per-row) as (source rows, sub_idx, record
        # columns); one concatenation and one _finish for the batch
        parts = []
        for f in np.unique(fam):
            dec, cfg, vec = self.decoders.get(int(f)) or self.default_decoder
            rows = np.nonzero(fam == f)[0]
            fam_parts = []
            if vec is not None:
                cols, fb = vec(text.take(pa.array(rows)), ts_ns_all[rows], cfg)
                if cols is not None:
                    src = rows[cols.pop("row_idx")]
                    fam_parts.append(
                        (src, np.zeros(len(src), dtype=np.int32), cols))
                rows = rows[np.asarray(fb, dtype=np.int64)]
            if len(rows):
                b = RecordBuilder()
                dec(text.take(pa.array(rows)).to_pylist(),
                    ts_ns_all[rows].tolist(), b, cfg)
                if len(b):
                    fam_parts.append((rows[np.asarray(b.row_idx, np.int64)],
                                      np.asarray(b.sub_idx, np.int32),
                                      self._builder_cols(b)))
            parts.extend(self._in_source_order(fam_parts))
        if not parts:
            return RECORD_SCHEMA.empty_table()
        return self._finish(
            batch, pa.array(np.concatenate([p[0] for p in parts])),
            pa.array(np.concatenate([p[1] for p in parts])),
            {name: pa.concat_arrays([p[2][name] for p in parts])
             for name in _VALUE_COLS})

    @staticmethod
    def _in_source_order(fam_parts: list) -> list:
        """One family's fast and per-row parts merged into source-row
        order (sub_idx order within a row), the order a per-row decode
        of the family gives, whichever rows took the fast path."""
        if len(fam_parts) < 2:
            return fam_parts
        src = np.concatenate([p[0] for p in fam_parts])
        order = np.argsort(src, kind="stable")
        if (np.diff(order) > 0).all():
            return fam_parts
        take = pa.array(order)
        return [(src[order],
                 np.concatenate([p[1] for p in fam_parts])[order],
                 {name: pa.concat_arrays([p[2][name] for p in fam_parts])
                  .take(take) for name in _VALUE_COLS})]

    @staticmethod
    def _finish(batch: pa.Table, take: pa.Array, sub: pa.Array,
                rec_cols: dict) -> pa.Table:
        """Record table from (source-row take indices, sub_idx array,
        the 14 record value columns): one take per source column."""
        conv = pc.take(batch["conv_id"], take)
        turn = pc.take(batch["turn_idx"], take)
        uid = pc.binary_join_element_wise(
            pc.cast(conv, pa.string()),
            pc.cast(pc.cast(turn, pa.int64()), pa.string()),
            pc.cast(pc.cast(sub, pa.int64()), pa.string()),
            ":",
        )
        cols = {
            "conv_id": conv,
            "turn_idx": turn,
            "sub_idx": sub,
            "uid": uid,
            "role": pc.take(batch["role"], take),
            "tool": pc.take(batch["tool"], take),
            "ts": pc.take(batch["ts"], take),
            **rec_cols,
        }
        out = pa.table(cols, schema=RECORD_SCHEMA)
        # passthrough: any extra input column (e.g. part_id lineage from
        # state.run_partitioned) rides along untouched
        known = set(cols) | {"text"}
        for name in batch.column_names:
            if name not in known:
                out = out.append_column(name, pc.take(batch[name], take))
        return out.combine_chunks()

    @staticmethod
    def _builder_cols(b: RecordBuilder) -> dict:
        return {name: pa.array(getattr(b, name), RECORD_SCHEMA.field(name).type)
                for name in _VALUE_COLS}
