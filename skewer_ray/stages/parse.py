"""Parse stage: transcript batch → parsed syslog records (Arrow in/out).

The Ray-side equivalent of skewer's per-source parser goroutines
(services/network/tcp.go:145-196: frame → ParsersEnv.Parse → FullMessage
with ULID + ConfId). Decoder selection: family = conv_index % 12 (the
generator's per-conv round-robin, standing in for per-source ConfId
config). 1→N decoders (W3C multi-line payloads) expand rows with
``sub_idx``; the deterministic ``uid = conv_id:turn_idx:sub_idx`` replaces
the random ULID (utils/ulid.go:16-177).

A callable class so decoder construction (registry lookup,
custom-parser compilation) happens once per worker, not once per batch:
the fused task-pool chain (stages/fused.py) builds it once per worker
process and reuses it across batches.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..decoders import DecoderConfig, RecordBuilder, get_decoder
from ..gen import N_FAMILIES
from ..schema import RECORD_SCHEMA


def family_array(conv_ids: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Vectorized conv_index % N_FAMILIES from 'conv-NNNNNNNN' strings."""
    idx = pc.cast(pc.utf8_slice_codeunits(conv_ids, 5, 99), pa.int64())
    return (idx.to_numpy(zero_copy_only=False) % N_FAMILIES).astype(np.int64)


class ParseStage:
    def __init__(self, decoder_for_family: dict[int, DecoderConfig] | None = None,
                 single: DecoderConfig | None = None,
                 custom_parsers: dict | None = None):
        # user parsers are registered HERE (once per worker process) — the
        # equivalent of compiling JS parser funcs per VM-pool entry
        # (decoders/decode.go:85-99); cloudpickle ships the callables.
        if custom_parsers:
            from ..decoders import register_custom_parser
            for name, fn in custom_parsers.items():
                register_custom_parser(name, fn)
        self.single = single is not None
        if single is not None:
            self.cfgs = {f: single for f in range(N_FAMILIES)}
        else:
            self.cfgs = dict(decoder_for_family or {})
        from ..decoders import get_decoder_vec
        self.decoders = {f: (get_decoder(c), c, get_decoder_vec(c))
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
            # routing (arbitrary conv_id values allowed, e.g. raw-log
            # file stems from sources.read_raw_log_lines)
            fam = np.zeros(batch.num_rows, dtype=np.int64)
        else:
            fam = family_array(batch["conv_id"])
        ts_us = pc.cast(batch["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        ts_ns_all = ts_us * 1000

        out_parts = []
        for f in np.unique(fam):
            dec, cfg, vec = self.decoders.get(int(f)) or self.default_decoder
            rows = np.nonzero(fam == f)[0]
            sub_ns = ts_ns_all[rows]
            fb_local = None
            if vec is not None:
                sub_arr = pc.take(batch["text"], pa.array(rows))
                if isinstance(sub_arr, pa.ChunkedArray):
                    sub_arr = sub_arr.combine_chunks()
                cols, fb_local = vec(sub_arr, sub_ns, cfg)
                if cols is not None:
                    src = rows[cols.pop("row_idx")]
                    sub = pa.array(np.zeros(len(src), dtype=np.int32))
                    out_parts.append(self._finish(batch, pa.array(src),
                                                  sub, cols))
                rows = rows[np.asarray(fb_local, dtype=np.int64)] \
                    if fb_local else rows[:0]
                sub_ns = ts_ns_all[rows]
            if len(rows) == 0:
                continue
            sub_texts = pc.take(batch["text"],
                                pa.array(rows)).to_pylist()
            b = RecordBuilder()
            dec(sub_texts, sub_ns.tolist(), b, cfg)
            if not len(b):
                continue
            src = rows[np.asarray(b.row_idx, dtype=np.int64)]
            out_parts.append(self._assemble(batch, src, b))
        if not out_parts:
            return RECORD_SCHEMA.empty_table()
        return pa.concat_tables(out_parts)

    @staticmethod
    def _finish(batch: pa.Table, take: pa.Array, sub: pa.Array,
                rec_cols: dict) -> pa.Table:
        """Record table from (source-row take indices, sub_idx array,
        the 14 record value columns)."""
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
        return out

    @staticmethod
    def _assemble(batch: pa.Table, src: np.ndarray, b: RecordBuilder) -> pa.Table:
        return ParseStage._finish(
            batch, pa.array(src), pa.array(b.sub_idx, pa.int32()),
            {
                "parse_ok": pa.array(b.parse_ok, pa.bool_()),
                "priority": pa.array(b.priority, pa.int32()),
                "facility": pa.array(b.facility, pa.int32()),
                "severity": pa.array(b.severity, pa.int32()),
                "version": pa.array(b.version, pa.int32()),
                "time_reported": pa.array(b.time_reported, pa.int64()),
                "time_generated": pa.array(b.time_generated, pa.int64()),
                "hostname": pa.array(b.hostname, pa.string()),
                "appname": pa.array(b.appname, pa.string()),
                "procid": pa.array(b.procid, pa.string()),
                "msgid": pa.array(b.msgid, pa.string()),
                "structured": pa.array(b.structured, pa.string()),
                "message": pa.array(b.message, pa.string()),
                "properties": pa.array(b.properties, pa.string()),
            })
