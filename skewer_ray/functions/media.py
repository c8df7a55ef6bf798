"""Multimodal column plumbing: opaque ``binary`` payloads + typed
metadata, decoded/feature-extracted by an actor-pool map_batches stage.

Round 3: the codec work is REAL — payloads are genuine PNG images
(all five scanline filters), RIFF/WAVE PCM16 audio, and an MJPEG-style
concatenated-PNG video container, encoded by the dependency-free codec
in ``functions/png.py`` and fully decoded (inflate + unfilter, RIFF
parse, container walk) inside the actor-pool stage. Features come from
the DECODED pixels/samples; because the synthesized content follows
closed-form pixel rules, a DuckDB oracle checks the decode end to end.

The reference has no media pipeline (this family comes from the
builder brief); payload sizes are kept small per batch so batch ×
concurrency fits the worker heap.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .png import (decode_png, decode_wav, encode_png, encode_wav,
                  png_frame_offsets, png_stream_count)

MEDIA_TYPES = ("image", "audio", "video")
# binary payloads ⇒ small batches so batch × concurrency fits the
# worker heap (the guide's memory rule); real deployments size this from
# payload stats
MEDIA_BATCH_SIZE = 64
AUDIO_RATE = 8000
FRAME_MS = 100  # fixed 10 fps video container


def _image_pixels(doc_id: int) -> np.ndarray:
    """(h, w, 3) RGB, pixel (y,x,c) = (doc_id + 3x + 7y + 11c) % 256 —
    closed form so the oracle can recompute the decoded-pixel sum."""
    w, h = 8 + doc_id % 17, 8 + doc_id % 13
    y, x, c = np.indices((h, w, 3))
    return ((doc_id + 3 * x + 7 * y + 11 * c) % 256).astype(np.uint8)


def _audio_samples(doc_id: int) -> np.ndarray:
    """PCM16 mono, sample i = ((13·doc_id + 5i) % 4096) − 2048."""
    n = 8 * (64 + doc_id % 129)
    i = np.arange(n, dtype=np.int64)
    return (((13 * doc_id + 5 * i) % 4096) - 2048).astype(np.int16)


def _video_frame(doc_id: int, f: int) -> np.ndarray:
    """(h, w) greyscale frame f: pixel (y,x) = (doc_id + 31f + 5x + 9y) % 256."""
    w, h = 8 + doc_id % 9, 8 + doc_id % 7
    y, x = np.indices((h, w))
    return ((doc_id + 31 * f + 5 * x + 9 * y) % 256).astype(np.uint8)


def video_frame_count(doc_id: int) -> int:
    return 8 + doc_id % 25


def synth_media_batch(batch: pa.Table) -> pa.Table:
    """documents → multimodal table: REAL encoded payload bytes + typed
    metadata. Stands in for read_binary_files / a blob store; the
    payload content is deterministic in doc_id so decode features are
    oracle-checkable."""
    ids = pc.cast(batch["doc_id"], pa.int64()).to_pylist()
    payloads, mtypes = [], []
    for d in ids:
        kind = MEDIA_TYPES[d % 3]
        mtypes.append(kind)
        if kind == "image":
            payloads.append(encode_png(_image_pixels(d)))
        elif kind == "audio":
            payloads.append(encode_wav(_audio_samples(d), AUDIO_RATE))
        else:
            payloads.append(b"".join(
                encode_png(_video_frame(d, f))
                for f in range(video_frame_count(d))))
    return pa.table({"doc_id": pa.array(ids, pa.int64()),
                     "media_type": pa.array(mtypes, pa.string()),
                     "payload": pa.array(payloads, pa.large_binary())})


class MediaDecodeStage:
    """Actor-pool decode/feature stage: construct-once state, per-batch
    __call__ doing REAL codec work (PNG inflate+unfilter, RIFF parse,
    container walk). Features per row:

    width/height/channels — decoded image (or first video frame) dims;
    duration_ms — audio sample count / rate, or n_frames × FRAME_MS;
    px_sum — sum of decoded pixel bytes (image / first video frame) or
    of PCM samples (audio). All from decoded content, never metadata.

    Use as ``ds.map_batches(MediaDecodeStage, concurrency=N,
    batch_size=MEDIA_BATCH_SIZE, batch_format="pyarrow")``.
    """

    def __init__(self):
        # once-per-actor setup lives here (codec tables, model load);
        # the pure-python codec needs none
        pass

    @staticmethod
    def decode_features(payload: bytes, media_type: str) -> dict:
        if media_type == "image":
            px, _ = decode_png(payload)
            return {"width": px.shape[1], "height": px.shape[0],
                    "channels": px.shape[2] if px.ndim == 3 else 1,
                    "duration_ms": 0, "px_sum": int(px.sum())}
        if media_type == "audio":
            rate, samples = decode_wav(payload)
            return {"width": 0, "height": 0, "channels": 1,
                    "duration_ms": len(samples) * 1000 // rate,
                    "px_sum": int(samples.astype(np.int64).sum())}
        n_frames = png_stream_count(payload)
        first, _ = decode_png(payload)  # features from frame 0
        return {"width": first.shape[1], "height": first.shape[0],
                "channels": first.shape[2] if first.ndim == 3 else 1,
                "duration_ms": n_frames * FRAME_MS,
                "px_sum": int(first.sum())}

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats = [self.decode_features(p, m) for p, m in
                 zip(batch["payload"].to_pylist(),
                     batch["media_type"].to_pylist())]
        cols = {"doc_id": batch["doc_id"],
                "media_type": batch["media_type"]}
        for k in ("width", "height", "channels", "duration_ms", "px_sum"):
            cols[k] = pa.array([f[k] for f in feats], pa.int64())
        return pa.table(cols)


def media_features(docs_ds):
    """documents → synth multimodal table → actor-pool decode stage."""
    media = docs_ds.map_batches(synth_media_batch, batch_format="pyarrow")
    return media.map_batches(MediaDecodeStage,
                             concurrency=2,
                             batch_size=MEDIA_BATCH_SIZE,
                             batch_format="pyarrow")


N_FRAME_SAMPLES = 4


class FrameSampleStage:
    """1→N frame sampling for video payloads (actor pool): each video
    row expands to N_FRAME_SAMPLES evenly-spaced frame rows. The
    container is probed by walking PNG chunk lengths (no pixel work),
    then ONLY the sampled frames are decoded — the skip-ahead a real
    demuxer gives you.

    Frame positions are floor(j·(n_frames-1)/3) for j in 0..3, so the
    first and last frames are always sampled (n_frames ≥ 8 keeps the
    four positions distinct). brightness = mean decoded pixel (floor)."""

    def __init__(self):
        pass  # real deployment: open the demuxer/codec once per actor

    def __call__(self, batch: pa.Table) -> pa.Table:
        # defensive re-filter (frame_samples pre-filters video rows in a
        # cheap task stage so non-video payload bytes never reach the
        # actor pool; a caller feeding mixed batches still gets correct
        # output)
        keep = pc.equal(pc.cast(batch["media_type"], pa.string()), "video")
        batch = batch.filter(keep)
        ids, idxs, ts, feat = [], [], [], []
        for d, p in zip(batch["doc_id"].to_pylist(),
                        batch["payload"].to_pylist()):
            offs = png_frame_offsets(p)
            nf = len(offs)
            for j in range(N_FRAME_SAMPLES):
                fi = (j * (nf - 1)) // (N_FRAME_SAMPLES - 1)
                px, _ = decode_png(p, offs[fi])
                ids.append(d)
                idxs.append(fi)
                ts.append(fi * FRAME_MS)
                feat.append(int(px.sum()) // px.size)
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "frame_idx": pa.array(idxs, pa.int64()),
            "frame_ts_ms": pa.array(ts, pa.int64()),
            "brightness": pa.array(feat, pa.int64()),
        })


def frame_samples(docs_ds):
    """documents → video-only synth multimodal table → 1→N frame rows.

    Non-video docs are dropped BEFORE the synth stage (doc_id % 3 rule)
    so their payloads are never even encoded — with real codecs, 2/3 of
    the corpus's deflate cost would otherwise be pure waste (the same
    pruning rule as windows.py's pre())."""
    def only_video_docs(b: pa.Table) -> pa.Table:
        # doc_id % 3 == 2 → video (MEDIA_TYPES order)
        ids = pc.cast(b["doc_id"], pa.int64())
        mod3 = pc.subtract(ids, pc.multiply(pc.divide(ids, 3), 3))
        return b.filter(pc.equal(mod3, 2))

    media = docs_ds.map_batches(only_video_docs, batch_format="pyarrow") \
                   .map_batches(synth_media_batch, batch_format="pyarrow")
    return media.map_batches(FrameSampleStage,
                             concurrency=2,
                             batch_size=MEDIA_BATCH_SIZE,
                             batch_format="pyarrow")
