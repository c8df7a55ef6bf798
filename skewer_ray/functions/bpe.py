"""BPE-style merge-candidate counting (the tokenizer-training inner step).

Byte-pair-encoding training repeatedly (a) counts adjacent symbol
pairs across the corpus and (b) merges the most frequent pair. Step (a)
is the data-parallel heavy phase and the one that belongs on the
engine; the merge loop is a driver-side fold over its tiny result. This
module implements round 0 exactly (symbols = single characters of the
canonical lowercase word stream, pair counts weighted by word
occurrences, NOT distinct words) and emits the top-K merge candidates.

Vectorized kernel: every word in the batch is joined with a NEWLINE
separator and re-encoded as UTF-32, giving one uint32 codepoint array
for the whole batch; adjacent pairs are the stride-1 zip of that array
with itself, packed into uint64 keys (left<<32 | right) and counted
with one ``np.unique`` — no Python loop over words or characters.
Newline is safe as the separator BY CONSTRUCTION: the word stream is
``norm_words`` output (split on ``\\s+``), so no word can contain any
whitespace — unlike NUL, which is not whitespace and could legally
appear inside a word (review finding: a NUL separator silently dropped
such pairs while the SQL oracle counted them).

Scale shape: per-batch partial counts are bounded by the distinct-pair
domain (≈ charset², a few hundred for ASCII text), so the exchange is
tiny regardless of corpus size; the final combine is a driver merge
over that bounded domain (stages/agg.grouped_count semantics).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

TOP_PAIRS = 20


_SEP = 0x0A  # '\n' — cannot occur inside a norm_words word (whitespace)


def pair_counts_kernel(words: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """(packed uint64 pair keys, counts) for adjacent in-word char
    pairs. ``words`` must be whitespace-free (norm_words output)."""
    if not words:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    blob = "\n".join(words)
    cp = np.frombuffer(blob.encode("utf-32-le"), dtype=np.uint32)
    if cp.size < 2:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    left, right = cp[:-1], cp[1:]
    ok = (left != _SEP) & (right != _SEP)  # pairs never straddle a separator
    keys = (left[ok].astype(np.uint64) << np.uint64(32)) \
        | right[ok].astype(np.uint64)
    uniq, counts = np.unique(keys, return_counts=True)
    return uniq, counts.astype(np.int64)


def bpe_merge_candidates(docs_ds) -> pa.Table:
    """Top-K adjacent character pairs over the corpus word stream.

    Returns (left_sym, right_sym, n) with the deterministic tie-break
    (n DESC, left ASC, right ASC), truncated to ``TOP_PAIRS`` rows."""
    from .textstats import norm_words

    def partial(batch: pa.Table) -> pa.Table:
        words: list[str] = []
        for t in batch["text"].to_pylist():
            words.extend(norm_words(t))
        keys, counts = pair_counts_kernel(words)
        return pa.table({"k": pa.array(keys, pa.uint64()),
                         "n": pa.array(counts, pa.int64())})

    acc: dict[int, int] = {}
    for b in docs_ds.map_batches(partial, batch_format="pyarrow") \
                    .iter_batches(batch_format="pyarrow"):
        for k, n in zip(b["k"].to_pylist(), b["n"].to_pylist()):
            acc[k] = acc.get(k, 0) + n
    pairs = [(chr(k >> 32), chr(k & 0xFFFFFFFF), n) for k, n in acc.items()]
    pairs.sort(key=lambda p: (-p[2], p[0], p[1]))
    pairs = pairs[:TOP_PAIRS]
    return pa.table({
        "left_sym": pa.array([p[0] for p in pairs], pa.string()),
        "right_sym": pa.array([p[1] for p in pairs], pa.string()),
        "n": pa.array([p[2] for p in pairs], pa.int64()),
    })


def bpe_encode(docs_ds):
    """Train-then-apply: encode every word with the round-0 top-K merge
    list and report per-doc token statistics — the full tokenizer
    train+apply loop as one pipeline (train = the bounded pair-count
    exchange of bpe_merge_candidates; apply = map-only with the ranked
    merge list broadcast once via ``ray.put``).

    Merge-application contract (shared with the SQL mirror): each word
    becomes the space-separated symbol sequence ``' w o r d '``; merges
    apply IN RANK ORDER, each as ONE left-to-right non-overlapping
    ``str.replace(' l r ', ' lr ')`` pass — exactly the semantics of
    SQL ``replace``, which is why both engines produce identical
    segmentations. (True fixed-point BPE would rescan after each
    replacement; a single pass is deterministic and engine-portable,
    and differs only on runs like 'a a a a' where overlapping pair
    occurrences share a separator.)

    Output: (doc_id, n_chars, n_tokens, n_merged) — chars of the word
    stream, symbols after merging, multi-char symbols. Exact integer
    columns only."""
    import ray

    from .textstats import norm_words

    cand = bpe_merge_candidates(docs_ds)
    merges = [(ls, rs) for ls, rs in zip(cand["left_sym"].to_pylist(),
                                         cand["right_sym"].to_pylist())]
    bc = ray.put(merges)

    def fn(b: pa.Table) -> pa.Table:
        ms = ray.get(bc)
        pats = [(f" {l} {r} ", f" {l}{r} ") for l, r in ms]
        o_c, o_t, o_m = [], [], []
        for t in b["text"].to_pylist():
            n_chars = n_tok = n_merged = 0
            for word in norm_words(t):
                n_chars += len(word)
                seq = " " + " ".join(word) + " "
                for pat, rep in pats:
                    seq = seq.replace(pat, rep)
                toks = seq.split()
                n_tok += len(toks)
                n_merged += sum(1 for s in toks if len(s) > 1)
            o_c.append(n_chars)
            o_t.append(n_tok)
            o_m.append(n_merged)
        return pa.table({
            "doc_id": b["doc_id"],
            "n_chars": pa.array(o_c, pa.int64()),
            "n_tokens": pa.array(o_t, pa.int64()),
            "n_merged": pa.array(o_m, pa.int64())})

    return docs_ds.map_batches(fn, batch_format="pyarrow")
