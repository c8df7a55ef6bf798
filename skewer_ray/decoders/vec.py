"""Shared Arrow helpers for the vectorized decoder fast paths.

Every fast path has the contract of ``rfc5424.decode_block_vec``:
``decode_block_vec(texts, ts_ns, cfg) -> (cols, fallback_rows)``, where
``cols`` holds the record columns (plus ``row_idx`` into ``texts``) of
the rows decoded on Arrow kernels, or is None, and ``fallback_rows`` are
the local indices the per-row decoder must handle. A row takes a fast
path only in a shape on which the kernels and the per-row decoder agree
byte for byte; the per-row decoder stays the fallback and the parity
oracle (tests/test_decoders.py).

The common shape is "plain" text: printable ASCII (0x20-0x7E) without
``\\``. It rules out escape handling, control characters, non-ASCII
``json.dumps`` escapes, and the places where Python's ``str.strip`` /
``str.split`` and Arrow's whitespace kernels differ (they agree on the
space character). Inside plain text the only character ``json.dumps``
escapes is ``"``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.json as pj

from .rfc3164 import _parse_rfc3339_ns

PLAIN = r"^[ -\[\]-~]+$"
PLAIN_TAB = r"^[\t -\[\]-~]+$"      # LTSV: tab is its field separator

_REC = (
    ("parse_ok", True, pa.bool_()), ("priority", 0, pa.int32()),
    ("facility", 0, pa.int32()), ("severity", 0, pa.int32()),
    ("version", 0, pa.int32()), ("time_reported", 0, pa.int64()),
    ("time_generated", 0, pa.int64()), ("hostname", "", pa.string()),
    ("appname", "", pa.string()), ("procid", "", pa.string()),
    ("msgid", "", pa.string()), ("structured", "", pa.string()),
    ("message", "", pa.string()), ("properties", "{}", pa.string()),
)


def mask(arr) -> np.ndarray:
    """Boolean Arrow array → numpy bool array, null read as False."""
    return pc.fill_null(arr, False).to_numpy(zero_copy_only=False)


def matches(texts, pattern: str) -> np.ndarray:
    return mask(pc.match_substring_regex(texts, pattern))


def blank(arr):
    """A missing value reads as "" (``d.get(key, "")``)."""
    return pc.fill_null(arr, "")


def json_text(arr):
    """Plain text as the body of a JSON string (``json.dumps``)."""
    return pc.replace_substring(arr, '"', '\\"')


def record_cols(row_idx: np.ndarray, keep: np.ndarray, **given) -> dict:
    """The fast-path ``cols`` dict: ``row_idx[keep]`` and the 14 record
    columns, each given array/ndarray filtered by ``keep`` and each
    missing column at the per-row decoder's default."""
    n = int(keep.sum())
    sel = pa.array(keep)
    cols = {"row_idx": row_idx[keep]}
    for name, default, typ in _REC:
        v = given.pop(name, default)
        if isinstance(v, np.ndarray):
            v = pa.array(v[keep], typ)
        elif isinstance(v, pa.Array):
            v = pc.filter(v, sel).cast(typ)
        else:
            v = pa.repeat(pa.scalar(v, typ), n)
        cols[name] = v
    assert not given, given
    return cols


def fallback(n: int, fast: np.ndarray) -> np.ndarray:
    """Local indices not in ``fast`` (sorted)."""
    keep = np.ones(n, dtype=bool)
    keep[fast] = False
    return np.nonzero(keep)[0]


def join_skip_null(pieces: list):
    """Join the non-null ``pieces`` per row with ","; "" where every
    piece is null. A constant "" piece goes first: pyarrow 16.1's
    ``null_handling="skip"`` drops rows whose pieces are all null
    (three rows in, two out), so the result carries a leading ","
    that is sliced off."""
    joined = pc.binary_join_element_wise("", *pieces, ",",
                                         null_handling="skip")
    return pc.utf8_slice_codeunits(joined, 1)


def props_json(domain: str, pieces: list):
    """``props_dumps({domain: {...}})`` from per-key ``"k":"v"`` pieces
    (null = key absent), given in sorted key order; "{}" when a row has
    none."""
    return domain_json(domain, join_skip_null(pieces))


def domain_json(domain: str, body):
    """``{"domain":{<body>}}``, or "{}" where the body is empty."""
    return pc.if_else(
        pc.equal(body, ""), "{}",
        pc.binary_join_element_wise('{"' + domain + '":{', body, "}}", ""))


def kv_piece(key_json: str, val):
    """``"key":"val"`` (null where ``val`` is null); ``key_json`` is the
    key already as JSON text, ``val`` plain text."""
    return pc.binary_join_element_wise(key_json + ':"', json_text(val), '"',
                                       "")


# --- RFC3339 -----------------------------------------------------------

_CANON = "%Y-%m-%dT%H:%M:%SZ"
# whole seconds whose nanoseconds still fit in int64
_MAX_S = ((1 << 63) - 1) // 1_000_000_000


def rfc3339_ns(arr) -> tuple[np.ndarray, np.ndarray]:
    """``(ns, ok)`` numpy arrays, ``_parse_rfc3339_ns`` row for row (ok
    False where it is None or the value is null). The canonical
    ``YYYY-MM-DDTHH:MM:SSZ`` goes through ``pc.strptime``, kept only
    where it renders back to the same text (strptime normalizes Feb 30
    and second 60, which Go rejects) and its nanoseconds fit in int64;
    any other value through the cached per-row parser, once per
    distinct value."""
    n = len(arr)
    secs = pc.strptime(arr, format=_CANON, unit="s", error_is_null=True)
    back = pc.binary_join_element_wise(
        pc.replace_substring(pc.cast(secs, pa.string()), " ", "T"), "Z", "")
    s64 = pc.fill_null(pc.cast(secs, pa.int64()), 0)
    ok = mask(pc.and_(pc.equal(back, arr),
                      pc.less_equal(pc.abs(s64), _MAX_S)))
    ns = np.zeros(n, dtype=np.int64)
    ns[ok] = s64.to_numpy(zero_copy_only=False)[ok] * 1_000_000_000
    rest = np.nonzero(~ok & mask(pc.is_valid(arr)))[0]
    if len(rest):
        d = pc.dictionary_encode(pc.take(arr, pa.array(rest)))
        vals = [_parse_rfc3339_ns(v) for v in d.dictionary.to_pylist()]
        good = np.array([v is not None for v in vals], dtype=bool)
        num = np.array([v or 0 for v in vals], dtype=np.int64)
        idx = d.indices.to_numpy(zero_copy_only=False)
        ns[rest] = num[idx]
        ok[rest] = good[idx]
    return ns, ok


# --- JSON --------------------------------------------------------------

# one object per line, plain text; no null / NaN / Inf(inity) value
# (Python reads null as None, which prints "None" or raises; Arrow
# accepts "Inf" and "-NaN", which Python rejects)
_OBJECT = r"^\{[ -\[\]-~]*\}$"
_ODD_VALUE = r"[:,\[] *(?:null|-?[IN])"


# read_json calls per sub-batch at most: a block with many type clashes
# would halve down to single rows, one call each; the rows still unread
# then fall back
_MAX_READS = 32


def json_objects(texts, schema: pa.Schema) -> list:
    """``[(rows, batch), ...]``: the candidate rows of ``texts`` and
    their objects read with ``pyarrow.json.read_json`` (known fields
    typed by ``schema``, others inferred) as one RecordBatch per part,
    in row order. One read takes all candidates; where Arrow rejects a
    part (a type change, a duplicate key, bad syntax) or reads another
    number of rows (two objects on one line), its two halves are read
    on their own, so a rejected single row is left out and only it
    falls back; the accepted rows are then read once more as one part.
    Where that fails too, each part keeps its own inferred types for
    the other fields."""
    rows = np.nonzero(matches(texts, _OBJECT)
                      & ~matches(texts, _ODD_VALUE))[0]
    if not len(rows):
        return []
    # the data buffer of the rows, each with its "\n": no Python join;
    # rows[lo:hi] are its bytes ends[lo]:ends[hi]
    lines = pc.binary_join_element_wise(pc.take(texts, pa.array(rows)),
                                        "", "\n")
    ends = np.concatenate(([0], np.cumsum(
        pc.binary_length(lines).to_numpy(zero_copy_only=False))))
    data = lines.buffers()[2]
    parts, todo = [], [(0, len(rows))]
    for _ in range(_MAX_READS):
        if not todo:
            break
        lo, hi = todo.pop()
        batch = _read_json(data.slice(ends[lo], ends[hi] - ends[lo]),
                           hi - lo, schema)
        if batch is not None:
            parts.append((lo, hi, batch))
        elif hi - lo > 1:
            mid = (lo + hi) // 2
            todo += [(mid, hi), (lo, mid)]      # lower half first
    if len(parts) > 1:
        # the accepted rows read again as one part, when their types
        # agree: one decode instead of one per part
        keep = np.concatenate([np.arange(lo, hi) for lo, hi, _ in parts])
        size = sum(int(ends[hi] - ends[lo]) for lo, hi, _ in parts)
        data = pc.take(lines, pa.array(keep)).buffers()[2].slice(0, size)
        batch = _read_json(data, len(keep), schema)
        if batch is not None:
            return [(rows[keep], batch)]
    return [(rows[lo:hi], batch) for lo, hi, batch in parts]


def _read_json(data, n: int, schema: pa.Schema):
    """The ``n`` objects in ``data`` as one RecordBatch, or None."""
    try:
        table = pj.read_json(
            data,
            # one block: the whole part is typed as one
            read_options=pj.ReadOptions(use_threads=False,
                                        block_size=data.size + 1),
            parse_options=pj.ParseOptions(
                explicit_schema=schema, unexpected_field_behavior="infer"))
    except pa.ArrowInvalid:
        return None
    if table.num_rows != n:
        return None
    return table.combine_chunks().to_batches()[0]


def decode_objects(texts, ts_ns, schema: pa.Schema, part_cols):
    """A JSON family's fast path over ``json_objects``: ``part_cols(rows,
    batch, ts_ns)`` gives the ``record_cols`` of one part; the parts'
    columns are joined in row order."""
    parts = [part_cols(rows, t, ts_ns)
             for rows, t in json_objects(texts, schema)]
    if not parts:
        return None, np.arange(len(texts))
    cols = parts[0] if len(parts) == 1 else {
        k: (np.concatenate if k == "row_idx" else pa.concat_arrays)(
            [c[k] for c in parts]) for k in parts[0]}
    return cols, fallback(len(texts), cols["row_idx"])


def extras_pieces(cols: dict, n: int,
                  strip: bool = False) -> tuple[list, np.ndarray]:
    """``"name":"value"`` pieces of the extra fields ``cols`` (name →
    column of ``n`` rows) that hold int64 or string values, in sorted
    name order, and a mask of the rows that hold any other value type
    in one of them (Python's ``str()`` of a float, bool or nested value
    differs from an Arrow cast): those rows fall back. With ``strip``,
    values lose surrounding spaces, and rows holding a field whose name
    has any fall back too (Python strips the name, which may then
    collide)."""
    odd = np.zeros(n, dtype=bool)
    pieces = []
    for name in sorted(cols):
        col = cols[name]
        if not (pa.types.is_int64(col.type) or pa.types.is_string(col.type)) \
                or (strip and name != name.strip(" ")):
            odd |= mask(pc.is_valid(col))
            continue
        val = pc.cast(col, pa.string())
        if strip:
            val = pc.utf8_trim(val, " ")
        pieces.append(kv_piece('"' + name + '"', val))
    return pieces, odd
