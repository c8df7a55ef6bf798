"""Process-accounting source: fixed-size acct(2) v3 binary records →
property rows, vectorized with ``np.frombuffer`` (the reference decodes
one struct at a time — services/accounting.go:58-147,
accounting/acct_linux.go:70-162).

acct_v3 layout (64 bytes, little-endian, see linux <uapi/linux/acct.h>):
  flag u8 | version u8 | tty u16 | exitcode u32 | uid u32 | gid u32 |
  pid u32 | ppid u32 | btime u32 | etime f32 | utime comp_t | stime
  comp_t | mem comp_t | io comp_t | rw comp_t | minflt comp_t | majflt
  comp_t | swaps comp_t | comm char[16]

comp_t is a 13-bit mantissa with a 3-bit base-8 exponent
(accounting/acct_linux.go comp_t decode).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data as rd

ACCT_DTYPE = np.dtype([
    ("flag", "u1"), ("version", "u1"), ("tty", "<u2"),
    ("exitcode", "<u4"), ("uid", "<u4"), ("gid", "<u4"),
    ("pid", "<u4"), ("ppid", "<u4"), ("btime", "<u4"), ("etime", "<f4"),
    ("utime", "<u2"), ("stime", "<u2"), ("mem", "<u2"), ("io", "<u2"),
    ("rw", "<u2"), ("minflt", "<u2"), ("majflt", "<u2"), ("swaps", "<u2"),
    ("comm", "S16"),
])


def comp_t_decode(v: np.ndarray) -> np.ndarray:
    """Vectorized comp_t: 13-bit mantissa << (3 * exponent)."""
    v = v.astype(np.uint32)
    exp = (v >> 13) & 0x7
    mant = v & 0x1FFF
    return (mant.astype(np.uint64) << (3 * exp)).astype(np.int64)


def parse_acct_records(data: bytes, source: str = "acct") -> pa.Table:
    """Binary blob → one row per process record (vectorized)."""
    usable = (len(data) // ACCT_DTYPE.itemsize) * ACCT_DTYPE.itemsize
    arr = np.frombuffer(data[:usable], dtype=ACCT_DTYPE)
    comm = [c.split(b"\x00")[0].decode("ascii", errors="replace")
            for c in arr["comm"]]
    return pa.table({
        "source": pa.array([source] * len(arr), pa.string()),
        "rec_idx": pa.array(np.arange(len(arr)), pa.int64()),
        "comm": pa.array(comm, pa.string()),
        "uid": pa.array(arr["uid"].astype(np.int64), pa.int64()),
        "gid": pa.array(arr["gid"].astype(np.int64), pa.int64()),
        "pid": pa.array(arr["pid"].astype(np.int64), pa.int64()),
        "ppid": pa.array(arr["ppid"].astype(np.int64), pa.int64()),
        "btime": pa.array(arr["btime"].astype(np.int64), pa.int64()),
        "etime": pa.array(arr["etime"].astype(np.float64), pa.float64()),
        "utime": pa.array(comp_t_decode(arr["utime"]), pa.int64()),
        "stime": pa.array(comp_t_decode(arr["stime"]), pa.int64()),
        "mem": pa.array(comp_t_decode(arr["mem"]), pa.int64()),
        "io": pa.array(comp_t_decode(arr["io"]), pa.int64()),
        "exitcode": pa.array(arr["exitcode"].astype(np.int64), pa.int64()),
    })


def write_acct_fixture(path: str, n: int = 100) -> None:
    """Deterministic synthetic acct file (no RNG — pure index math)."""
    arr = np.zeros(n, dtype=ACCT_DTYPE)
    for i in range(n):
        arr[i]["flag"] = 0
        arr[i]["version"] = 3
        arr[i]["uid"] = 1000 + (i * 7) % 5
        arr[i]["gid"] = 100 + i % 3
        arr[i]["pid"] = 2000 + i
        arr[i]["ppid"] = 1
        arr[i]["btime"] = 1_700_000_000 + i * 10
        arr[i]["etime"] = float(i % 50) / 2
        # comp_t with exponent: mantissa i%8191, exp i%4
        arr[i]["utime"] = ((i % 4) << 13) | (i % 8191)
        arr[i]["stime"] = i % 8191
        arr[i]["mem"] = ((i % 3) << 13) | ((i * 13) % 8191)
        arr[i]["io"] = i % 100
        arr[i]["comm"] = f"proc{i % 10}".encode()
    with open(path, "wb") as fh:
        fh.write(arr.tobytes())


def read_accounting(paths):
    """Dataset of decoded accounting records from acct(2) files."""
    import os
    nf = len(paths) if isinstance(paths, (list, tuple)) else 1
    # one block per file: Ray otherwise over-splits tiny reads into
    # empty schema-less blocks that pollute downstream RefBundles
    ds = rd.read_binary_files(paths, include_paths=True,
                              override_num_blocks=nf)

    def parse(batch: pa.Table) -> pa.Table:
        parts = []
        for path, data in zip(batch["path"].to_pylist(),
                              batch["bytes"].to_pylist()):
            stem = os.path.splitext(os.path.basename(path))[0]
            parts.append(parse_acct_records(data, source=stem))
        return pa.concat_tables(parts)

    return ds.map_batches(parse, batch_format="pyarrow")
