"""Small-file compaction for partitioned Parquet output.

Long-running resumable jobs (state/manifest.run_partitioned, the
hive-partitioned fan-out sinks) accumulate many small files: each run
or restart writes its new input files as one more ``group=<g>`` tree,
with one file per write task in each leaf. At 100 TB the file COUNT
becomes its own bottleneck (listing, footer reads, task-per-fragment
scheduling of `read_parquet`); compaction rewrites a leaf's fragments
into ~``target_rows``-row files.

Safety model:
- scratch dirs are siblings named ``_compact-…`` / ``_old-…`` — the
  leading underscore keeps them invisible to Arrow dataset discovery
  (default ``ignore_prefixes`` hides ``_``/``.`` paths), so concurrent
  readers of the root never see partial fragments or duplicate rows;
- the swap is two renames (leaf → _old, _compact → leaf). A crash
  between them leaves the leaf briefly ABSENT, never mixed — and
  ``recover()`` (run automatically by ``compact_output``) restores the
  original from the ``_old`` dir on the next invocation;
- content (row multiset and schema) is unchanged, so lineage manifests
  that count rows stay valid;
- the rewrite uses the sink output's own write options
  (``manifest.SINK_PARQUET_OPTIONS``: zstd, delta-encoded keys, plain
  payloads), so a compacted leaf is no larger than the fragments it
  replaces.

Row-group-sized batches stream through — the partition is never fully
in memory.
"""

from __future__ import annotations

import glob
import os
import shutil
import uuid

import pyarrow as pa
import pyarrow.parquet as pq

from .manifest import SINK_PARQUET_OPTIONS

TARGET_ROWS = 1_000_000


def leaf_dirs(root: str) -> list[str]:
    """Directories under ``root`` that directly contain parquet files
    (hive partition leaves); ``_``/``.``-prefixed scratch dirs are
    skipped, matching Arrow dataset discovery."""
    out = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames
                       if not d.startswith(("_", "."))]
        if any(f.endswith(".parquet") for f in filenames):
            out.append(dirpath)
    return sorted(out)


def recover(root: str) -> int:
    """Crash recovery: restore any leaf that vanished mid-swap from its
    ``_old-<leaf>-<hex>`` sibling, and drop stray ``_compact-*``
    scratch dirs. Returns the number of restored leaves."""
    restored = 0
    for dirpath, dirnames, _files in os.walk(root):
        for d in list(dirnames):
            full = os.path.join(dirpath, d)
            if d.startswith("_compact-"):
                shutil.rmtree(full, ignore_errors=True)
                dirnames.remove(d)
            elif d.startswith("_old-"):
                leaf_name = d[len("_old-"):].rsplit("-", 1)[0]
                leaf = os.path.join(dirpath, leaf_name)
                if not os.path.exists(leaf):
                    os.rename(full, leaf)     # crash was mid-swap
                    restored += 1
                else:
                    shutil.rmtree(full, ignore_errors=True)
                dirnames.remove(d)
    return restored


def compact_dir(leaf: str, target_rows: int = TARGET_ROWS) -> dict:
    """Compact one leaf directory. Returns a report dict
    (files_before, files_after, rows). No-op (files_after ==
    files_before) when the leaf already has < 2 fragments.
    """
    files = sorted(f for f in os.listdir(leaf) if f.endswith(".parquet"))
    rows = sum(pq.ParquetFile(os.path.join(leaf, f)).metadata.num_rows
               for f in files)
    if len(files) < 2:
        return {"leaf": leaf, "files_before": len(files),
                "files_after": len(files), "rows": rows}

    parent, name = os.path.split(leaf)
    token = uuid.uuid4().hex[:8]
    tmp = os.path.join(parent, f"_compact-{name}-{token}")
    os.makedirs(tmp)
    writer = None
    out_idx = 0
    out_rows = 0
    try:
        for f in files:
            pf = pq.ParquetFile(os.path.join(leaf, f))
            for batch in pf.iter_batches():
                if writer is None:
                    writer = pq.ParquetWriter(
                        os.path.join(tmp, f"compact-{out_idx:05d}.parquet"),
                        pf.schema_arrow, **SINK_PARQUET_OPTIONS)
                writer.write_table(pa.Table.from_batches([batch]))
                out_rows += batch.num_rows
                if out_rows >= target_rows:
                    writer.close()
                    writer = None
                    out_idx += 1
                    out_rows = 0
        if writer is not None:
            writer.close()
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise

    old = os.path.join(parent, f"_old-{name}-{token}")
    os.rename(leaf, old)
    os.rename(tmp, leaf)          # crash window here → recover() fixes
    shutil.rmtree(old)
    return {"leaf": leaf, "files_before": len(files),
            "files_after": out_idx + (1 if out_rows else 0),
            "rows": rows}


def compact_output(root: str, target_rows: int = TARGET_ROWS) -> list[dict]:
    """Compact every hive leaf under ``root`` (after crash recovery); an
    encrypted file under ``root`` raises a ValueError before any rewrite."""
    from .encrypt import refuse_encrypted
    recover(root)
    for f in sorted(glob.glob(os.path.join(root, "**", "*.parquet"),
                              recursive=True)):
        refuse_encrypted(f)
    return [compact_dir(d, target_rows) for d in leaf_dirs(root)]
