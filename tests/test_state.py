"""Lineage manifests, idempotent resume, quarantine retry
(skewer_ray.state — the badger-store ACK/NACK accounting analogue,
store/store.go:1326-1471, 887-941)."""

from __future__ import annotations

import json
import logging
import os
import pathlib
import shutil

import pyarrow.parquet as pq
import pytest

from skewer_ray.config import default_config
from skewer_ray.constants import FILTER_PASS
from skewer_ray.gen import ensure_transcripts
from skewer_ray.state import load_manifests, retry_rejected, run_partitioned


@pytest.fixture()
def small_input(tmp_path):
    """Three-file copy of the sf0.001 transcripts."""
    src = ensure_transcripts("/root/testdata/sf0.001")
    t = pq.read_table(src)
    d = tmp_path / "in"
    d.mkdir()
    per = t.num_rows // 3 + 1
    for k in range(3):
        pq.write_table(t.slice(k * per, per), d / f"part-{k:05d}.parquet")
    return str(d)


def _file_mtimes(d: str) -> dict[str, float]:
    return {os.path.join(r, f): os.path.getmtime(os.path.join(r, f))
            for r, _d, fs in os.walk(d) for f in fs}


def _parquet_files(out: str) -> list[str]:
    return [os.path.join(r, f)
            for r, _d, fs in os.walk(os.path.join(out, "data"))
            for f in fs if f.endswith(".parquet")]


def _sink_counts(out: str) -> list[dict]:
    with open(os.path.join(out, "metrics", "sink_counts.json")) as fh:
        return json.load(fh)


def _hold_back(input_dir: str, names: list[str], tmp_path):
    """Move ``names`` out of ``input_dir``; the returned call moves them
    back (files that arrive after a run)."""
    held = tmp_path / "held"
    held.mkdir(exist_ok=True)
    for n in names:
        os.rename(os.path.join(input_dir, n), held / n)

    def arrive():
        for n in names:
            os.rename(held / n, os.path.join(input_dir, n))
    return arrive


def test_run_partitioned_counts_match_flagship(small_input, tmp_path, ray_session):
    out = str(tmp_path / "out")
    metrics = run_partitioned(small_input, out)
    # 3 manifests, all done, input rows accounted
    ms = load_manifests(out)
    assert sorted(ms) == [0, 1, 2]
    assert sum(m.n_in for m in ms.values()) == 6006
    # aggregate equals the known sf0.001 flagship counts
    agg = metrics.groupby(["sink", "status"])["n"].sum().to_dict()
    assert agg[("kafka", "passing")] == 5417
    assert agg[("file", "dropped")] == 500
    assert agg[("stderr", "rejected")] == 78
    assert agg[("_parse", "error")] == 11
    assert "route" in metrics.columns
    # run_flagship is this run: its frame is these totals, and it writes
    # the same metrics artifact, record for record
    from skewer_ray.pipelines.flagship import run_flagship
    flat = str(tmp_path / "flat")
    frame = run_flagship(small_input, flat)
    assert (frame.set_index(["sink", "status", "route"])["n"].to_dict()
            == metrics.groupby(["sink", "status", "route"])["n"].sum()
            .to_dict())
    assert _sink_counts(out) == _sink_counts(flat)
    assert not os.path.exists(os.path.join(flat, "metrics", "summary.json"))
    # the three files write as one group, not one tree each
    assert os.listdir(os.path.join(out, "data")) == ["group=0"]
    assert os.listdir(os.path.join(flat, "data")) == ["group=0"]


def test_both_run_paths_write_the_same_columns(small_input, tmp_path,
                                               ray_session):
    """An input column the chain does not use reaches no output: the run
    reads only the transcript columns and adds only its ``part_id`` data
    column, whichever entry point starts it."""
    import pyarrow as pa

    from skewer_ray.pipelines.flagship import run_flagship
    d = tmp_path / "in-lang"
    d.mkdir()
    for n in sorted(os.listdir(small_input)):
        t = pq.read_table(os.path.join(small_input, n))
        pq.write_table(t.append_column("lang", pa.array(["en"] * len(t))),
                       d / n)
    part, flat = str(tmp_path / "part"), str(tmp_path / "flat")
    run_partitioned(str(d), part)
    run_flagship(str(d), flat)

    def columns(out):
        return {c for f in _parquet_files(out) for c in pq.read_schema(f).names}
    assert "lang" not in columns(flat) | columns(part)
    assert "part_id" in columns(part)
    assert columns(part) == columns(flat)


def test_resume_through_symlinked_input_redoes_nothing(
        small_input, tmp_path, ray_session):
    """A resume naming the same input through a symlink must match the
    manifests' files (realpath on both sides), not re-ingest them as new
    partitions and double the counts."""
    out = str(tmp_path / "out")
    m1 = run_partitioned(small_input, out)
    link = tmp_path / "in-link"
    link.symlink_to(small_input, target_is_directory=True)
    m2 = run_partitioned(str(link), out)
    assert sorted(load_manifests(out)) == [0, 1, 2]
    a1 = m1.groupby(["sink", "status", "route"])["n"].sum().to_dict()
    a2 = m2.groupby(["sink", "status", "route"])["n"].sum().to_dict()
    assert a1 == a2


def test_cli_run_twice_into_the_same_out_is_a_no_op(tmp_path, ray_session):
    """A second plain ``run`` into the same ``--out`` finds every input
    file acked and writes nothing: the counts stay those of one run."""
    from skewer_ray.cli import main
    out = str(tmp_path / "out")
    argv = ["run", "--input", "/root/testdata/sf0.001", "--out", out]
    assert main(argv) == 0
    first = _sink_counts(out)
    files = _file_mtimes(os.path.join(out, "data"))
    assert sum(r["n"] for r in first) == 17_996
    assert main(argv) == 0
    assert _sink_counts(out) == first
    assert _file_mtimes(os.path.join(out, "data")) == files


def test_retry_after_plain_run_redelivers_rejected(tmp_path, ray_session):
    """``retry_rejected`` finds the quarantined rows of a plain ``run``:
    with an accept-all filter every rejected turn reaches all 3 sinks."""
    from skewer_ray.cli import main
    out = str(tmp_path / "out")
    assert main(["run", "--input", "/root/testdata/sf0.001",
                 "--out", out]) == 0
    assert retry_rejected(out, hooks=_accept_all()) == 78 * 3


def _run_path(path, small_input, tmp_path, monkeypatch) -> str:
    """Drive one run path to its end; returns the out dir it acked."""
    import skewer_ray.state.manifest as M
    from skewer_ray.pipelines.flagship import run_flagship

    out = str(tmp_path / "out")
    if path == "flagship":
        run_flagship(small_input, out)
    elif path == "retry":
        run_partitioned(small_input, out)
        assert retry_rejected(out, hooks=_accept_all()) > 0
        return os.path.join(out, "retries", "000")
    elif path == "resume":        # test_crash_mid_group_...'s shape
        names = sorted(os.listdir(small_input))
        arrive = _hold_back(small_input, names[1:], tmp_path)
        run_partitioned(small_input, out)
        arrive()
        write_manifest = M._write_manifest

        def dying(out_dir, m):
            write_manifest(out_dir, m)
            raise RuntimeError("crash between manifests")
        monkeypatch.setattr(M, "_write_manifest", dying)
        with pytest.raises(RuntimeError, match="crash between"):
            run_partitioned(small_input, out)
        monkeypatch.setattr(M, "_write_manifest", write_manifest)
        t = pq.read_table(os.path.join(small_input, names[0]))
        pq.write_table(t.slice(0, 500),
                       os.path.join(small_input, "aaa-new-arrival.parquet"))
        run_partitioned(small_input, out)
        assert sorted({m.group for m in load_manifests(out).values()}) \
            == [0, 1]
    else:
        run_partitioned(small_input, out)
    return out


@pytest.mark.parametrize("path", ["fresh", "flagship", "resume", "retry"])
def test_manifest_counts_equal_a_scan_of_the_written_rows(
        path, small_input, tmp_path, ray_session, monkeypatch):
    """Each manifest's counts, summed by the write tasks as they write,
    equal one scan of every written row, and their total per
    (sink, status, route) equals the footers' row counts. This fails
    loudly if Ray stops handing the write tasks' returns to
    ``on_write_complete``."""
    import pyarrow as pa
    import pyarrow.dataset as pds

    from skewer_ray.state.manifest import hive_counts

    out = _run_path(path, small_input, tmp_path, monkeypatch)
    data = os.path.join(out, "data")
    keys = ["sink", "status", "route"]
    t = (pds.dataset(data, format="parquet", partitioning=pds.partitioning(
            pa.schema([(k, pa.string()) for k in ["group", *keys]]),
            flavor="hive"))
         .to_table(columns=["part_id", *keys])
         .group_by(["part_id", *keys]).aggregate([([], "count_all")]))
    want: dict = {}
    for r in t.to_pylist():
        want.setdefault(r["part_id"], {})[
            "/".join(r[k] for k in keys)] = r["count_all"]
    ms = load_manifests(out)
    assert want and {i: m.counts for i, m in ms.items()} == want
    total: dict = {}
    for m in ms.values():
        for key, n in m.counts.items():
            k = tuple(key.split("/", 2))
            total[k] = total.get(k, 0) + n
    assert total == hive_counts(data, tuple(keys))


def test_run_reads_no_written_file_back(small_input, tmp_path, ray_session,
                                        monkeypatch):
    """The ledger comes from the write tasks, not from the output: with
    the driver's Parquet batch reader broken, a run still acks the same
    manifests as an unbroken one (Ray's own reads run in its tasks)."""
    clean = str(tmp_path / "clean")
    run_partitioned(small_input, clean)

    def broken(*_a, **_k):
        raise AssertionError("the driver read a written file back")
    monkeypatch.setattr(pq.ParquetFile, "iter_batches", broken)
    out = str(tmp_path / "out")
    run_partitioned(small_input, out)
    assert load_manifests(out) == load_manifests(clean)
    assert _sink_counts(out) == _sink_counts(clean)


def test_manifest_size_does_not_grow_with_its_group(small_input, tmp_path,
                                                    ray_session):
    """Each manifest names only its own input file: a group of N files
    writes N manifests of constant size, not N lists of N paths."""
    out = str(tmp_path / "out")
    run_partitioned(small_input, out)
    names = sorted(os.listdir(small_input))
    lineage = os.path.join(out, "_lineage")
    for f in sorted(os.listdir(lineage)):
        with open(os.path.join(lineage, f)) as fh:
            text = fh.read()
        m = json.loads(text)
        assert m["group_size"] == 3 and "group_files" not in m
        assert sum(n in text for n in names) == 1
        assert not [k for k, v in m.items() if isinstance(v, list)]


def test_resume_skips_done_and_redoes_orphans(small_input, tmp_path, ray_session):
    """Two runs make two groups. A crash inside group 1 (one of its
    manifests lost, its data half-written) redoes all of group 1 and
    leaves group 0 untouched."""
    out = str(tmp_path / "out")
    names = sorted(os.listdir(small_input))
    arrive = _hold_back(small_input, names[1:], tmp_path)
    run_partitioned(small_input, out)                # group 0: file 0
    arrive()
    m1 = run_partitioned(small_input, out)           # group 1: files 1, 2
    ms = load_manifests(out)
    assert [ms[i].group for i in (0, 1, 2)] == [0, 1, 1]
    assert ms[1].group_size == ms[2].group_size == 2

    os.remove(os.path.join(out, "_lineage", "part-00001.json"))
    group1 = os.path.join(out, "data", "group=1")
    shutil.rmtree(os.path.join(group1, "sink=stderr"))  # partial output
    survivor = os.path.join(out, "_lineage", "part-00002.json")
    os.utime(survivor, (0, 0))
    group0 = os.path.join(out, "data", "group=0")
    mtimes_before = _file_mtimes(group0)
    m2 = run_partitioned(small_input, out)
    # group 0 untouched (resume skipped it)
    assert _file_mtimes(group0) == mtimes_before
    # group 1 fully rebuilt, its surviving manifest rewritten, totals
    # identical to the first run
    assert os.path.isdir(os.path.join(group1, "sink=stderr"))
    assert os.path.getmtime(survivor) > 0
    ms = load_manifests(out)
    assert [ms[i].group for i in (0, 1, 2)] == [0, 1, 1]
    a1 = m1.groupby(["sink", "status", "route"])["n"].sum().to_dict()
    a2 = m2.groupby(["sink", "status", "route"])["n"].sum().to_dict()
    assert a1 == a2


def test_crash_mid_group_then_new_files_arrive(small_input, tmp_path,
                                               ray_session, monkeypatch):
    """A run dies between the manifests of its group, and a file that
    sorts first arrives before the resume. The resume keeps the acked
    group untouched, redoes the broken group's files together with the
    new one as one group, and ends with a clean run's counts."""
    import skewer_ray.state.manifest as M

    class Crash(Exception):
        pass

    out = str(tmp_path / "out")
    names = sorted(os.listdir(small_input))
    arrive = _hold_back(small_input, names[1:], tmp_path)
    run_partitioned(small_input, out)                # group 0: file 0
    arrive()
    write_manifest = M._write_manifest

    def dying(out_dir, m):
        write_manifest(out_dir, m)
        raise Crash
    monkeypatch.setattr(M, "_write_manifest", dying)
    with pytest.raises(Crash):
        run_partitioned(small_input, out)            # group 1 dies
    monkeypatch.setattr(M, "_write_manifest", write_manifest)
    assert sorted(load_manifests(out)) == [0, 1]
    assert os.path.isdir(os.path.join(out, "data", "group=1"))

    t = pq.read_table(os.path.join(small_input, names[0]))
    newfile = os.path.join(small_input, "aaa-new-arrival.parquet")
    pq.write_table(t.slice(0, 500), newfile)
    group0 = os.path.join(out, "data", "group=0")
    mtimes_before = _file_mtimes(group0)
    run_partitioned(small_input, out)
    assert _file_mtimes(group0) == mtimes_before
    ms = load_manifests(out)
    assert sorted(ms) == [0, 1, 2, 3]
    by_group = {}
    for m in ms.values():
        by_group.setdefault(m.group, set()).add(os.path.basename(m.input_file))
    assert by_group == {0: {names[0]},
                        1: {"aaa-new-arrival.parquet", *names[1:]}}
    assert sorted(os.listdir(os.path.join(out, "data"))) \
        == ["group=0", "group=1"]

    clean = str(tmp_path / "clean")
    run_partitioned(small_input, clean)
    assert _sink_counts(out) == _sink_counts(clean)
    assert sum(m.n_in for m in ms.values()) == 6006 + 500


def test_lineage_without_groups_is_refused(small_input, tmp_path,
                                           ray_session):
    """A manifest without ``group`` (an output from before write groups)
    or without ``group_size`` (one that listed ``group_files``) is not
    read: loading the out dir, and so a rerun into it, raises a
    ``ValueError`` naming the file instead of re-ingesting the input."""
    out = str(tmp_path / "out")
    run_partitioned(small_input, out)
    path = os.path.join(out, "_lineage", "part-00001.json")
    with open(path) as fh:
        m = json.load(fh)
    for drop in ("group", "group_size"):
        with open(path, "w") as fh:
            json.dump({k: v for k, v in m.items() if k != drop}, fh)
        with pytest.raises(ValueError, match="part-00001.json"):
            load_manifests(out)
        with pytest.raises(ValueError, match=f"no '{drop}'"):
            run_partitioned(small_input, out)


def test_manifest_atomicity_no_tmp_left(small_input, tmp_path, ray_session):
    out = str(tmp_path / "out")
    run_partitioned(small_input, out)
    lineage = os.path.join(out, "_lineage")
    assert not [f for f in os.listdir(lineage) if f.endswith(".tmp")]
    with open(os.path.join(lineage, "part-00000.json")) as fh:
        m = json.load(fh)
    assert m["n_in"] > 0 and sum(m["counts"].values()) > 0


def _accept_all():
    from skewer_ray.config import HookSet, default_topic_fn
    return HookSet(topic_fn=default_topic_fn,
                   partition_key_tmpl="pk-{hostname}",
                   filter_fn=lambda rec: (FILTER_PASS, None))


def _reject_some():
    """Passes two thirds of the rows, rejects the rest (by message
    length, so the split is the same on every call)."""
    from skewer_ray.config import HookSet, default_topic_fn
    from skewer_ray.constants import FILTER_REJECTED
    return HookSet(
        topic_fn=default_topic_fn, partition_key_tmpl="pk-{hostname}",
        filter_fn=lambda rec: ((FILTER_REJECTED if len(rec["message"]) % 3
                                == 0 else FILTER_PASS), None))


def _keys(out: str, sink: str, status: str) -> list[tuple]:
    """Sorted (part_id, conv_id, turn_idx) of one sink/status's rows."""
    rows = [r for f in _parquet_files(out)
            if f"/sink={sink}/status={status}/" in f
            for r in pq.read_table(f, columns=["part_id", "conv_id",
                                               "turn_idx"]).to_pylist()]
    return sorted(tuple(r.values()) for r in rows)


def _passing(out: str) -> int:
    return sum(r["n"] for r in _sink_counts(out) if r["status"] == "passing")


def test_retry_rejected_delivers_with_fixed_filter(small_input, tmp_path,
                                                   ray_session, capsys):
    """A retry attempt is an out dir in the run layout: one group with
    a ``part_id`` column, one manifest per re-read input file (its
    ``n_in`` the rows re-read) and ``metrics/sink_counts.json``, which
    the ``counts`` and ``metrics`` commands read as for a run."""
    from skewer_ray.cli import main
    out = str(tmp_path / "out")
    metrics = run_partitioned(small_input, out)
    n_rej = metrics[(metrics.sink == "kafka")
                    & (metrics.status == "rejected")]["n"].sum()
    assert n_rej == 78

    # operator "fixes" the filter: accept everything now
    n = retry_rejected(out, hooks=_accept_all())
    # every quarantined turn re-delivered to all 3 sinks
    assert n == 78 * 3
    attempt = os.path.join(out, "retries", "000")
    assert os.listdir(os.path.join(attempt, "data")) == ["group=0"]
    assert all("part_id" in pq.read_schema(f).names
               for f in _parquet_files(attempt))
    ms = load_manifests(attempt)
    main_ms = load_manifests(out)
    assert sum(m.n_in for m in ms.values()) == 78
    assert {(i, m.input_file) for i, m in ms.items()} \
        <= {(i, m.input_file) for i, m in main_ms.items()}
    assert {(m.group, m.group_size) for m in ms.values()} == {(0, len(ms))}
    assert _passing(attempt) == n
    assert _keys(attempt, "file", "passing") == _keys(out, "kafka",
                                                      "rejected")
    capsys.readouterr()
    assert main(["counts", "--out", attempt]) == 0
    assert json.loads(capsys.readouterr().out) == _sink_counts(attempt)
    assert main(["metrics", "--out", attempt]) == 0
    assert f"skw_incoming_messages_total {n}" in capsys.readouterr().out


def test_second_retry_redelivers_nothing(small_input, tmp_path,
                                         ray_session):
    """A row that passed on retry is never sent again: a second retry
    with the same accept-all hooks finds nothing still rejected."""
    out = str(tmp_path / "out")
    run_partitioned(small_input, out)
    assert retry_rejected(out, hooks=_accept_all()) == 78 * 3
    assert retry_rejected(out, hooks=_accept_all()) == 0
    assert os.listdir(os.path.join(out, "retries")) == ["000"]


def test_retry_still_rejected_rows_go_to_the_next_attempt(
        small_input, tmp_path, ray_session):
    """An attempt records the rows its hooks still reject as rejected;
    the next attempt retries exactly those, and passing rows summed
    over all attempts are the run's rejected rows times the sinks."""
    out = str(tmp_path / "out")
    run_partitioned(small_input, out)
    first = os.path.join(out, "retries", "000")
    n0 = retry_rejected(out, hooks=_reject_some())
    still = _keys(first, "kafka", "rejected")
    assert 0 < len(still) < 78
    assert n0 == (78 - len(still)) * 3

    n1 = retry_rejected(out, hooks=_accept_all())
    second = os.path.join(out, "retries", "001")
    assert n1 == len(still) * 3
    for sink in ("kafka", "file", "stderr"):
        assert _keys(second, sink, "passing") == still
    assert sum(m.n_in for m in load_manifests(second).values()) \
        == len(still)
    assert _passing(first) + _passing(second) == 78 * 3
    assert retry_rejected(out, hooks=_accept_all()) == 0


def test_file_arriving_after_a_retry_is_retried(small_input, tmp_path,
                                                ray_session):
    """A file that arrives after a retry has no attempt yet: the next
    retry takes its rejected rows from the run, and only those."""
    out = str(tmp_path / "out")
    arrive = _hold_back(small_input, sorted(os.listdir(small_input))[2:],
                        tmp_path)
    run_partitioned(small_input, out)
    first = retry_rejected(out, hooks=_accept_all())
    arrive()
    metrics = run_partitioned(small_input, out)
    late = metrics[(metrics.part_id == 2) & (metrics.sink == "kafka")
                   & (metrics.status == "rejected")]["n"].sum()
    assert late > 0 and first + late * 3 == 78 * 3
    assert retry_rejected(out, hooks=_accept_all()) == late * 3
    assert set(load_manifests(os.path.join(out, "retries", "001"))) == {2}


def test_retry_reads_only_files_with_rejected_rows(small_input, tmp_path,
                                                   ray_session):
    """An input file whose manifest counts no rejected row is not read
    by a retry: it may be gone by then."""
    import pyarrow.compute as pc
    first = sorted(os.listdir(small_input))[0]
    t = pq.read_table(os.path.join(small_input, first))
    clean = os.path.join(small_input, "zzz-clean.parquet")
    pq.write_table(t.filter(pc.invert(pc.match_substring(t["text"],
                                                         "reject-me"))),
                   clean)
    out = str(tmp_path / "out")
    run_partitioned(small_input, out)
    m = next(m for m in load_manifests(out).values()
             if m.input_file == clean)
    assert m.n_in > 0 and not [k for k in m.counts if "/rejected/" in k]
    os.remove(clean)
    assert retry_rejected(out, hooks=_accept_all()) == 78 * 3
    assert m.part_id not in load_manifests(os.path.join(out, "retries",
                                                        "000"))


def test_retry_attempt_that_lost_a_manifest_is_redone_in_place(
        small_input, tmp_path, ray_session):
    """A retry attempt missing a manifest was never acked: the next
    call redoes it under the same attempt number, with a clean
    attempt's counts, instead of starting the next one."""
    out = str(tmp_path / "out")
    run_partitioned(small_input, out)
    n = retry_rejected(out, hooks=_reject_some())
    attempt = os.path.join(out, "retries", "000")
    clean = _sink_counts(attempt)
    lost = sorted(load_manifests(attempt))[1]
    os.remove(os.path.join(attempt, "_lineage", f"part-{lost:05d}.json"))
    assert retry_rejected(out, hooks=_reject_some()) == n
    assert os.listdir(os.path.join(out, "retries")) == ["000"]
    assert lost in load_manifests(attempt)
    assert _sink_counts(attempt) == clean


def test_input_dir_named_like_a_scale_factor_is_read_as_given(
        tmp_path, ray_session):
    """Only a basename that is exactly ``sf<number>`` names a testdata
    scale; any other input dir, ``sftp_drop`` included, is read as is."""
    from skewer_ray.pipelines.flagship import read_transcripts
    from skewer_ray.state.manifest import _list_input_files
    t = pq.read_table(ensure_transcripts("/root/testdata/sf0.001"))
    d = tmp_path / "sftp_drop"
    d.mkdir()
    pq.write_table(t.slice(0, 100), d / "part-0.parquet")
    assert _list_input_files(str(d)) == [os.path.realpath(d / "part-0.parquet")]
    assert read_transcripts(str(d)).count() == 100
    out = str(tmp_path / "out")
    run_partitioned(str(d), out)
    assert sum(m.n_in for m in load_manifests(out).values()) == 100


def test_percent_encoded_route_is_counted_under_its_own_name(
        tmp_path, ray_session):
    """The writer percent-encodes a hive value (``café`` is written as
    ``route=caf%C3%A9_...``); the lineage counts and sink_counts.json
    name the route the fan-out gave, not the dir's spelling."""
    import pyarrow as pa
    import pyarrow.compute as pc
    t = pq.read_table(ensure_transcripts("/root/testdata/sf0.001"))
    row = t.filter(pc.equal(t["conv_id"], "conv-00000002")).slice(0, 1)
    row = row.set_column(row.schema.get_field_index("text"), "text",
                         pa.array(["<13>Jan 15 10:00:00 host café[12]: hi"]))
    d = tmp_path / "in"
    d.mkdir()
    pq.write_table(row, d / "part-0.parquet")
    out = str(tmp_path / "out")
    run_partitioned(str(d), out)
    assert os.path.isdir(os.path.join(
        out, "data", "group=0", "sink=file", "status=passing",
        "route=caf%C3%A9_2026-01-15"))
    assert {"sink": "file", "status": "passing",
            "route": "café_2026-01-15", "n": 1} in _sink_counts(out)
    assert load_manifests(out)[0].counts["file/passing/café_2026-01-15"] == 1


def test_compaction_preserves_content(ray_session, tmp_path):
    """Compacting a fragmented hive leaf reduces file count and leaves
    the row multiset and schema byte-identical; single-file leaves are
    untouched."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from skewer_ray.state.compact import compact_output, leaf_dirs

    root = tmp_path / "out"
    leaf = root / "sink=kafka" / "route=a"
    leaf.mkdir(parents=True)
    for i in range(7):
        pq.write_table(pa.table({
            "uid": [f"{i}:{j}" for j in range(100)],
            "n": list(range(i * 100, i * 100 + 100))}),
            leaf / f"part-{i}.parquet")
    solo = root / "sink=kafka" / "route=b"
    solo.mkdir(parents=True)
    pq.write_table(pa.table({"uid": ["x"], "n": [1]}),
                   solo / "only.parquet")

    before = pq.read_table(str(leaf)).sort_by("uid")
    reports = compact_output(str(root), target_rows=250)
    by_leaf = {r["leaf"]: r for r in reports}
    assert by_leaf[str(leaf)]["files_before"] == 7
    assert by_leaf[str(leaf)]["files_after"] == 3   # 700 rows / 250
    assert by_leaf[str(solo)]["files_after"] == 1   # no-op
    after = pq.read_table(str(leaf)).sort_by("uid")
    assert after.equals(before)
    assert len(leaf_dirs(str(root))) == 2


def test_compaction_recovery_and_hidden_scratch(ray_session, tmp_path):
    """A crash mid-swap (leaf renamed away, replacement not yet in
    place) is repaired by recover(); _-prefixed scratch dirs are never
    visible to Arrow dataset discovery."""
    import os

    import pyarrow as pa
    import pyarrow.dataset as pds
    import pyarrow.parquet as pq
    from skewer_ray.state.compact import compact_output, recover

    root = tmp_path / "out"
    leaf = root / "sink=kafka" / "route=a"
    leaf.mkdir(parents=True)
    for i in range(3):
        pq.write_table(pa.table({"uid": [f"{i}"], "n": [i]}),
                       leaf / f"part-{i}.parquet")

    # simulate the crash window: leaf moved to _old, no replacement
    os.rename(leaf, root / "sink=kafka" / "_old-route=a-deadbeef")
    (root / "sink=kafka" / "_compact-route=a-deadbeef").mkdir()
    # scratch dirs are invisible to readers even mid-crash
    assert pds.dataset(str(root), partitioning="hive").count_rows() == 0
    assert recover(str(root)) == 1
    assert pq.read_table(str(leaf)).num_rows == 3
    # and a fresh compact_output run recovers then compacts
    reports = compact_output(str(root), target_rows=10)
    assert reports[0]["files_after"] == 1
    assert pq.read_table(str(leaf)).sort_by("uid")["n"].to_pylist() \
        == [0, 1, 2]


def _assert_sink_encoding(md) -> None:
    """A sink output footer: zstd everywhere, delta-encoded keys and an
    ``encoded`` column without a dictionary page."""
    for g in range(md.num_row_groups):
        rg = md.row_group(g)
        cols = {rg.column(i).path_in_schema: rg.column(i)
                for i in range(rg.num_columns)}
        assert {c.compression for c in cols.values()} == {"ZSTD"}
        for k in ("uid", "conv_id"):
            assert "DELTA_BYTE_ARRAY" in cols[k].encodings
        assert not cols["encoded"].has_dictionary_page


def test_sink_output_encoding_survives_compaction_and_encryption(
        tmp_path, ray_session):
    """Every writer of sink output (the group write, compaction and
    encryption) writes zstd with delta-encoded ``uid``/``conv_id`` and
    a plain ``encoded``: compaction keeps each leaf's rows and does not
    grow its bytes, and encryption keeps the codec."""
    import pyarrow as pa

    from skewer_ray.state.compact import compact_output, leaf_dirs
    from skewer_ray.state.encrypt import (decryption_properties,
                                          encrypt_output)
    t = pq.read_table(ensure_transcripts("/root/testdata/sf0.001"))
    d = tmp_path / "in"
    d.mkdir()
    for k in range(4):      # > min_rows_per_file: leaves of 2 files
        pq.write_table(t, d / f"part-{k}.parquet")
    out = str(tmp_path / "out")
    run_partitioned(str(d), out)
    retry_rejected(out, hooks=_accept_all())

    def leaves():
        return {leaf: [os.path.join(leaf, f) for f in os.listdir(leaf)
                       if f.endswith(".parquet")]
                for leaf in leaf_dirs(out)}

    def rows(files):
        got = pa.concat_tables(pq.ParquetFile(f).read() for f in files)
        return got.sort_by([(c, "ascending") for c in got.column_names])

    before = leaves()
    assert any("/retries/000/" in leaf for leaf in before)
    assert max(len(fs) for fs in before.values()) >= 2
    for fs in before.values():
        for f in fs:
            _assert_sink_encoding(pq.ParquetFile(f).metadata)
    content = {leaf: rows(fs) for leaf, fs in before.items()}
    size = sum(os.path.getsize(f) for fs in before.values() for f in fs)

    compact_output(out)
    after = leaves()
    assert after.keys() == before.keys()
    assert sum(os.path.getsize(f) for fs in after.values()
               for f in fs) <= 1.1 * size
    for leaf, fs in after.items():
        assert rows(fs).equals(content[leaf])
        for f in fs:
            _assert_sink_encoding(pq.ParquetFile(f).metadata)

    secret = b"skewer-master-secret"
    encrypt_output(out, secret)
    for fs in after.values():
        for f in fs:
            _assert_sink_encoding(pq.ParquetFile(
                f, decryption_properties=decryption_properties(
                    secret)).metadata)


def test_prometheus_metrics_export(tmp_path):
    """metrics_export renders the run artifacts as valid Prometheus
    text exposition (counter families mirroring store/store.go:71-85 and
    services/base/metrics.go:19); label values escape quotes/backslashes."""
    import json
    import os

    from skewer_ray.metrics_export import render_prometheus, write_prometheus
    mdir = tmp_path / "metrics"
    os.makedirs(mdir)
    rows = [{"sink": "kafka", "status": "passing", "route": 'we"ird\\r', "n": 7},
            {"sink": "kafka", "status": "dropped", "route": "-", "n": 2},
            {"sink": "file", "status": "passing", "route": "a_b", "n": 3}]
    (mdir / "sink_counts.json").write_text(json.dumps(rows))
    text = render_prometheus(str(tmp_path))
    assert ('skw_routed_messages_total{sink="kafka",status="passing",'
            'route="we\\"ird\\\\r"} 7') in text
    assert 'skw_message_filtering_total{result="passing"} 10' in text
    assert 'skw_message_filtering_total{result="dropped"} 2' in text
    assert text.rstrip().endswith("skw_incoming_messages_total 12")
    # each family announced exactly once, every sample line parseable
    assert text.count("# TYPE skw_routed_messages_total counter") == 1
    p = write_prometheus(str(tmp_path))
    assert open(p).read() == text


def test_watch_run_hot_config_reload(tmp_path, monkeypatch, caplog):
    """Batch SIGHUP (cmd/serve.go:788-827): watch_run re-hashes the TOML
    between passes and rebuilds the pipeline plan exactly when the
    config bytes change; unchanged passes reuse the loaded plan."""
    import pandas as pd

    import skewer_ray.cli as cli

    cfg_path = tmp_path / "pipeline.toml"
    cfg_path.write_text('[[syslog]]\n  port = 1514\n  format = "rfc5424"\n')

    loads, runs = [], []
    monkeypatch.setattr(
        "skewer_ray.toml_config.config_from_toml",
        lambda p: loads.append(p) or {"marker": len(loads)})

    def fake_run(input_dir, out_dir, config=None):
        runs.append(config["marker"])
        # rewrite the config after the FIRST pass → the third pass (the
        # second re-hash) must rebuild
        if len(runs) == 1:
            cfg_path.write_text(
                '[[syslog]]\n  port = 9999\n  format = "rfc3164"\n')
        return pd.DataFrame({"sink": ["kafka"], "status": ["passing"],
                             "n": [1]})

    monkeypatch.setattr("skewer_ray.state.run_partitioned", fake_run)
    caplog.set_level(logging.INFO, logger="skewer_ray.cli")
    agg = cli.watch_run("in", "out", str(cfg_path), interval=0.01,
                        max_passes=3)
    # pass 1 loads plan 1; pass 2 sees the changed hash → plan 2;
    # pass 3 hash unchanged → plan 2 reused (no third load)
    assert runs == [1, 2, 2]
    assert len(loads) == 2
    assert "rebuilding pipeline plan" in caplog.text
    assert list(agg.columns) == ["sink", "status", "n"]


def test_watch_run_pluggable_http_kv_watcher(monkeypatch, caplog):
    """Consul-style key watch (consul/dynamicconf.go) through the
    pluggable watcher: a local HTTP KV endpoint serves the TOML with a
    version header; bumping the key mid-run rebuilds the plan exactly
    once, same as the SIGHUP/file path."""
    import threading
    from http.server import BaseHTTPRequestHandler, HTTPServer

    import pandas as pd

    import skewer_ray.cli as cli

    state = {"index": 1,
             "body": b'[[syslog]]\n  port = 1514\n  format = "rfc5424"\n'}

    class KV(BaseHTTPRequestHandler):
        def log_message(self, *a):
            pass

        def do_GET(self):
            self.send_response(200)
            self.send_header("X-Consul-Index", str(state["index"]))
            self.end_headers()
            self.wfile.write(state["body"])

    srv = HTTPServer(("127.0.0.1", 0), KV)
    th = threading.Thread(target=srv.serve_forever, daemon=True)
    th.start()

    loads, runs = [], []
    monkeypatch.setattr(
        "skewer_ray.toml_config.config_from_toml",
        lambda src: loads.append(src) or {"marker": len(loads)})

    def fake_run(input_dir, out_dir, config=None):
        runs.append(config["marker"])
        if len(runs) == 1:           # bump the KV key after pass 1
            state["index"] = 2
            state["body"] = \
                b'[[syslog]]\n  port = 9999\n  format = "rfc3164"\n'
        return pd.DataFrame({"sink": ["kafka"], "status": ["passing"],
                             "n": [1]})

    monkeypatch.setattr("skewer_ray.state.run_partitioned", fake_run)
    url = f"http://127.0.0.1:{srv.server_address[1]}/v1/kv/skewer/conf"
    caplog.set_level(logging.INFO, logger="skewer_ray.cli")
    agg = cli.watch_run("in", "out", interval=0.01, max_passes=3,
                        watcher=cli.http_kv_watcher(url))
    srv.shutdown()
    srv.server_close()
    # pass 1 loads plan 1; pass 2 sees index 2 → plan 2; pass 3 reuses
    assert runs == [1, 2, 2]
    assert len(loads) == 2
    # the TOML reached the loader as TEXT fetched from the endpoint
    assert loads[1].startswith("[[syslog]]") and "9999" in loads[1]
    assert "rebuilding pipeline plan" in caplog.text
    assert list(agg.columns) == ["sink", "status", "n"]


def test_watch_run_keeps_last_good_plan_on_invalid_config(monkeypatch,
                                                          caplog):
    """A fetched config that fails to load must not kill the watch: the
    pass runs on the last-good plan, and a later valid config (a new
    fingerprint) still reloads."""
    import pandas as pd

    import skewer_ray.cli as cli

    good = '[[syslog]]\n  port = 1514\n  format = "rfc5424"\n'
    fixed = '[[syslog]]\n  port = 9999\n  format = "rfc3164"\n'
    served = iter([("v1", good), ("v2", "[[syslog]\n  port = \n"),
                   ("v3", fixed)])
    runs = []

    def fake_run(input_dir, out_dir, config=None):
        runs.append(config.decoder_for_family[0].format)
        return pd.DataFrame({"sink": ["kafka"], "status": ["passing"],
                             "n": [1]})

    monkeypatch.setattr("skewer_ray.state.run_partitioned", fake_run)
    caplog.set_level(logging.INFO, logger="skewer_ray.cli")
    agg = cli.watch_run("in", "out", interval=0.01, max_passes=3,
                        watcher=lambda: next(served))
    # pass 2 keeps plan 1; pass 3's fixed config reloads
    assert runs == ["rfc5424", "rfc5424", "rfc3164"]
    assert "config v2 rejected" in caplog.text
    assert "keeping current plan" in caplog.text
    assert "config changed (v1 -> v3)" in caplog.text
    assert list(agg.columns) == ["sink", "status", "n"]


def test_watch_run_keeps_last_good_plan_on_sourceless_config(monkeypatch,
                                                              caplog):
    """A fetched config with no source would fail every task of the next
    pass; it is rejected at load, so the watch keeps the old plan."""
    import pandas as pd

    import skewer_ray.cli as cli

    good = '[[syslog]]\n  port = 1514\n  format = "rfc5424"\n'
    served = iter([("v1", good), ("v2", '[kafka]\n  brokers = ["x"]\n')])
    runs = []

    def fake_run(input_dir, out_dir, config=None):
        runs.append([d.format for d in config.decoder_for_family.values()])
        return pd.DataFrame({"sink": ["kafka"], "status": ["passing"],
                             "n": [1]})

    monkeypatch.setattr("skewer_ray.state.run_partitioned", fake_run)
    caplog.set_level(logging.INFO, logger="skewer_ray.cli")
    cli.watch_run("in", "out", interval=0.01, max_passes=2,
                  watcher=lambda: next(served))
    assert runs == [["rfc5424"], ["rfc5424"]]
    assert "config v2 rejected" in caplog.text


def test_sigkill_mid_run_then_resume_matches_clean_run(
        small_input, tmp_path, ray_session):
    """Chaos drill (store/store.go:887-941 recovery): SIGKILL the
    process the instant the FIRST file manifest lands — the group is
    written, but files 1/2 have no manifest, so the group is not acked.
    A resume must drop the group with its one manifest, redo all three
    files, and end with counts identical to a clean run."""
    import signal
    import subprocess
    import sys

    out = str(tmp_path / "out")
    child = tmp_path / "die_after_first_manifest.py"
    child.write_text(f"""
import os, signal, sys
sys.path.insert(0, {repr(os.getcwd())})
import ray
ray.init(address="local", num_cpus=4, include_dashboard=False,
         logging_level="ERROR")
import skewer_ray.state.manifest as M
_orig = M._write_manifest
def dying(out_dir, m):
    _orig(out_dir, m)
    os.kill(os.getpid(), signal.SIGKILL)   # no cleanup, no atexit
M._write_manifest = dying
from skewer_ray.state import run_partitioned
run_partitioned({repr(small_input)}, {repr(out)})
""")
    proc = subprocess.run([sys.executable, str(child)],
                          capture_output=True, timeout=300)
    assert proc.returncode == -signal.SIGKILL

    # exactly one durable manifest; the group's data is written (sent,
    # never acked)
    ms = load_manifests(out)
    assert sorted(ms) == [0]
    assert os.path.isdir(os.path.join(out, "data", "group=0"))

    # resume: the whole group redone
    metrics = run_partitioned(small_input, out)
    ms = load_manifests(out)
    assert sorted(ms) == [0, 1, 2]
    assert {m.group for m in ms.values()} == {0}
    agg = metrics.groupby(["sink", "status"])["n"].sum().to_dict()
    assert agg[("kafka", "passing")] == 5417
    assert agg[("file", "dropped")] == 500
    assert agg[("stderr", "rejected")] == 78
    assert agg[("_parse", "error")] == 11
    assert sum(m.n_in for m in ms.values()) == 6006


def test_incremental_ingest_new_file_sorting_first(
        small_input, tmp_path, ray_session):
    """Incremental ingestion (the batch tail -f): a file that arrives
    AFTER the first run — and sorts BEFORE every existing input — must
    be processed as a NEW file in a new group while the acked group of
    the three manifested files is skipped untouched. An index-keyed resume gets this
    wrong (the new file would inherit part 0's done-ness)."""
    out = str(tmp_path / "out")
    m1 = run_partitioned(small_input, out)
    assert sorted(load_manifests(out)) == [0, 1, 2]

    # new arrival, name chosen to sort FIRST in the listing
    first = sorted(os.listdir(small_input))[0]
    t = pq.read_table(os.path.join(small_input, first))
    newfile = os.path.join(small_input, "aaa-new-arrival.parquet")
    pq.write_table(t.slice(0, 500), newfile)

    done_dir = os.path.join(out, "data", "group=0")
    mtimes_before = _file_mtimes(done_dir)
    m2 = run_partitioned(small_input, out)
    ms = load_manifests(out)
    # old parts untouched, the new file landed as part 3 in group 1
    assert sorted(ms) == [0, 1, 2, 3]
    assert ms[3].input_file == newfile and ms[3].n_in == 500
    assert ms[3].group == 1 and ms[3].group_size == 1
    assert {os.path.basename(ms[i].input_file) for i in (0, 1, 2)} \
        == {os.path.basename(f) for f in sorted(os.listdir(small_input))
            if f != "aaa-new-arrival.parquet"}
    assert _file_mtimes(done_dir) == mtimes_before
    # totals = first-run totals + the new partition's own counts
    a1 = m1.groupby(["sink", "status"])["n"].sum().to_dict()
    a2 = m2.groupby(["sink", "status"])["n"].sum().to_dict()
    new_only = m2[m2["part_id"] == 3] \
        .groupby(["sink", "status"])["n"].sum().to_dict()
    assert sum(new_only.values()) > 0
    for k, v in a2.items():
        assert v == a1.get(k, 0) + new_only.get(k, 0)


def test_cli_watch_url_flag(monkeypatch, capsys):
    """`run --watch-url` drives watch_run through the HTTP KV watcher
    end-to-end from the CLI surface (no --config file needed)."""
    import threading
    from http.server import BaseHTTPRequestHandler, HTTPServer

    import pandas as pd

    import skewer_ray.cli as cli

    class KV(BaseHTTPRequestHandler):
        def log_message(self, *a):
            pass

        def do_GET(self):
            self.send_response(200)
            self.send_header("X-Consul-Index", "7")
            self.end_headers()
            self.wfile.write(b'[[syslog]]\n  format = "rfc5424"\n')

    srv = HTTPServer(("127.0.0.1", 0), KV)
    th = threading.Thread(target=srv.serve_forever, daemon=True)
    th.start()

    loads = []
    monkeypatch.setattr("skewer_ray.toml_config.config_from_toml",
                        lambda src: loads.append(src) or {"m": 1})
    monkeypatch.setattr(
        "skewer_ray.state.run_partitioned",
        lambda *a, **k: pd.DataFrame(
            {"sink": ["kafka"], "status": ["passing"], "n": [1]}))
    monkeypatch.setattr(cli, "_ensure_ray", lambda n: None)
    url = f"http://127.0.0.1:{srv.server_address[1]}/kv/conf"
    rc = cli.main(["run", "--input", "in", "--out", "/tmp/wout",
                   "--watch-url", url, "--watch-interval", "0.01",
                   "--watch-passes", "2"])
    srv.shutdown()
    srv.server_close()
    assert rc == 0
    assert len(loads) == 1 and loads[0].startswith("[[syslog]]")
    assert "kafka" in capsys.readouterr().out


def test_encrypt_output_roundtrip_and_refusal(
        small_input, tmp_path, ray_session):
    """At-rest encryption (the encrypted-store analogue): after
    encrypt_output, every data file of the run and of its retry
    attempts refuses a plain read, decrypts byte-identically under the
    right secret, rejects a wrong secret, and a second pass is an
    idempotent no-op."""
    import pyarrow as pa
    import pytest as _pytest

    from skewer_ray.state.encrypt import (encrypt_output, is_encrypted,
                                          read_encrypted)

    out = str(tmp_path / "out")
    run_partitioned(small_input, out)
    retry_rejected(out)           # default filter: rejected again
    files = sorted(
        os.path.join(r, f)
        for r, _d, fs in os.walk(out)
        for f in fs if f.endswith(".parquet"))
    assert any("/retries/000/data/" in p for p in files)
    plain = {p: pq.read_table(p) for p in files}

    secret = b"skewer-master-secret"
    rep = encrypt_output(out, secret)
    assert rep == {"encrypted": len(files), "skipped": 0}

    for p in files:
        assert is_encrypted(p)
        with _pytest.raises(OSError):
            pq.read_table(p)                      # no key → refused
        got = read_encrypted(p, secret)
        assert got.equals(plain[p])               # exact roundtrip
        with _pytest.raises((ValueError, OSError)):
            read_encrypted(p, b"wrong-secret")

    # idempotent resume: nothing re-encrypted
    rep2 = encrypt_output(out, secret)
    assert rep2 == {"encrypted": 0, "skipped": len(files)}


def test_encrypted_out_dir_refuses_retry_and_compaction(
        small_input, tmp_path, ray_session):
    """Retry and compaction read plain Parquet: on an encrypted out dir
    both refuse with a ValueError naming a file, before they write
    anything. A run that adds a file still acks it, since the ledger
    reads no written file."""
    from skewer_ray.state.compact import compact_output
    from skewer_ray.state.encrypt import encrypt_output

    names = sorted(os.listdir(small_input))
    arrive = _hold_back(small_input, names[-1:], tmp_path)
    out = str(tmp_path / "out")
    run_partitioned(small_input, out)
    encrypt_output(out, b"skewer-master-secret")

    def leaf_bytes():
        out_files = [os.path.join(r, f) for r, _d, fs in os.walk(out)
                     for f in fs if f.endswith(".parquet")]
        return {f: pathlib.Path(f).read_bytes() for f in out_files}

    before = leaf_bytes()
    with pytest.raises(ValueError, match=r"\.parquet is encrypted"):
        retry_rejected(out, hooks=_accept_all())
    with pytest.raises(ValueError, match=r"\.parquet is encrypted"):
        compact_output(out)
    assert not os.path.exists(os.path.join(out, "retries"))
    assert leaf_bytes() == before

    arrive()
    run_partitioned(small_input, out)
    ms = load_manifests(out)
    assert sorted(ms) == [0, 1, 2] and ms[2].group == 1
    clean = str(tmp_path / "clean")
    run_partitioned(small_input, clean)
    assert _sink_counts(out) == _sink_counts(clean)
