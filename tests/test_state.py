"""Lineage manifests, idempotent resume, quarantine retry
(skewer_ray.state — the badger-store ACK/NACK accounting analogue,
store/store.go:1326-1471, 887-941)."""

from __future__ import annotations

import json
import os
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
    # both run paths write the same metrics artifact, record for record
    from skewer_ray.pipelines.flagship import run_flagship
    flat = str(tmp_path / "flat")
    run_flagship(small_input, flat)

    def sink_counts(d):
        with open(os.path.join(d, "metrics", "sink_counts.json")) as fh:
            return json.load(fh)
    assert sink_counts(out) == sink_counts(flat)
    assert not os.path.exists(os.path.join(flat, "metrics", "summary.json"))


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


def test_resume_skips_done_and_redoes_orphans(small_input, tmp_path, ray_session):
    out = str(tmp_path / "out")
    m1 = run_partitioned(small_input, out)
    # simulate a crash on partition 1: manifest lost, data half-written
    os.remove(os.path.join(out, "_lineage", "part-00001.json"))
    part_dir = os.path.join(out, "data", "part_id=1")
    shutil.rmtree(os.path.join(part_dir, "sink=stderr"))  # partial output

    done_file = os.path.join(out, "data", "part_id=0")
    mtime_before = max(os.path.getmtime(os.path.join(r, f))
                       for r, _d, fs in os.walk(done_file) for f in fs)
    m2 = run_partitioned(small_input, out)
    # part 0 untouched (resume skipped it)
    mtime_after = max(os.path.getmtime(os.path.join(r, f))
                      for r, _d, fs in os.walk(done_file) for f in fs)
    assert mtime_after == mtime_before
    # part 1 fully rebuilt, totals identical to the first run
    assert os.path.isdir(os.path.join(part_dir, "sink=stderr"))
    a1 = m1.groupby(["sink", "status"])["n"].sum().to_dict()
    a2 = m2.groupby(["sink", "status"])["n"].sum().to_dict()
    assert a1 == a2


def test_manifest_without_route_reads_as_dash(small_input, tmp_path,
                                              ray_session):
    """A manifest from before counts carried the route has "sink/status"
    keys: the reduce reads them as route "-", totals unchanged."""
    out = str(tmp_path / "out")
    m1 = run_partitioned(small_input, out)
    path = os.path.join(out, "_lineage", "part-00000.json")
    with open(path) as fh:
        m = json.load(fh)
    legacy = {}
    for key, n in m["counts"].items():
        sink_status = "/".join(key.split("/", 2)[:2])
        legacy[sink_status] = legacy.get(sink_status, 0) + n
    m["counts"] = legacy
    with open(path, "w") as fh:
        json.dump(m, fh)
    m2 = run_partitioned(small_input, out)
    assert set(m2[m2["part_id"] == 0]["route"]) == {"-"}
    assert (m1.groupby(["sink", "status"])["n"].sum().to_dict()
            == m2.groupby(["sink", "status"])["n"].sum().to_dict())


def test_manifest_atomicity_no_tmp_left(small_input, tmp_path, ray_session):
    out = str(tmp_path / "out")
    run_partitioned(small_input, out)
    lineage = os.path.join(out, "_lineage")
    assert not [f for f in os.listdir(lineage) if f.endswith(".tmp")]
    with open(os.path.join(lineage, "part-00000.json")) as fh:
        m = json.load(fh)
    assert m["status"] == "done"
    assert m["n_in"] > 0 and sum(m["counts"].values()) > 0


def test_retry_rejected_delivers_with_fixed_filter(small_input, tmp_path, ray_session):
    out = str(tmp_path / "out")
    metrics = run_partitioned(small_input, out)
    n_rej = metrics[(metrics.sink == "kafka")
                    & (metrics.status == "rejected")]["n"].sum()
    assert n_rej == 78

    # operator "fixes" the filter: accept everything now
    from skewer_ray.config import HookSet, default_topic_fn
    fixed = HookSet(topic_fn=default_topic_fn,
                    partition_key_tmpl="pk-{hostname}",
                    filter_fn=lambda rec: (FILTER_PASS, None))
    n = retry_rejected(out, hooks=fixed)
    # every quarantined turn re-delivered to all 3 sinks
    assert n == 78 * 3
    retry_dir = os.path.join(out, "retries", "000")
    assert os.path.isfile(os.path.join(retry_dir, "_manifest.json"))


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


def test_watch_run_hot_config_reload(tmp_path, monkeypatch, capsys):
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
    agg = cli.watch_run("in", "out", str(cfg_path), interval=0.01,
                        max_passes=3)
    # pass 1 loads plan 1; pass 2 sees the changed hash → plan 2;
    # pass 3 hash unchanged → plan 2 reused (no third load)
    assert runs == [1, 2, 2]
    assert len(loads) == 2
    assert "rebuilding pipeline plan" in capsys.readouterr().out
    assert list(agg.columns) == ["sink", "status", "n"]


def test_watch_run_pluggable_http_kv_watcher(monkeypatch, capsys):
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
    agg = cli.watch_run("in", "out", interval=0.01, max_passes=3,
                        watcher=cli.http_kv_watcher(url))
    srv.shutdown()
    srv.server_close()
    # pass 1 loads plan 1; pass 2 sees index 2 → plan 2; pass 3 reuses
    assert runs == [1, 2, 2]
    assert len(loads) == 2
    # the TOML reached the loader as TEXT fetched from the endpoint
    assert loads[1].startswith("[[syslog]]") and "9999" in loads[1]
    assert "rebuilding pipeline plan" in capsys.readouterr().out
    assert list(agg.columns) == ["sink", "status", "n"]


def test_watch_run_keeps_last_good_plan_on_invalid_config(monkeypatch,
                                                          capsys):
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
    agg = cli.watch_run("in", "out", interval=0.01, max_passes=3,
                        watcher=lambda: next(served))
    # pass 2 keeps plan 1; pass 3's fixed config reloads
    assert runs == ["rfc5424", "rfc5424", "rfc3164"]
    out = capsys.readouterr().out
    assert "config v2 rejected" in out and "keeping current plan" in out
    assert "config changed (v1 -> v3)" in out
    assert list(agg.columns) == ["sink", "status", "n"]


def test_sigkill_mid_run_then_resume_matches_clean_run(
        small_input, tmp_path, ray_session):
    """Chaos drill (store/store.go:887-941 recovery): SIGKILL the
    process the instant the FIRST partition manifest lands — partition
    0 is durably acked, partitions 1/2 are written-but-unmanifested
    orphans. A resume must skip part 0 untouched, drop + redo the
    orphans, and end with counts identical to a clean run."""
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

    # exactly one durable manifest; the other partitions left orphan
    # data dirs (sent, never acked)
    ms = load_manifests(out)
    assert sorted(ms) == [0]
    lineage0 = os.path.join(out, "_lineage", "part-00000.json")
    before = open(lineage0).read()
    assert os.path.isdir(os.path.join(out, "data", "part_id=1"))

    # resume: part 0 skipped byte-identical, orphans redone
    metrics = run_partitioned(small_input, out)
    ms = load_manifests(out)
    assert sorted(ms) == [0, 1, 2]
    assert open(lineage0).read() == before
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
    be processed as a NEW partition while the three manifested
    partitions are skipped untouched. An index-keyed resume gets this
    wrong (the new file would inherit part 0's done-ness)."""
    out = str(tmp_path / "out")
    m1 = run_partitioned(small_input, out)
    assert sorted(load_manifests(out)) == [0, 1, 2]

    # new arrival, name chosen to sort FIRST in the listing
    first = sorted(os.listdir(small_input))[0]
    t = pq.read_table(os.path.join(small_input, first))
    newfile = os.path.join(small_input, "aaa-new-arrival.parquet")
    pq.write_table(t.slice(0, 500), newfile)

    done_dir = os.path.join(out, "data", "part_id=0")
    mtime_before = max(os.path.getmtime(os.path.join(r, f))
                       for r, _d, fs in os.walk(done_dir) for f in fs)
    m2 = run_partitioned(small_input, out)
    ms = load_manifests(out)
    # old parts untouched, the new file landed as part 3
    assert sorted(ms) == [0, 1, 2, 3]
    assert ms[3].input_file == newfile and ms[3].n_in == 500
    assert {os.path.basename(ms[i].input_file) for i in (0, 1, 2)} \
        == {os.path.basename(f) for f in sorted(os.listdir(small_input))
            if f != "aaa-new-arrival.parquet"}
    mtime_after = max(os.path.getmtime(os.path.join(r, f))
                      for r, _d, fs in os.walk(done_dir) for f in fs)
    assert mtime_after == mtime_before
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
    encrypt_output, every data file refuses a plain read, decrypts
    byte-identically under the right secret, rejects a wrong secret,
    and a second pass is an idempotent no-op."""
    import pyarrow as pa
    import pytest as _pytest

    from skewer_ray.state.encrypt import (encrypt_output, is_encrypted,
                                          read_encrypted)

    out = str(tmp_path / "out")
    run_partitioned(small_input, out)
    files = sorted(
        os.path.join(r, f)
        for r, _d, fs in os.walk(os.path.join(out, "data"))
        for f in fs if f.endswith(".parquet"))
    assert files
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
