"""End-to-end pipeline tests on Ray (session fixture) — the three
north-star invariants (BASELINE.json):

1. per-turn encoded text byte equality under stable (conv_id, turn_idx)
   ordering,
2. per-sink aggregate row counts,
3. routed-row (uid) set equality per sink.
"""

import collections
import json

import pyarrow.compute as pc
import pytest

from skewer_ray.config import default_config
from skewer_ray.gen import (FAMILY_NAMES, family_of_conv, generate_table,
                            generate_skew_table)
from skewer_ray.pipelines.flagship import build_fanout, read_transcripts
from skewer_ray.stages import (EnrichStage, FanoutEncodeStage, ParseStage,
                               RouterStage)

N = 1200


@pytest.fixture(scope="module")
def fanout_table():
    cfg = default_config()
    t = generate_table(N)
    r = RouterStage(cfg.hooks)(
        EnrichStage(cfg.role_lookup, cfg.tool_lookup)(
            ParseStage(cfg.decoder_for_family,
                       custom_parsers=cfg.custom_parsers)(t)))
    return t, FanoutEncodeStage(cfg.sinks)(r)


def test_sink_row_sets_equal(fanout_table):
    _, f = fanout_table
    uid_sets = {}
    for sink in ("kafka", "file", "stderr"):
        m = pc.and_(pc.equal(f["sink"], sink), pc.equal(f["status"], "passing"))
        uid_sets[sink] = set(f.filter(m)["uid"].to_pylist())
    assert uid_sets["kafka"] == uid_sets["file"] == uid_sets["stderr"]
    assert len(uid_sets["kafka"]) > 0


def test_per_sink_counts_match(fanout_table):
    _, f = fanout_table
    counts = collections.Counter(
        zip(f["sink"].to_pylist(), f["status"].to_pylist()))
    per_sink = {}
    for (sink, status), n in counts.items():
        if sink != "_parse":
            per_sink.setdefault(sink, {})[status] = n
    assert per_sink["kafka"] == per_sink["file"] == per_sink["stderr"]


def test_byte_equality_under_stable_order(fanout_table):
    t, f = fanout_table
    orig = {(c, i): x for c, i, x in zip(t["conv_id"].to_pylist(),
                                         t["turn_idx"].to_pylist(),
                                         t["text"].to_pylist())}
    m = pc.and_(pc.equal(f["sink"], "kafka"), pc.equal(f["status"], "passing"))
    fk = f.filter(m).sort_by([("conv_id", "ascending"),
                              ("turn_idx", "ascending")])
    checked = 0
    for c, i, enc in zip(fk["conv_id"].to_pylist(), fk["turn_idx"].to_pylist(),
                         fk["encoded"].to_pylist()):
        if family_of_conv(int(c[5:])) != 0:
            continue
        exp = orig[(c, i)]
        k = exp.find(" id")
        exp = exp[:k + 1] + "ID" + exp[k + 3:]  # filter hook msgid mutation
        assert enc == exp
        checked += 1
    assert checked > 20


def test_all_families_present(fanout_table):
    t, _ = fanout_table
    fams = {family_of_conv(int(c[5:])) for c in t["conv_id"].to_pylist()}
    assert fams == set(range(len(FAMILY_NAMES)))


def test_fanout_output_independent_of_batch_size():
    """No stage carries state across the rows of a batch: the fused
    chain over the same rows, cut into 1,000-, 8,192- and PARSE_BATCH-
    row batches, gives the same fan-out rows once sorted. This is what
    makes PARSE_BATCH safe to change."""
    import pyarrow as pa

    from skewer_ray.pipelines.flagship import PARSE_BATCH, _specs
    from skewer_ray.stages.fused import FusedStage

    chain = FusedStage(_specs(default_config()))
    t = generate_table(6000)
    keys = [("uid", "ascending"), ("sink", "ascending"),
            ("status", "ascending")]
    outs = []
    for size in (1000, 8192, PARSE_BATCH):
        parts = [chain(t.slice(off, size))
                 for off in range(0, t.num_rows, size)]
        outs.append(pa.concat_tables(parts).sort_by(keys))
    assert set(outs[0]["sink"].to_pylist()) == {
        "kafka", "file", "stderr", "_parse"}
    assert outs[0].equals(outs[1]) and outs[0].equals(outs[2])


def test_parse_and_fanout_outputs_are_contiguous():
    """ParseStage and FanoutEncodeStage hand one chunk per column across
    the stage boundary, also for a multi-chunk input batch: downstream
    regex kernels then compile once per call, and the partitioned write
    gets one record batch."""
    import pyarrow as pa

    from skewer_ray.pipelines.flagship import _specs
    from skewer_ray.stages.fused import FusedStage

    specs = _specs(default_config())
    t = generate_table(6000)
    for batch in (t, pa.concat_tables([t.slice(0, 2500), t.slice(2500)])):
        parsed = FusedStage(specs[:1])(batch)
        routed = FusedStage(specs[1:3])(parsed)
        fanned = FusedStage(specs[3:])(routed)
        for out in (parsed, fanned):
            assert out.num_rows and all(
                c.num_chunks == 1 for c in out.columns), out.schema


def test_skew_table_shape():
    t = generate_skew_table(2000, hot_fraction=0.5)
    cnt = collections.Counter(t["conv_id"].to_pylist())
    assert cnt["conv-00000000"] >= 999
    # keys unique
    keys = list(zip(t["conv_id"].to_pylist(), t["turn_idx"].to_pylist()))
    assert len(keys) == len(set(keys))


@pytest.mark.usefixtures("ray_session")
def test_ray_end_to_end(tmp_path):
    import pyarrow.parquet as pq
    t = generate_table(N)
    src = tmp_path / "transcripts"
    src.mkdir()
    pq.write_table(t, src / "part-0.parquet")
    fan = build_fanout(read_transcripts(str(src)))
    counts = collections.Counter()
    for batch in fan.iter_batches(batch_size=4096, batch_format="pyarrow"):
        for s, st in zip(batch["sink"].to_pylist(), batch["status"].to_pylist()):
            counts[(s, st)] += 1
    # identical per-sink tallies through the real Ray execution
    assert counts[("kafka", "passing")] == counts[("file", "passing")] \
        == counts[("stderr", "passing")] > 0
    assert counts[("kafka", "dropped")] == counts[("file", "dropped")]
    total = sum(counts.values())
    per_msg = counts[("_parse", "error")] + counts[("kafka", "passing")] \
        + counts[("kafka", "dropped")] + counts[("kafka", "rejected")]
    assert per_msg == t.num_rows  # every turn accounted for exactly once
    assert total == 3 * (per_msg - counts[("_parse", "error")]) \
        + counts[("_parse", "error")]


def test_cli_run_and_counts(tmp_path, ray_session, capsys):
    """CLI smoke: run → counts → retry over sf0.001 (cmd/serve.go
    equivalent surface). Reuses the session Ray (guarded init)."""
    from skewer_ray.cli import main
    out = str(tmp_path / "cli_out")
    rc = main(["run", "--input", "/root/testdata/sf0.001", "--out", out])
    assert rc == 0
    assert (tmp_path / "cli_out" / "metrics" / "sink_counts.json").exists()
    capsys.readouterr()
    rc = main(["counts", "--out", out])
    assert rc == 0
    recs = json.loads(capsys.readouterr().out)
    assert recs and all(set(r) == {"sink", "status", "route", "n"}
                        for r in recs)
    # the run's metrics carry real routes (kafka topics)
    assert {r["route"] for r in recs if r["sink"] == "kafka"} - {"-"}
    rc = main(["retry", "--out", out])
    assert rc == 0


def test_cli_test_mode(ray_session, capsys):
    """`run --test` prints collected records instead of delivering
    (skewer serve --test parity, README.md:143-145)."""
    from skewer_ray.cli import main
    rc = main(["run", "--input", "/root/testdata/sf0.001", "--test",
               "--test-rows", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "conv_id" in out and "topic" in out
    assert len(out.strip().splitlines()) >= 5
