"""Tests of the benchmark itself: its input generator, its TOML workload
config and its oracle check.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), HERE]

import pyarrow.compute as pc  # noqa: E402
import pytest  # noqa: E402

import inputs  # noqa: E402
import oracle  # noqa: E402
from layertrace import Chain, Tracer  # noqa: E402
from skewer_ray.config import default_config  # noqa: E402
from skewer_ray.gen import conv_index, family_of_conv  # noqa: E402
from skewer_ray.toml_config import config_from_toml  # noqa: E402
from workloads import HOOKS_TOML  # noqa: E402


def _families(table) -> Counter:
    return Counter(family_of_conv(conv_index(c))
                   for c in table["conv_id"].to_pylist())


def test_generator_is_deterministic_per_seed():
    assert inputs.make_table(7, 3_000).equals(inputs.make_table(7, 3_000))


def test_seeds_keep_the_family_mix_and_change_every_text():
    a, b = inputs.make_table(1, 3_000), inputs.make_table(2, 3_000)
    assert a.num_rows == b.num_rows
    assert _families(a) == _families(b)
    assert len(_families(a)) == 12
    assert a["turn_idx"].equals(b["turn_idx"])
    fams = [family_of_conv(conv_index(c)) for c in a["conv_id"].to_pylist()]
    same = [f for f, x, y in zip(fams, a["text"].to_pylist(),
                                 b["text"].to_pylist()) if x == y]
    # only lines without a conversation in them: degenerate, malformed JSON
    assert set(same) == {4, 5}


def test_input_dir_must_not_read_as_a_scale_factor(tmp_path):
    with pytest.raises(ValueError):
        inputs.write_inputs(str(tmp_path / "sf0.1"), 0, 100, 1)


def _fanout(config, table):
    return Chain(config).run(Tracer(False), table)


def test_toml_hooks_config_matches_the_default_config():
    """Same per-(sink, status, route) counts and encoded bytes, although
    every row goes through the per-row Python hooks."""
    table = inputs.make_table(3, 20_000)
    toml_cfg = config_from_toml(HOOKS_TOML)
    assert len(toml_cfg.hooks) == 13  # 12 sections + the fallback
    assert Chain(toml_cfg).per_row and not Chain(default_config()).per_row
    keys = ["sink", "status", "route", "uid", "encoded"]
    want = _fanout(default_config(), table).select(keys)
    got = _fanout(toml_cfg, table).select(keys)
    order = [(k, "ascending") for k in keys[:4]]
    assert got.sort_by(order).equals(want.sort_by(order))
    assert pc.count(want["encoded"]).as_py() > 0


@pytest.fixture(scope="module")
def small_input(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs") / "transcripts"
    inputs.write_inputs(str(d), 5, 4_000, 2)
    return str(d)


def _write_counts(out_dir, table) -> None:
    """A job's ``metrics/sink_counts.json`` (flagship layout) from a
    fan-out table."""
    rows = (table.group_by(["sink", "status", "route"])
            .aggregate([("uid", "count")]).to_pylist())
    os.makedirs(os.path.join(out_dir, "metrics"))
    with open(os.path.join(out_dir, "metrics", "sink_counts.json"), "w") as fh:
        json.dump([{"sink": r["sink"], "status": r["status"],
                    "route": r["route"], "n": r["uid_count"]} for r in rows],
                  fh)


def test_oracle_accepts_correct_counts_and_fails_one_off(small_input,
                                                         tmp_path):
    import pyarrow.parquet as pq
    expected = oracle.expected_counts(small_input)
    assert oracle.rejected(expected) > 0
    table = pq.read_table(small_input)
    _write_counts(str(tmp_path / "good"), _fanout(default_config(), table))
    assert oracle.mismatches(expected,
                             oracle.written_counts(str(tmp_path / "good"))) == []

    for key in expected:
        off = dict(expected)
        off[key] += 1
        assert oracle.mismatches(expected, off), key
    missing = {k: v for k, v in expected.items() if k != ("_parse", "error")}
    assert oracle.mismatches(expected, missing)
