"""Hand-written expected-output fixtures for SHARED-RULE operators
(ADVICE r02): several DuckDB oracles are generated from the same rule
tables as the engine (pii_rules_sql, mask_rules_sql, expand_grok,
kmv_estimate, multiline START_RE, the LSH_SEED plane matrix), so the
oracle gate proves execution, not the rules. These fixtures pin the
rule OUTPUTS independently — a spec-level edit to a shared rule breaks
here even though engine and oracle would still agree with each other."""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def test_pii_chain_hand_fixtures():
    from skewer_ray.functions.anonymize import scrub_pii
    cases = {
        "mail bob.smith+x@corp.example.co from 10.1.2.3 call +33612345678":
            "mail <EMAIL> from <IP> call <PHONE>",
        "no pii here": "no pii here",
        "a@b.io and 255.255.255.255": "<EMAIL> and <IP>",
        # order matters: the email rule must eat the address BEFORE the
        # ip rule could chew on dotted fragments
        "x y@z.company 1.2.3.4": "x <EMAIL> <IP>",
        # phone requires leading + and 7..15 digits
        "+123456 short": "+123456 short",
    }
    got = scrub_pii(pa.array(list(cases))).to_pylist()
    assert got == list(cases.values())


def test_mask_chain_hand_fixtures():
    from skewer_ray.functions.templates import mask_templates
    cases = {
        '2024-01-02T03:04:05.123Z GET "us" deadbeef99 42 items':
            '<TS> GET <STR> <HEX> <N> items',
        'Jan  2 15:04:05 host cron[123]: run 7':
            '<TS> host cron[<N>]: run <N>',
        'plain words only': 'plain words only',
        # digit-only runs are <N>; hex runs need a letter AND ≥8 chars
        # (shorter "cafe42" keeps its letters, digits still mask)
        'id 1234567890 code cafebabe42 tag cafe42':
            'id <N> code <HEX> tag cafe<N>',
    }
    got = mask_templates(pa.array(list(cases))).to_pylist()
    assert got == list(cases.values())


def test_grok_expand_hand_fixture():
    from skewer_ray.functions.grok import expand_grok
    rx, fields = expand_grok(
        "%{LOGLEVEL:level} %{IPV4:ip} took %{INT:ms}ms")
    assert fields == ["level", "ip", "ms"]
    import re
    m = re.match(rx, "WARN 10.0.0.7 took 123ms")
    assert m and m.group("level") == "WARN"
    assert m.group("ip") == "10.0.0.7" and m.group("ms") == "123"
    assert re.match(rx, "LOUD 10.0.0.7 took 1ms") is None


def test_kmv_estimator_hand_fixture():
    """Below k → exact count; at k the estimate is (k-1)/kth_fraction —
    checked against a hand-built hash list where the kth 15-hex-digit
    prefix is exactly 0.5 of the hash space."""
    from skewer_ray.functions.sketches import KMV_K, kmv_estimate
    assert kmv_estimate(["a", "b", "c"]) == 3.0
    top = [f"{i:015x}" for i in range(1, KMV_K)] + \
        ["800000000000000"]  # kth prefix = 0x8.. = 0.5 exactly
    assert kmv_estimate(top) == round((KMV_K - 1) / 0.5, 6) == 510.0


def test_multiline_rule_hand_fixture(ray_session):
    """START_RE = '^<digit': records reassemble exactly as hand-derived,
    including a leading continuation with no opener (island 0)."""
    import ray.data as rd
    from skewer_ray.functions.multiline import merge_multiline

    lines = ["  at java.lang.Foo",         # leading orphan continuation
             "<13>boom",
             "  at a.b.c",
             "  at d.e.f",
             "<14>ok",
             "<15>trace:",
             "\tcaused by"]
    tbl = pa.table({
        "conv_id": pa.array(["s"] * len(lines)),
        "turn_idx": pa.array(range(len(lines)), pa.int32()),
        "text": pa.array(lines)})
    out = {(r["conv_id"], r["rec_idx"]): (r["n_lines"], r["record"])
           for r in merge_multiline(rd.from_arrow(tbl)).take_all()}
    assert out == {
        ("s", 0): (1, "  at java.lang.Foo"),
        ("s", 1): (3, "<13>boom\n  at a.b.c\n  at d.e.f"),
        ("s", 2): (1, "<14>ok"),
        ("s", 3): (2, "<15>trace:\n\tcaused by"),
    }


def test_lsh_plane_buckets_pinned():
    """Golden bucket ids for the (LSH_SEED, dim=64) hyperplane matrix:
    any change to seed, plane count, generator or sign rule moves these
    values (which would silently re-bucket both engine and oracle)."""
    from skewer_ray.functions.similarity import (LSH_PLANES, LSH_SEED,
                                                 _bucket_of)
    rng = np.random.default_rng(LSH_SEED)
    planes = rng.standard_normal((LSH_PLANES, 64))
    v1 = np.zeros((1, 64)); v1[0, 0] = 1.0
    v2 = np.ones((1, 64)) / 8.0
    v3 = np.arange(64, dtype=float).reshape(1, 64) / 64.0
    assert LSH_PLANES == 6 and LSH_SEED == 42
    assert [int(_bucket_of(v, planes)[0]) for v in (v1, v2, v3)] == \
        [51, 49, 53]
