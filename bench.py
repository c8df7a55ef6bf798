"""Benchmark harness for the skewer_ray pipeline (driver contract).

Default: run the headline pipelines over $GRAFT_SF_DIR (default
/root/testdata/sf0.1) with ray.init(address="local",
num_cpus=$RAY_GRAFT_CPUS or 32) and print ONE JSON line:

    {"metric": "...", "value": <total sec>, "unit": "sec",
     "queries": {...}, "sf": ..., "num_cpus": N, "turns_per_sec": ...}

--scaling: run the flagship pipeline at N and 4N CPUs (default 4→16)
in FRESH ray.init processes on the same input — 3 interleaved rounds,
median per-round efficiency (thr_4N/thr_N)/4 — the sandbox evidence
for the north rule's N→4N-node criterion (no real cluster here).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

DEFAULT_SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
DEFAULT_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))


def _init_ray(num_cpus: int):
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus,
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False


def _warmup(num_cpus: int):
    """Spin up the worker pool and preload the package in every worker so
    timings measure the pipeline, not process cold start."""
    import ray.data as rd

    def warm(b):
        import skewer_ray.stages.fused  # noqa: F401
        import skewer_ray.config  # noqa: F401
        return b

    (rd.range(num_cpus * 8, override_num_blocks=num_cpus * 8)
     .map_batches(warm, batch_size=1).materialize())


def _consume(ds) -> int:
    """Drain a Dataset through the streaming executor; return row count."""
    total = 0
    for b in ds.iter_batches(batch_format="pyarrow", batch_size=32768):
        total += b.num_rows
    return total


def _count_turns(sf_dir: str) -> int:
    import pyarrow.parquet as pq
    from skewer_ray.gen import ensure_transcripts
    path = ensure_transcripts(sf_dir)
    total = 0
    for f in os.listdir(path):
        if f.endswith(".parquet"):
            total += pq.ParquetFile(os.path.join(path, f)).metadata.num_rows
    return total


def bench_flagship(sf_dir: str, num_cpus: int,
                   passes: int = 3) -> tuple[float, int]:
    """Headline: parse→enrich→route→fanout→per-sink counts (turns/sec).

    Steady-state protocol: one UNTIMED pass spawns/warms every worker
    kind (read + map) and the plasma arena, then the MEDIAN of 3 timed
    passes is reported. First-pass fixed costs (~2 s regardless of
    width) measure process startup, not the pipeline, and — being a
    larger fraction of the faster arm's wall time — systematically
    deflate measured N→4N efficiency."""
    import statistics
    import ray.data as rd
    from skewer_ray.gen import ensure_transcripts
    from skewer_ray.pipelines.flagship import build_fanout, sink_counts
    n_turns = _count_turns(sf_dir)
    path = ensure_transcripts(sf_dir)
    cols = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]

    def one_pass() -> float:
        t0 = time.perf_counter()
        # fixed block count (not cpus*k): both scaling arms see
        # identical task granularity, so the comparison isolates
        # parallelism
        ds = rd.read_parquet(path, columns=cols, override_num_blocks=128)
        counts = sink_counts(build_fanout(ds)).to_pandas()
        assert len(counts) > 0
        return time.perf_counter() - t0

    one_pass()  # warm (untimed)
    dt = statistics.median(one_pass() for _ in range(passes))
    return dt, n_turns


def bench_queries(sf_dir: str) -> dict[str, float]:
    """Secondary per-pipeline timings (a representative subset)."""
    from skewer_ray.pipelines import queries as q
    out: dict[str, float] = {}
    subset = [
        ("parse_rfc5424", q.q_parse_rfc5424),
        ("parse_rfc3164", q.q_parse_rfc3164),
        ("route_topics", q.q_route_topics),
        ("sink_counts", q.q_sink_counts),
        ("encode_rfc5424", q.q_encode_rfc5424),
        ("metrics_incoming", q.q_metrics_incoming),
        ("log_templates", q.q_log_templates),
        ("anonymize_hosts", q.q_anonymize_hosts),
        ("turn_latency", q.q_turn_latency),
        ("trim_context", q.q_trim_context),
    ]
    # training-data ops (documents/embeddings), present from later phases
    try:
        from skewer_ray.pipelines import corpus as cq
        subset += cq.bench_subset()
    except ImportError:
        pass
    # relational join/aggregate surface
    try:
        from skewer_ray.pipelines import analytics as aq
        subset += [("tpch_q1", aq.q_tpch_q1), ("tpch_q3", aq.q_tpch_q3)]
        from skewer_ray.pipelines import corpus as cq2
        subset += [("pack_sequences", cq2.q_pack_sequences),
                   ("quality_filter", cq2.q_quality_filter)]
    except ImportError:
        pass
    for name, fn in subset:
        t0 = time.perf_counter()
        res = fn(sf_dir)
        if hasattr(res, "iter_batches"):
            _consume(res)
        out[name] = round(time.perf_counter() - t0, 3)
    return out


GROUPED_EVENT_OPS = ("events_asof", "events_range_counts",
                     "events_funnel", "events_running",
                     "retention_cohorts")


def run_grouped_events(num_cpus: int) -> dict:
    """The five bucketed event operators over a 5×-scaled events
    table (sf0.1 tiled with disjoint user ranges ≈ sf0.5) — the
    VERDICT r04 #10 scale row for the ops migrated off per-user
    map_groups this round."""
    import pyarrow.parquet as pq
    from skewer_ray.gen import SCALED_EVENTS_FACTOR, ensure_scaled_events
    from skewer_ray.pipelines import corpus as cq
    _init_ray(num_cpus)
    _warmup(num_cpus)
    d = ensure_scaled_events()
    n = pq.ParquetFile(os.path.join(d, "events.parquet")) \
        .metadata.num_rows
    fns = {"events_asof": cq.q_events_asof,
           "events_range_counts": cq.q_events_range_counts,
           "events_funnel": cq.q_events_funnel,
           "events_running": cq.q_events_running,
           "retention_cohorts": cq.q_retention_cohorts}
    out = {}
    for name in GROUPED_EVENT_OPS:
        warm = fns[name](d)     # warm pass (worker spin-up)
        if hasattr(warm, "iter_batches"):
            _consume(warm)      # Datasets are lazy — drain to execute
        t0 = time.perf_counter()
        res = fns[name](d)
        if hasattr(res, "iter_batches"):
            _consume(res)
        out[name] = round(time.perf_counter() - t0, 3)
    import ray
    ray.shutdown()
    return {"metric": "grouped event ops at 5x sf0.1 events",
            "unit": "sec", "sf": f"sf0.1x{SCALED_EVENTS_FACTOR}",
            "n_events": n, "num_cpus": num_cpus, "queries": out}


def run_once(sf_dir: str, num_cpus: int, flagship_only: bool,
             passes: int = 3) -> dict:
    _init_ray(num_cpus)
    _warmup(num_cpus)
    flag_sec, n_turns = bench_flagship(sf_dir, num_cpus, passes)
    queries = {"flagship": round(flag_sec, 3)}
    if not flagship_only:
        queries.update(bench_queries(sf_dir))
    total = sum(queries.values())
    result = {
        "metric": "parse→route→fanout wall time (headline: flagship turns/sec)",
        "value": round(total, 3),
        "unit": "sec",
        "queries": queries,
        "sf": os.path.basename(os.path.normpath(sf_dir)),
        "num_cpus": num_cpus,
        "n_turns": n_turns,
        "turns_per_sec": round(n_turns / flag_sec, 1),
    }
    import ray
    ray.shutdown()
    if not flagship_only:
        # the throughput-rises-with-scale signature in the artifact
        # itself (VERDICT r03 #10): flagship at sf1 (6M turns) in a
        # FRESH subprocess session — measured in-session after the
        # 23-query suite the number degrades ~2× from accumulated
        # object-store state, which would misreport the steady-state
        # scaling signature (excluded from the sf-dir total above)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--single-run",
             "--cpus", str(num_cpus), "--sf-dir", "/root/testdata/sf1",
             "--passes", "2"],
            capture_output=True, text=True,
            cwd=os.path.dirname(os.path.abspath(__file__)))
        lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
        if lines:
            sf1 = json.loads(lines[-1])
            result["flagship_sf1_sec"] = sf1["queries"]["flagship"]
            result["n_turns_sf1"] = sf1["n_turns"]
            result["turns_per_sec_sf1"] = sf1["turns_per_sec"]
        # sf0.5-scale row for the bucketed event ops (fresh session for
        # the same steady-state reason as the sf1 flagship row)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--events-run",
             "--cpus", str(num_cpus)],
            capture_output=True, text=True,
            cwd=os.path.dirname(os.path.abspath(__file__)))
        lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
        if lines:
            ev = json.loads(lines[-1])
            result["grouped_events_sf0.5"] = {
                "n_events": ev["n_events"], "queries": ev["queries"]}
    return result


def run_scaling(sf_dir: str, n_low: int = 4) -> dict:
    """N vs 4N CPUs in fresh processes; efficiency = (thr_4N/thr_N)/4.

    Default pair 4→16. Two single-node artifacts bias any pair (see
    BASELINE.md §4): Ray's out-of-band system processes (raylet, GCS,
    driver combine) run on cores OUTSIDE num_cpus, inflating the small
    arm (worst at 1-2 CPUs); and the machine-wide memory-bandwidth
    ceiling (~125-150k turns/s for this string-heavy workload from ~8
    workers up) deflates the wide arm (worst at 32). 4→16 balances the
    two. A real N→4N-node cluster has neither artifact: each node
    brings its own memory system and its own system processes."""
    n_high = n_low * 4

    def one(cpus: int) -> dict:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--single-run",
             "--cpus", str(cpus), "--sf-dir", sf_dir],
            capture_output=True, text=True,
            cwd=os.path.dirname(os.path.abspath(__file__)))
        line = [l for l in proc.stdout.splitlines() if l.startswith("{")]
        if not line:
            raise RuntimeError(f"bench subprocess (cpus={cpus}) failed:\n"
                               f"{proc.stdout}\n{proc.stderr[-2000:]}")
        return json.loads(line[-1])

    # interleaved rounds: each round runs the low arm then the high arm
    # back to back, so both see the same machine conditions; single-run
    # noise on this shared box is ±30-40%, so report the MEDIAN of
    # per-round efficiencies (a best-of-N per arm would bias arms
    # caught in different load windows)
    rounds = []
    for _ in range(3):
        lo = one(n_low)
        hi = one(n_high)
        rounds.append((lo, hi, (hi["turns_per_sec"] / lo["turns_per_sec"]) / 4.0))
    rounds.sort(key=lambda r: r[2])
    lo, hi, eff = rounds[len(rounds) // 2]  # median round
    return {
        "metric": f"scaling efficiency ({n_low}→{n_high} CPUs, fresh sessions,"
                  " median of 3 interleaved rounds)",
        "value": round(eff, 3),
        "unit": "efficiency",
        "sf": os.path.basename(os.path.normpath(sf_dir)),
        f"turns_per_sec_{n_low}cpu": lo["turns_per_sec"],
        f"turns_per_sec_{n_high}cpu": hi["turns_per_sec"],
        f"flagship_sec_{n_low}cpu": lo["queries"]["flagship"],
        f"flagship_sec_{n_high}cpu": hi["queries"]["flagship"],
        "per_round_efficiency": [round(r[2], 3) for r in rounds],
        "scaling_efficiency": round(eff, 3),
    }


def _mp_chain_worker(n_iters: int) -> float:
    """One plain process running the full fused per-record chain (no
    Ray) — the scaling CONTROL: per-process throughput vs process count
    isolates the chain's intrinsic scalability from Ray-runtime and
    single-box artifacts."""
    import glob
    import pyarrow as pa
    import pyarrow.parquet as pq
    from skewer_ray.config import default_config
    from skewer_ray.gen import ensure_transcripts
    from skewer_ray.pipelines.flagship import _specs
    from skewer_ray.stages.fused import fused_task_fn

    path = ensure_transcripts("/root/testdata/sf0.01")
    t = pa.concat_tables([pq.read_table(f)
                          for f in glob.glob(path + "/*.parquet")])
    fn = fused_task_fn(_specs(default_config()))
    fn(t.slice(0, 2000))  # warm caches
    t0 = time.perf_counter()
    rows = 0
    for _ in range(n_iters):
        for off in range(0, t.num_rows, 8192):
            fn(t.slice(off, 8192))
            rows += min(8192, t.num_rows - off)
    return rows / (time.perf_counter() - t0)


def run_mp_control() -> dict:
    """Per-record-chain scaling control across plain processes (no Ray):
    near-linear per-process throughput here demonstrates the chain has
    no shared bottleneck; the residual Ray N→4N gap is runtime/box
    contention that multi-node deployments distribute (each node brings
    its own raylet, object store and memory system)."""
    import multiprocessing as mp
    out = {}
    for p in (1, 4, 16):
        with mp.get_context("fork").Pool(p) as pool:
            rates = pool.map(_mp_chain_worker, [2] * p)
        out[f"procs_{p}"] = {
            "per_proc_rows_s": round(sum(rates) / len(rates), 1),
            "aggregate_rows_s": round(sum(rates), 1)}
    base = out["procs_1"]["per_proc_rows_s"]
    out["per_proc_efficiency_16"] = round(
        out["procs_16"]["per_proc_rows_s"] / base, 3)
    return {"metric": "mp scaling control (fused chain, plain processes)",
            "unit": "rows/s", **out}


def run_stats(sf_dir: str, num_cpus: int) -> dict:
    """Per-operator breakdown of the flagship pipeline from ds.stats():
    tasks, total remote wall, per-task mean, and achieved concurrency —
    the feedback loop for keeping wall time dominated by useful
    compute."""
    import re
    import ray.data as rd
    from skewer_ray.gen import ensure_transcripts
    from skewer_ray.pipelines.flagship import build_fanout
    from skewer_ray.stages.agg import partial_count_fn

    _init_ray(num_cpus)
    _warmup(num_cpus)
    path = ensure_transcripts(sf_dir)
    cols = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]

    def one():
        t0 = time.perf_counter()
        ds = rd.read_parquet(path, columns=cols, override_num_blocks=128)
        m = (build_fanout(ds)
             .map_batches(partial_count_fn(["sink", "status", "route"]),
                          batch_format="pyarrow")).materialize()
        return time.perf_counter() - t0, m

    one()  # warm
    wall, m = one()
    ops = []
    cur = None
    for ln in m.stats().splitlines():
        om = re.match(r"Operator (\d+) (\S+): (\d+) tasks executed.*in "
                      r"([0-9.]+)s", ln.strip())
        if om:
            cur = {"operator": om.group(2), "tasks": int(om.group(3)),
                   "span_s": float(om.group(4))}
            ops.append(cur)
        elif cur is not None and "Remote wall time" in ln:
            tm = re.search(r"([0-9.]+)(m?s) total", ln)
            if tm:
                tot = float(tm.group(1)) / (1000 if tm.group(2) == "ms"
                                            else 1)
                cur["remote_wall_total_s"] = round(tot, 2)
                cur["achieved_concurrency"] = round(
                    tot / cur["span_s"], 1) if cur["span_s"] else None
    import ray
    ray.shutdown()
    return {"metric": "flagship per-operator stats", "wall_s": round(wall, 2),
            "num_cpus": num_cpus,
            "sf": os.path.basename(os.path.normpath(sf_dir)),
            "operators": ops}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf-dir", default=DEFAULT_SF_DIR)
    ap.add_argument("--cpus", type=int, default=DEFAULT_CPUS)
    ap.add_argument("--scaling", action="store_true")
    ap.add_argument("--stats", action="store_true",
                    help="per-operator ds.stats() breakdown")
    ap.add_argument("--mp-control", action="store_true",
                    help="plain-process scaling control (no Ray)")
    ap.add_argument("--events-run", action="store_true",
                    help="five bucketed event ops over 5x-scaled events")
    ap.add_argument("--scaling-base", type=int, default=4,
                    help="N for the N vs 4N scaling pair (default 4)")
    ap.add_argument("--single-run", action="store_true",
                    help="flagship only (used by --scaling subprocesses)")
    ap.add_argument("--passes", type=int, default=3,
                    help="timed flagship passes after the warm pass "
                         "(1 for pass-level alternation protocols)")
    args = ap.parse_args()

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    if args.scaling:
        result = run_scaling(args.sf_dir, n_low=args.scaling_base)
    elif args.stats:
        result = run_stats(args.sf_dir, args.cpus)
    elif args.mp_control:
        result = run_mp_control()
    elif args.events_run:
        result = run_grouped_events(args.cpus)
    else:
        result = run_once(args.sf_dir, args.cpus, args.single_run,
                          args.passes)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
