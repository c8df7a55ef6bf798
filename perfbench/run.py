"""skewer_ray benchmark: closed-loop batch jobs on a seeded input.

    python3 perfbench/run.py --workload flagship --seed 1 --seconds 12 --trace 0

One process generates the seeded input, starts a 1-CPU Ray session and
runs the workload's job back to back (each job starts when the previous
one has finished) for ``--seconds``, at least ``MIN_JOBS`` times. Every
job's output is checked against the DuckDB oracle outside the timing.
With ``--trace 1`` it then replays the job in one process with a span
around every call into each layer and reports the per-layer metrics
instead (see perfbench/README.md).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# scratch, emptied after each run; kept short because Ray's session
# sockets live under it and AF_UNIX paths are limited to 107 bytes
WORK_DIR = os.path.join(ROOT, ".pbrun")
RAY_DIR = os.path.join(WORK_DIR, "ray")
SPANS_DIR = os.path.join(ROOT, ".perfbench_spans")   # traced runs' spans
MIN_JOBS = 4
# Ray gets one CPU: nproc reports 1 here (os.cpu_count() sees the host's
# shared cores), and 1-CPU sessions measured steadier run to run
RAY_CPUS = 1
SETUPS = 3               # set-ups per untraced run; setup_s is their median
WARM_TURNS = 2_400       # warm-up input: 2 files
OBJECT_STORE_BYTES = 512 * 2**20
_SOCKET_DIR_MAX = 43     # longest Ray temp dir whose session sockets fit


def _log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def _use_checkout():
    """Make the checkout's package importable here and in Ray workers."""
    if not os.path.isfile(os.path.join(ROOT, "skewer_ray", "__init__.py")):
        sys.exit(f"perfbench: no skewer_ray package under {ROOT}")
    sys.path.insert(0, ROOT)
    paths = [ROOT, HERE] + [p for p in os.environ.get(
        "PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)


def _init_ray() -> None:
    """A local session; its files go under the checkout unless that path
    is too long for Ray's sockets (then Ray's default temp dir)."""
    import logging

    import ray
    from ray.data import DataContext
    ray.init(address="local", num_cpus=RAY_CPUS,
             include_dashboard=False, logging_level="ERROR",
             log_to_driver=False, object_store_memory=OBJECT_STORE_BYTES,
             **({"_temp_dir": RAY_DIR} if len(RAY_DIR) <= _SOCKET_DIR_MAX
                else {}))
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def _setup(wl, warm_dir: str, n: int) -> list[float]:
    """``n`` cold set-ups (ray.init + a warm-up job); the last session
    stays up for the measurement."""
    import ray
    times = []
    for k in range(n):
        if k:
            ray.shutdown()
        t0 = time.perf_counter()
        _init_ray()
        wl.warm(warm_dir)
        times.append(time.perf_counter() - t0)
    return times


def _job(wl, expected: dict):
    """One checked job: (sample, or None when it raised or failed the
    oracle; its output dir, or None when it raised)."""
    import procstat
    import workloads
    out = wl.new_out()
    before = procstat.cpu_seconds(procstat.session_pids())
    rss = procstat.PeakRss().start()
    t0 = time.perf_counter()
    try:
        wl.job(out)
    except Exception:
        traceback.print_exc()
        rss.stop()
        shutil.rmtree(out, ignore_errors=True)
        return None, None
    job_s = time.perf_counter() - t0
    cpu_s = procstat.cpu_since(before)
    peak = rss.stop()
    _log(f"{wl.name} job: {job_s:.3f} s, {cpu_s:.2f} CPU-s")
    problems = wl.check(out, expected)
    if problems:
        _log(f"{wl.name} output differs from the oracle: "
             + "; ".join(problems))
        return None, out
    return {"job_s": job_s, "cpu_s": cpu_s, "peak_rss_mb": peak / 1e6,
            "output_mb": workloads.dir_bytes(os.path.join(out, "data")) / 1e6
            }, out


def _measure(wl, expected: dict, seconds: float):
    """Closed loop of jobs for ``seconds`` and at least MIN_JOBS. Returns
    (samples, attempted, failed, output dir of the last job)."""
    samples, attempted, failed, last_out = [], 0, 0, None
    t_start = time.perf_counter()
    while (time.perf_counter() - t_start < seconds
           or attempted < MIN_JOBS) and failed <= MIN_JOBS:
        sample, out = _job(wl, expected)
        attempted += 1
        if sample is None:
            failed += 1
        else:
            samples.append(sample)
        if out is not None:
            if last_out:
                shutil.rmtree(last_out)
            last_out = out
    return samples, attempted, failed, last_out


def _median(samples, key) -> float:
    return statistics.median(s[key] for s in samples) if samples else 0.0


def _end_to_end(samples, turns: int, setup_s: float) -> dict:
    job_s = _median(samples, "job_s")
    return {
        "job_s": (job_s, "s"),
        "turns_per_s": (turns / job_s if job_s else 0.0, "turns/s"),
        "cpu_s": (_median(samples, "cpu_s"), "s"),
        "peak_rss_mb": (_median(samples, "peak_rss_mb"), "MB"),
        "output_mb": (_median(samples, "output_mb"), "MB"),
        "setup_s": (setup_s, "s"),
    }


def _per_layer(wl, expected, samples, last_out, work) -> tuple[dict, list]:
    """Traced replay of the job, lineage over the last real output, and
    on the manifest path a resume + retry of that output."""
    import layertrace as trace
    import workloads
    from skewer_ray.state import manifest

    # the first replay in this process pays one-off costs (decoder and
    # regex caches); time the second
    for _ in range(2):
        t0 = time.perf_counter()
        problems = trace.traced_pass(wl, expected, trace.Tracer(False), None)
        untraced_s = time.perf_counter() - t0

    tr = trace.Tracer()
    t0 = time.perf_counter()
    problems += trace.traced_pass(wl, expected, tr,
                                  os.path.join(work, "traced"))
    traced_s = time.perf_counter() - t0 - tr.seconds("write")
    with tr.span("lineage"):
        manifest.hive_counts(os.path.join(last_out, "data"),
                             ("sink", "status", "route"))
        manifest.load_manifests(last_out)
    state = dict.fromkeys(["resume.s", "resume.parts_skipped",
                           "resume.parts_run", "resume.orphans_removed",
                           "retry.s", "retry.rows_delivered"], 0)
    if "part_id" in wl.partition_cols:
        state, state_problems = workloads.resume_retry(wl, last_out, expected)
        problems += state_problems

    job_s = _median(samples, "job_s")
    chain_s = sum(tr.seconds(n) for n in trace.CHAIN)
    m = {
        "read.s": (tr.seconds("read"), "s"),
        "read.rows": (tr.count("read", "rows"), "count"),
        "read.mb": (tr.count("read", "bytes") / 1e6, "MB"),
        "parse.s": (tr.seconds("parse"), "s"),
        "parse.cpu_s": (tr.cpu("parse"), "s"),
        "parse.rows_in": (tr.count("parse", "rows_in"), "count"),
        "parse.rows_out": (tr.count("parse", "rows_out"), "count"),
        "parse.rows_no_vec": (tr.count("parse", "no_vec"), "count"),
        "parse.errors": (tr.count("parse", "errors"), "count"),
        "enrich.s": (tr.seconds("enrich"), "s"),
        "enrich.cpu_s": (tr.cpu("enrich"), "s"),
        "route.s": (tr.seconds("route"), "s"),
        "route.cpu_s": (tr.cpu("route"), "s"),
        "route.rows_per_row": (tr.count("route", "per_row"), "count"),
        "route.passing": (tr.count("route", "passing"), "count"),
        "route.dropped": (tr.count("route", "dropped"), "count"),
        "route.rejected": (tr.count("route", "rejected"), "count"),
        "fanout.s": (tr.seconds("fanout"), "s"),
        "fanout.cpu_s": (tr.cpu("fanout"), "s"),
        "fanout.rows_out": (tr.count("fanout", "rows_out"), "count"),
        "fanout.encoded_mb": (tr.count("fanout", "encoded_bytes") / 1e6,
                              "MB"),
        "fanout.permerror": (tr.count("fanout", "permerror"), "count"),
        "chain.turns_per_s": (tr.count("parse", "rows_in") / chain_s
                              if chain_s else 0.0, "turns/s"),
        "write.s": (tr.seconds("write"), "s"),
        "write.files": (tr.count("write", "files"), "count"),
        "write.leaf_dirs": (tr.count("write", "leaf_dirs"), "count"),
        "write.mb": (tr.count("write", "bytes") / 1e6, "MB"),
        "lineage.s": (tr.seconds("lineage"), "s"),
        "resume.s": (state["resume.s"], "s"),
        "resume.parts_skipped": (state["resume.parts_skipped"], "count"),
        "resume.parts_run": (state["resume.parts_run"], "count"),
        "resume.orphans_removed": (state["resume.orphans_removed"], "count"),
        "retry.s": (state["retry.s"], "s"),
        "retry.rows_delivered": (state["retry.rows_delivered"], "count"),
        "ray.overhead_s": (job_s - sum(tr.seconds(n) for n in trace.LAYERS),
                           "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    }
    tr.dump(os.path.join(SPANS_DIR, f"{wl.name}-seed{wl.seed}.jsonl"))
    print(f"{wl.name}: untraced job_s {job_s:.3f} = "
          + " + ".join(f"{n} {tr.seconds(n):.3f}" for n in trace.LAYERS)
          + f" + ray.overhead_s {m['ray.overhead_s'][0]:.3f}")
    return m, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["flagship", "toml_hooks"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    _use_checkout()
    # a terminated run still shuts Ray down and removes its scratch dir
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    t0 = time.perf_counter()
    import ray
    import ray.data  # noqa: F401
    import workloads
    import_s = time.perf_counter() - t0
    import inputs
    import oracle

    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK_DIR)
    try:
        t0 = time.perf_counter()
        input_dir = os.path.join(work, f"transcripts-seed{args.seed}")
        turns = inputs.write_inputs(input_dir, args.seed)
        warm_dir = os.path.join(work, "warmup")
        inputs.write_inputs(warm_dir, args.seed + 1, WARM_TURNS, 2)
        t1 = time.perf_counter()
        expected = oracle.expected_counts(input_dir)
        _log(f"{turns} input turns in {t1 - t0:.2f} s, "
             f"oracle in {time.perf_counter() - t1:.2f} s")

        wl = workloads.WORKLOADS[args.workload](input_dir, work, args.seed)
        setups = _setup(wl, warm_dir, 1 if args.trace else SETUPS)
        _log(f"imports {import_s:.2f} s, set-ups "
             + " ".join(f"{s:.2f}" for s in setups) + " s")
        samples, attempted, failed, last_out = _measure(
            wl, expected, args.seconds)
        problems = []
        if args.trace:
            if not samples:
                raise RuntimeError("no job succeeded; nothing to trace")
            metrics, problems = _per_layer(wl, expected, samples, last_out,
                                           work)
            for p in problems:
                print(f"{wl.name} traced: {p}", file=sys.stderr)
        else:
            metrics = _end_to_end(samples, turns,
                                  import_s + statistics.median(setups))
    finally:
        import procstat
        session = [p for p in procstat.session_pids() if p != os.getpid()]
        ray.shutdown()
        procstat.stop_all(session)
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(RAY_DIR, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(f"{args.workload} error_frac {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} jobs raised or failed the oracle)")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
