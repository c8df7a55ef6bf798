"""Interleaved A/B timing between two repo checkouts (attribute bench
deltas to noise or a commit).

Query mode: each round runs every (repo, query) cell once, repo order
alternating per round so both builds sample the same machine-load
windows. Prints per-cell times and the median per (repo, query).

    python tools/ab_bench.py --repos <parent> <change> \
        --queries ann_topk dedup_minhash text_quality parse_rfc3164 \
        --sf-dir <testdata>/sf0.1 --cpus 32 --rounds 3

Benchmark mode: one pair per seed; each pair runs
``python3 perfbench/run.py --workload W --seed S --seconds 24 --trace 0``
in both checkouts, alternating which goes first, and reads each run's
last JSON line. Prints every pair, then per end-to-end metric the
medians and quartiles of each side and the share of pairs the change
(the second repo) wins, by the metric's direction in BENCHMARK.json.

    python tools/ab_bench.py --repos <parent> <change> \
        --workload toml_hooks --seeds 901 902 903 904 905

After every child, ``ray stop --force`` runs, and the tool fails if a
process named raylet or gcs_server is still alive 30 s later.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

_CHILD = r"""
import json, sys, time
repo, sf_dir, cpus, names = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4].split(",")
sys.path.insert(0, repo)
import ray
ray.init(address="local", num_cpus=cpus, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
import importlib
entry = importlib.import_module("__ray_entry__")
qs = entry.queries()
out = {}
def consume(res):
    if hasattr(res, "iter_batches"):  # Datasets are lazy — must drain
        for b in res.iter_batches(batch_format="pyarrow", batch_size=32768):
            pass
for name in names:
    fn = qs[name]
    consume(fn(sf_dir))  # warm pass (spawn workers, touch inputs)
    t0 = time.perf_counter()
    res = fn(sf_dir)
    if hasattr(res, "iter_batches"):
        n = 0
        for b in res.iter_batches(batch_format="pyarrow", batch_size=32768):
            n += b.num_rows
    out[name] = round(time.perf_counter() - t0, 3)
ray.shutdown()
print("AB_RESULT " + json.dumps(out))
"""


def stop_ray() -> None:
    """``ray stop --force``, then fail if a Ray daemon is still alive."""
    subprocess.run(["ray", "stop", "--force"], capture_output=True,
                   timeout=120)
    # the killed daemons take a moment to exit and be reaped, so poll;
    # match process names exactly: a full-command-line match would also
    # find any shell whose command line mentions these names
    for _ in range(30):
        left = "".join(subprocess.run(["pgrep", "-l", "-x", name],
                                      capture_output=True, text=True).stdout
                       for name in ("raylet", "gcs_server")).strip()
        if not left:
            return
        time.sleep(1)
    raise SystemExit(f"ab_bench: Ray processes left running:\n{left}")


def run_cell(repo: str, sf_dir: str, cpus: int, names: list[str]) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD, repo, sf_dir, str(cpus),
             ",".join(names)],
            capture_output=True, text=True, cwd=repo, timeout=1200)
    finally:
        stop_ray()
    for line in proc.stdout.splitlines():
        if line.startswith("AB_RESULT "):
            return json.loads(line[len("AB_RESULT "):])
    raise RuntimeError(f"A/B child failed in {repo}:\n{proc.stdout}\n"
                       f"{proc.stderr[-2000:]}")


def run_bench(repo: str, workload: str, seed: int) -> dict:
    """One perfbench run in ``repo``: its last JSON line."""
    try:
        proc = subprocess.run(
            ["python3", "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", "24", "--trace", "0"],
            capture_output=True, text=True, cwd=repo, timeout=1800)
    finally:
        stop_ray()
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RuntimeError(f"perfbench failed in {repo}:\n{proc.stdout}\n"
                           f"{proc.stderr[-2000:]}") from None


def _quartiles(v: list[float]) -> tuple[float, float]:
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4, method="inclusive")
    return q[0], q[2]


def bench_ab(repos: list[str], workload: str, seeds: list[int]) -> int:
    with open(os.path.join(repos[1], "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"]
                  for m in json.load(fh)["end_to_end"]}
    runs: dict[str, list[dict]] = {r: [] for r in repos}
    for i, seed in enumerate(seeds):
        order = repos if i % 2 == 0 else list(reversed(repos))
        for repo in order:
            runs[repo].append(run_bench(repo, workload, seed))
        pair = {side: {m: round(runs[r][-1]["metrics"][m]["value"], 4)
                       for m in better}
                for side, r in zip(("parent", "change"), repos)}
        print(json.dumps({"seed": seed, "first": "parent"
                          if order[0] == repos[0] else "change", **pair}),
              flush=True)
    summary = {}
    for m, direction in better.items():
        a, b = ([run["metrics"][m]["value"] for run in runs[r]]
                for r in repos)
        wins = sum((y < x) if direction == "lower" else (y > x)
                   for x, y in zip(a, b))
        summary[m] = {
            "parent_median": statistics.median(a),
            "parent_q1_q3": _quartiles(a),
            "change_median": statistics.median(b),
            "change_q1_q3": _quartiles(b),
            "change_wins": f"{wins}/{len(seeds)}",
        }
        print(f"{m:12s}" + "".join(
            f"  {side} {summary[m][side + '_median']:.4g} "
            f"[{summary[m][side + '_q1_q3'][0]:.4g}, "
            f"{summary[m][side + '_q1_q3'][1]:.4g}]"
            for side in ("parent", "change"))
            + f"  change wins {wins}/{len(seeds)}")
    correct = all(run["correct"] for r in repos for run in runs[r])
    print(json.dumps({"workload": workload, "seeds": seeds,
                      "correct": correct, "summary": summary}))
    return 0 if correct else 1


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repos", nargs=2, required=True,
                    help="two repo roots (A B): parent, then change")
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--queries", nargs="+")
    mode.add_argument("--workload", help="perfbench workload")
    ap.add_argument("--seeds", nargs="+", type=int,
                    help="benchmark mode: one interleaved pair per seed")
    ap.add_argument("--sf-dir", default="/root/testdata/sf0.1")
    ap.add_argument("--cpus", type=int, default=32)
    ap.add_argument("--rounds", type=int, default=3)
    args = ap.parse_args()
    if args.workload:
        if not args.seeds:
            ap.error("--workload needs --seeds")
        return bench_ab(args.repos, args.workload, args.seeds)

    acc: dict[tuple[str, str], list[float]] = {}
    for rnd in range(args.rounds):
        order = args.repos if rnd % 2 == 0 else list(reversed(args.repos))
        for repo in order:
            cell = run_cell(repo, args.sf_dir, args.cpus, args.queries)
            for q, t in cell.items():
                acc.setdefault((repo, q), []).append(t)
            print(f"round {rnd} {repo}: {json.dumps(cell)}", flush=True)
    summary = {f"{repo}:{q}": round(statistics.median(v), 3)
               for (repo, q), v in acc.items()}
    print(json.dumps({"medians": summary,
                      "rounds": args.rounds,
                      "cpus": args.cpus,
                      "sf_dir": args.sf_dir}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
