"""Scaling artifact collector: ONE interleaved round of
``bench.py --single-run`` at N and 4N CPUs, appended to ARTIFACT.

A 4N-CPU run on a box with fewer than 4N cores measures contention, not
scaling, so the probe refuses to record a row when
``os.cpu_count() < 4 * base``.

Usage: python tools/scaling_probe.py [--base 4] [--sf-dir DIR]
       [--alternate K]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ARTIFACT = os.path.join(ROOT, "BENCH_scaling_r05.jsonl")


def one_bench(cpus: int, sf_dir: str | None = None,
              passes: int | None = None) -> dict:
    cmd = [sys.executable, os.path.join(ROOT, "bench.py"), "--single-run",
           "--cpus", str(cpus)]
    if sf_dir:
        cmd += ["--sf-dir", sf_dir]
    if passes:
        cmd += ["--passes", str(passes)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if not lines:
        raise RuntimeError(proc.stderr[-1500:])
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--base", type=int, default=4)
    ap.add_argument("--sf-dir", default=None,
                    help="larger input (e.g. a synthetic sf0.5) so each "
                    "pass runs long enough to be ramp-free steady state")
    ap.add_argument("--alternate", type=int, default=0, metavar="K",
                    help="protocol v4: K adjacent (N, 4N) single-pass "
                         "subprocess pairs; per-pair efficiency, median "
                         "reported. Pass-level alternation shrinks the "
                         "window the box must stay stationary over from "
                         "minutes (whole arm) to ~1 min (one pair).")
    args = ap.parse_args()

    cores = os.cpu_count() or 1
    if cores < 4 * args.base:
        sys.exit(f"{cores} cores < 4 x base {args.base}: a {4 * args.base}"
                 "-CPU run here measures contention; no row recorded")

    if args.alternate:
        import statistics
        pairs = []
        for _ in range(args.alternate):
            lo = one_bench(args.base, args.sf_dir, passes=1)
            hi = one_bench(args.base * 4, args.sf_dir, passes=1)
            pairs.append((lo["turns_per_sec"], hi["turns_per_sec"]))
        effs = [(h / l) / 4.0 for l, h in pairs]
        # the round's efficiency IS one concrete pair's efficiency (the
        # lower-middle by rank), so the recorded turns_per_sec fields
        # always satisfy efficiency == (hi/lo)/4 — the same invariant
        # v1-v3 rows carry. (statistics.median would average the two
        # middle pairs at even K, detaching the number from any fields.)
        k = sorted(range(len(effs)),
                   key=lambda i: effs[i])[(len(effs) - 1) // 2]
        med = effs[k]
        row = {
            "ts": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "protocol": "v4",
            "sf": os.path.basename(os.path.normpath(args.sf_dir))
                  if args.sf_dir else "sf0.1",
            "base": args.base,
            "pairs": [[round(l, 1), round(h, 1)] for l, h in pairs],
            "pair_efficiencies": [round(e, 3) for e in effs],
            f"turns_per_sec_{args.base}cpu": pairs[k][0],
            f"turns_per_sec_{args.base * 4}cpu": pairs[k][1],
            "efficiency": round(med, 3),
        }
        with open(ARTIFACT, "a") as fh:
            fh.write(json.dumps(row) + "\n")
        print(json.dumps(row))
        return

    lo = one_bench(args.base, args.sf_dir)
    hi = one_bench(args.base * 4, args.sf_dir)
    eff = (hi["turns_per_sec"] / lo["turns_per_sec"]) / 4.0
    row = {
        "ts": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        # v2 = steady-state protocol (untimed warm pass + median of 3)
        # + row-group-parallel input layout; earlier rows are v1 (cold
        # single pass, 3-file read bottleneck). v3 = v2 on a 5x larger
        # input (sf0.5, 3M turns) so each timed pass is tens of seconds
        # of steady state rather than 1-3s of mostly ramp.
        "protocol": "v3" if args.sf_dir else "v2",
        "sf": os.path.basename(os.path.normpath(args.sf_dir))
              if args.sf_dir else "sf0.1",
        "base": args.base,
        f"turns_per_sec_{args.base}cpu": lo["turns_per_sec"],
        f"turns_per_sec_{args.base * 4}cpu": hi["turns_per_sec"],
        "efficiency": round(eff, 3),
    }
    with open(ARTIFACT, "a") as fh:
        fh.write(json.dumps(row) + "\n")
    print(json.dumps(row))


if __name__ == "__main__":
    main()
