#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Run from the repository root:

    python3 perfbench/tools/spread.py --workload design-sweep --seeds 1-10
    python3 perfbench/tools/spread.py --all --seeds 1-10 --json perfbench/ledger/ten-seed-spreads.json
    python3 perfbench/tools/spread.py --all --seeds 1,1,1,2,2,2 --json perfbench/ledger/seed-medians.json

Every run uses the command and run_seconds of BENCHMARK.json. For every
end-to-end metric it prints the runs' median and the distance between
the first and third quartile as a share of the median
(`statistics.quantiles(values, n=4)`), next to the metric's bound. A
spread above a third of the bound is flagged. Per-layer numbers come
from the traced run's own ledger, not from here. The JSON report also
gives each metric's median per seed, so a repeated seed list compares
the development seed with a held-out one.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return result, wall


def host():
    model = "unknown CPU"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"{model}, {os.cpu_count()} CPUs"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", default=[])
    ap.add_argument("--all", action="store_true", help="every workload in BENCHMARK.json")
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--json", help="write per-workload medians and spreads to this file")
    opts = ap.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]] if opts.all else opts.workload
    catalogue = bench["end_to_end"]
    seeds = parse_seeds(opts.seeds)

    report = {
        "about": ("One untraced process per run. Per metric: median and "
                  "spread = (Q3 - Q1) / median over all runs, with "
                  "statistics.quantiles(values, n=4); values in run order; by_seed = median "
                  "over the runs of each seed."),
        "produced_by": "python3 perfbench/tools/spread.py " + " ".join(sys.argv[1:]),
        "host": host(),
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in workloads:
        values = {m["name"]: [] for m in catalogue}
        walls = []
        for seed in seeds:
            result, wall = run_once(command, workload, seed, seconds)
            walls.append(wall)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"  {workload} seed {seed}: {wall:.1f}s wall, {result['attempted']} items",
                  file=sys.stderr)
        print(f"{workload}: {len(seeds)} runs, wall {min(walls):.1f}-{max(walls):.1f}s")
        metrics = report["workloads"][workload] = {}
        for m in catalogue:
            vals = values[m["name"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = m["bound"]
            flag = "  <-- above bound/3" if spread > bound / 3 else ""
            print(f"  {m['name']:34s} median {med:14.6g} {m['unit']:6s} "
                  f"spread {spread:6.3f} bound {bound:.2f}{flag}")
            print("      " + " ".join(f"{v:.5g}" for v in vals))
            by_seed = {
                str(seed): statistics.median(v for s, v in zip(seeds, vals) if s == seed)
                for seed in sorted(set(seeds))}
            metrics[m["name"]] = {
                "unit": m["unit"], "bound": bound, "median": med, "spread": round(spread, 4),
                "values": vals, "by_seed": by_seed}
    if opts.json:
        with open(opts.json, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
