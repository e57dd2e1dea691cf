#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--first-seed 1] [workload ...]

Runs the benchmark with --trace 0 once for each of ten seeds, one process
at a time, from the current directory, and prints per workload and metric
the median and the quartile distance as a share of the median
(statistics.quantiles, n=4), next to the metric's bound from
BENCHMARK.json.  Every run's JSON line is appended to LOG for later
comparison.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

RUNS = 10
LOG = Path(".perfbench_work/spread.jsonl")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in names:
        values: dict[str, list[float]] = {}
        started = time.perf_counter()
        for seed in range(args.first_seed, args.first_seed + RUNS):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", "0"]
            done = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=600)
            last = done.stdout.strip().splitlines()[-1] if done.stdout else ""
            if done.returncode != 0 or not last.startswith("{"):
                print(f"{workload} seed {seed}: exit {done.returncode}\n"
                      f"{done.stderr[-2000:]}")
                return 1
            result = json.loads(last)
            # run.py removes its work directory when it is left empty
            LOG.parent.mkdir(parents=True, exist_ok=True)
            with LOG.open("a") as handle:
                handle.write(json.dumps({"workload": workload, "seed": seed,
                                         **result}) + "\n")
            ok &= result["correct"]
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
        print(f"{workload}: {RUNS} runs took "
              f"{time.perf_counter() - started:.0f} s")
        for name, vals in values.items():
            mid = median(vals)
            q1, _, q3 = quantiles(vals, n=4)
            spread = (q3 - q1) / mid if mid else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  <-- wide"
            print(f"{workload:17s} {name:14s} median {mid:12.6g}  "
                  f"spread {spread:7.4f}  bound {bound}{flag}")
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
