#!/usr/bin/env python3
"""How steady is the benchmark?  Run from the root of a checkout:

    python3 crates/e2ebench/spread.py [first_seed] [runs]

Runs BENCHMARK.json's command `runs` times (default 10) on each workload,
each time with another seed, and prints for every end-to-end metric the
median and the distance between the first and third quartile as a share of
the median, beside the metric's bound.  A spread above a third of the bound
is marked `wide`, one above the bound `OVER`.
"""
import json
import statistics
import subprocess
import sys
import time

bench = json.load(open("BENCHMARK.json"))
first_seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
runs = int(sys.argv[2]) if len(sys.argv) > 2 else 10
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

for workload in (w["name"] for w in bench["workloads"]):
    values = {name: [] for name in bounds}
    began = time.time()
    for seed in range(first_seed, first_seed + runs):
        args = ["--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(bench["command"] + args, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"{workload} seed {seed} failed:\n{out.stdout}\n{out.stderr}")
        result = json.loads(out.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, result
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
    print(f"{workload}: {runs} runs, seeds {first_seed}..{first_seed + runs - 1}, "
          f"{time.time() - began:.0f} s")
    for name, xs in values.items():
        q1, _, q3 = statistics.quantiles(xs, n=4)
        median = statistics.median(xs)
        spread = (q3 - q1) / median
        mark = "OVER" if spread > bounds[name] else "wide" if spread > bounds[name] / 3 else ""
        print(f"  {name:<18} median {median:>12.5f}   spread {100 * spread:5.2f} %   "
              f"bound {100 * bounds[name]:.0f} %  {mark}")
