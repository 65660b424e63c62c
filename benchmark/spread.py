#!/usr/bin/env python3
"""Run-to-run spread of every result-line metric, as the driver measures it.

Runs the `command` of BENCHMARK.json on each workload ten times, seeds 1 to
10, and prints for each (workload, metric) the median of the ten values and
the distance between their first and third quartile
(statistics.quantiles(values, n=4)) as a share of that median, beside the
metric's bound.  The driver accepts a spread below the bound (`setup_s`
aside); the benchmark aims at a third of it.  Takes about 25 minutes.

    python3 benchmark/spread.py
"""
import json
import statistics
import subprocess
import sys
from pathlib import Path

root = Path(__file__).resolve().parent.parent
spec = json.loads((root / "BENCHMARK.json").read_text())
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

worst = 0.0
for workload in (w["name"] for w in spec["workloads"]):
    values = {name: [] for name in bounds}
    for seed in range(1, 11):
        done = subprocess.run(
            spec["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=root, capture_output=True, text=True)
        if done.returncode != 0:
            sys.exit(f"{workload} seed {seed} failed:\n{done.stderr}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, result
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
    for name, bound in bounds.items():
        q1, _, q3 = statistics.quantiles(values[name], n=4)
        median = statistics.median(values[name])
        spread = (q3 - q1) / median
        if name != "setup_s":
            worst = max(worst, spread / bound)
        print(f"{workload:<13} {name:<12} median {median:<14.6g} spread {spread:7.2%}"
              f"  bound {bound:4.0%}  spread/bound {spread / bound:5.2f}", flush=True)
print(f"worst spread/bound (setup_s aside): {worst:.2f}  (accepted below 1, aimed below 0.33)")
