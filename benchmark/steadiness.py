#!/usr/bin/env python3
"""Runs the benchmark N times per workload, each with another seed, and
prints for every end-to-end metric its median and the interquartile range
as a share of the median (statistics.quantiles(values, n=4)) next to the
bound in BENCHMARK.json: the check the driver applies before it accepts the
benchmark. Run from the repository root:

    python3 benchmark/steadiness.py [runs] [first_seed] [workload ...]
"""
import json
import statistics
import subprocess
import sys

spec = json.load(open("BENCHMARK.json"))
runs = int(sys.argv[1]) if len(sys.argv) > 1 else 10
first = int(sys.argv[2]) if len(sys.argv) > 2 else 1
names = sys.argv[3:] or [w["name"] for w in spec["workloads"]]
worst = 0.0
for name in names:
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(first, first + runs):
        cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        line = json.loads(out.strip().splitlines()[-1])
        assert line["correct"] and line["failed"] == 0, line
        for k, v in line["metrics"].items():
            values[k].append(v["value"])
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        share = (q3 - q1) / med
        flag = ""
        if m["name"] != "setup_s":
            worst = max(worst, share / m["bound"])
            flag = "  <-- above a third of the bound" if share > m["bound"] / 3 else ""
        print(f"{name:20s} {m['name']:16s} median {med:12.6g}  iqr/median {share:7.4f}  bound {m['bound']:.2f}{flag}",
              flush=True)
print(f"worst spread/bound ratio (setup_s aside): {worst:.2f}")
