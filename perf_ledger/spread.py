#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark command from BENCHMARK.json with seeds 1 to 10 and
--trace 0 for every workload and prints, per end-to-end metric, the
median and the distance between the first and third quartiles as a share
of the median, beside the metric's bound. A spread at or above a third of
its bound is marked.

    python3 perf_ledger/spread.py

Run it from the repository root. It prints one JSON summary line last.
"""

import json
import statistics
import subprocess
import sys


SEEDS = range(1, 11)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {}
    for workload in names:
        values = {}
        for seed in SEEDS:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                 text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect result {result}", file=sys.stderr)
                sys.exit(1)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary[workload] = {}
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            mark = " <-- over a third of the bound" if bound and spread >= bound / 3 else ""
            bound_text = f"bound {bound}" if bound else ""
            print(f"{workload:<11} {name:<22} median {median:<14.6g} spread {spread:7.2%} "
                  f"{bound_text}{mark}")
            summary[workload][name] = {"median": median, "spread": spread, "values": vals}
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
