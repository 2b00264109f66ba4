"""Measures the benchmark's run-to-run spread on one workload.

    python3 perfbench/spread.py sweep-walker 1 2 3 4 5 6 7 8 9 10

Run it from the repository root. It runs BENCHMARK.json's command once per
seed, untraced, with its run_seconds, and prints each run's metrics and then,
per metric, the median and the spread: the distance between the first and
third quartiles (statistics.quantiles, n=4) as a share of the median. These
are the figures DESIGN.md records and the bounds in BENCHMARK.json are set
against.
"""

import json
import statistics
import subprocess
import sys


def main():
    workload, seeds = sys.argv[1], sys.argv[2:]
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    values = {}
    for seed in seeds:
        out = subprocess.run(
            bench["command"] + ["--workload", workload, "--seed", seed,
                                "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed} failed:\n{out.stderr[-2000:]}")
        r = json.loads(out.stdout.strip().splitlines()[-1])
        if not r["correct"] or r["failed"]:
            sys.exit(f"seed {seed}: {r['failed']} of {r['attempted']} operations failed")
        print(seed, r["attempted"], {k: round(v["value"], 4) for k, v in r["metrics"].items()}, flush=True)
        for k, v in r["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k, xs in sorted(values.items()):
        q1, _, q3 = statistics.quantiles(xs, n=4)
        m = statistics.median(xs)
        print(f"{k:16s} median {m:10.5g}  spread {(q3 - q1) / m:.4f}")


if __name__ == "__main__":
    main()
