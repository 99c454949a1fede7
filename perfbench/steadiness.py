"""Run the benchmark repeatedly and report the spread of each metric.

Usage: python3 perfbench/steadiness.py [WORKLOAD ...]

Runs ``run.py --trace 0`` for ``run_seconds`` (from BENCHMARK.json) once
per seed 1..10 on each workload (by default those of BENCHMARK.json),
one run at a time, and prints per metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the interquartile
range as a share of the median, next to the bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

RUNS = 10


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", nargs="*")
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        values = {}
        for seed in range(1, RUNS + 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, check=True, text=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed invocations")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{workload} ({RUNS} runs, seeds 1..{RUNS})")
        print(f"{'metric':16} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"{name:16} {med:12.5g} {q1:12.5g} {q3:12.5g} {(q3 - q1) / med:8.3f} "
                  f"{bounds.get(name, float('nan')):6.2f}")
        print("raw " + json.dumps(values), flush=True)


if __name__ == "__main__":
    main()
