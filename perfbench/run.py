"""skeinpoly benchmark: one workload, measured from outside the program.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``workloads.py``.  Every pass runs in a fresh
interpreter (``worker.py``) that imports skeinpoly from ``src/`` and
drives ``skeinpoly.cli.main`` in-process, one invocation after another,
on one thread; every output is checked.

``--trace 0`` repeats passes until ``--seconds`` have gone by and prints
the end-to-end metrics:

* ``setup_s``: median over fresh interpreters of start-up plus
  ``import skeinpoly.cli``, the cost a CLI user pays on every call.  The
  starts are spread over the run, two before each pass, so that they see
  the same machine speed as the passes;
* ``wall_s``: median over passes of the time to run the invocation list;
* ``peak_rss_mb``: median over passes of the pass process's ``ru_maxrss``.

A summary line before the result gives the per-invocation latency p50
and p95 with their sample count: percentiles over the invocations of the
list, each invocation's latency being its median over the passes.  They
mean something on ``knot-table``, whose 200 invocations leave 10 beyond
p95; on the other workloads they are order statistics of two or eight
invocations, so they are not metrics.

The share of failed invocations is ``failed / attempted`` in the result
line; it is not a metric because it is 0 on a correct program.

``--trace 1`` alternates untraced and traced passes until ``--seconds``
have gone by and prints the per-layer metrics (see ``spans.py``), each a
median over the traced passes, with the tracing overhead: the median
traced pass time minus the median untraced one.  The program is
single-threaded and has no queues, so no layer waits on another and
there is no waiting metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"

# Fresh interpreters timed for setup_s before each pass; one more runs
# first, untimed, so that bytecode compilation is not counted.
SETUP_STARTS_PER_PASS = 2
# No run may take longer than this; a pass that would outlast it is killed.
RUN_LIMIT_S = 170


def fresh_start():
    """Seconds for a fresh interpreter to start and import skeinpoly.cli."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import skeinpoly.cli"
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return perf_counter() - t0


def run_pass(workload, seed, deadline, trace_out=None):
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if trace_out is not None:
        argv += ["--trace-out", str(trace_out)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, check=True,
                          timeout=max(1.0, deadline - perf_counter()))
    return json.loads(proc.stdout.decode().splitlines()[-1])


def percentile(values, q):
    """The q-th percentile (0 < q < 100) with linear interpolation."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "skeinpoly" / "cli.py").is_file():
        sys.exit(f"error: no skeinpoly sources under {SRC}")
    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")

    start = perf_counter()
    deadline = start + RUN_LIMIT_S
    if not args.trace:
        fresh_start()
    setup_times, passes, traced = [], [], []
    measure_start = perf_counter()
    while not passes or perf_counter() - measure_start < args.seconds:
        if not args.trace:
            setup_times += [fresh_start() for _ in range(SETUP_STARTS_PER_PASS)]
        passes.append(run_pass(args.workload, args.seed, deadline))
        if args.trace:
            TRACE_DIR.mkdir(exist_ok=True)
            traced.append(run_pass(args.workload, args.seed, deadline,
                                   TRACE_DIR / f"spans-{args.workload}.bin"))

    attempted = sum(len(p["seconds"]) for p in passes + traced)
    failures = [f for p in passes + traced for f in p["failures"]]
    pass_s = [sum(p["seconds"]) for p in passes]
    # an invocation's latency is its median over the passes
    latencies = [statistics.median(ts) for ts in zip(*(p["seconds"] for p in passes))]

    if args.trace:
        traced_s = [sum(p["seconds"]) for p in traced]
        overhead = statistics.median(traced_s) - statistics.median(pass_s)
        metrics = {name: {"value": statistics.median(p["layers"][name][0] for p in traced),
                          "unit": unit}
                   for name, (_, unit) in traced[0]["layers"].items()}
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        print(f"{args.workload}: {len(traced)} untraced and traced pass pairs; pass seconds "
              f"untraced {' '.join(f'{s:.3f}' for s in pass_s)}, "
              f"traced {' '.join(f'{s:.3f}' for s in traced_s)}; "
              f"spans of the last traced pass in {TRACE_DIR.name}/spans-{args.workload}.bin")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": statistics.median(pass_s), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["maxrss_kb"] for p in passes) / 1024,
                            "unit": "MB"},
        }
        print(f"{args.workload}: {len(passes)} passes of {len(latencies)} invocations, so "
              f"{len(latencies)} latency samples; pass seconds "
              + " ".join(f"{s:.3f}" for s in pass_s))
        print(f"latency p50 {statistics.median(latencies) * 1e3:.3f} ms, "
              f"p95 {percentile(latencies, 95) * 1e3:.3f} ms, over {len(latencies)} samples")
        print(f"setup_s is the median of {len(setup_times)} fresh interpreter starts")
    for i, argv, why in failures[:20]:
        print(f"FAILED invocation {i}: {argv}: {why}")
    print(f"failed_frac {len(failures)}/{attempted} = {len(failures) / attempted:.4f}; "
          f"run took {perf_counter() - start:.1f} s")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))


if __name__ == "__main__":
    main()
