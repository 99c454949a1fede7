"""Run one pass of a workload in this fresh interpreter and report it.

Usage: python3 perfbench/worker.py --workload NAME --seed N [--trace-out PATH]

Imports skeinpoly from the checkout's ``src/``, runs every invocation of
the workload once through ``skeinpoly.cli.main``, checks each output, and
prints one JSON line: per-invocation seconds, the failures, and
``ru_maxrss``.  With ``--trace-out`` the pass runs traced, the spans are
written to that path and the per-layer metrics are added to the line.

A fresh interpreter per pass keeps passes independent: ``dskein`` keeps
module-level memo tables, so a second table pass in the same process
would do almost no work.
"""

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

EXPECTED_PATH = HERE / "expected.json"


def load_skeinpoly():
    """Import skeinpoly from ROOT/src, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "skeinpoly" / "cli.py").is_file():
        raise SystemExit(f"error: no skeinpoly sources under {src}")
    sys.path.insert(0, str(src))
    import skeinpoly
    from skeinpoly import cli, diagrams, dskein, homfly, kauffman, rings
    if Path(skeinpoly.__file__).resolve().parent != (src / "skeinpoly").resolve():
        raise SystemExit(f"error: imported skeinpoly from {skeinpoly.__file__}")
    return {"cli": cli, "diagrams": diagrams, "dskein": dskein, "homfly": homfly,
            "kauffman": kauffman, "rings": rings}


def invoke(cli, argv):
    """Run one CLI invocation; return (exit code or exception text, stdout bytes, seconds)."""
    buf = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            status = cli.main(argv)
    except SystemExit as exc:
        status = exc.code
    except Exception as exc:  # a crash is a failed invocation, not a crashed benchmark
        status = f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - t0
    return status, buf.getvalue().encode(), seconds


def digest(data):
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def argv_key(argv):
    return " ".join(argv)


def a_equals_s_is_one(output):
    """Independent oracle: the a = s specialization of a K_ad value is 1.

    Reads the ``--json`` value and sets a = s with plain Fractions, so it
    shares no code with the package's own ``substitute_equal``.  The value
    is reduced, so numerator and denominator cannot both vanish on a = s;
    the ratio is 1 exactly when the two collapsed polynomials are equal.
    """
    try:
        blob = json.loads(output)
        value = blob["value"]
        if blob["type"] != "ratfunc":
            return False
        num, den = _collapse_a_to_s(value["num"]), _collapse_a_to_s(value["den"])
    except (ValueError, KeyError, TypeError):
        return False
    return bool(den) and num == den


def _collapse_a_to_s(poly):
    """A JSON (s, a)-polynomial with a replaced by s, as {s exponent: coefficient}."""
    if not set(poly["vars"]) <= {"s", "a"}:
        raise ValueError(f"unexpected variables {poly['vars']}")
    out = {}
    for term in poly["terms"]:
        e = sum(term["exp"])
        out[e] = out.get(e, 0) + Fraction(int(term["num"]), int(term["den"]))
    return {e: c for e, c in out.items() if c}


def check(workload, argvs, results, expected):
    """Indices of failed invocations, each with a reason."""
    failures = []
    for i, (argv, (status, out, _)) in enumerate(zip(argvs, results)):
        if status != 0:
            failures.append((i, f"exit status {status!r}"))
        elif workload == "knot-table" and i % 2:
            # odd invocations are the conjugates of the one before them
            if out != results[i - 1][1]:
                failures.append((i, f"conjugate printed different bytes than {argvs[i - 1]}"))
        elif digest(out) != expected.get(argv_key(argv)):
            failures.append((i, f"output {digest(out)} differs from the stored bytes"))
        elif argv[:2] == ["invariant", "kauffman-ad"] and not a_equals_s_is_one(out):
            failures.append((i, "a = s specialization of the value is not 1"))
    return failures


def run_pass(modules, argvs, tracer=None):
    cli = modules["cli"]
    results = []
    for i, argv in enumerate(argvs):
        if tracer is not None:
            tracer.begin_invocation(i)
        results.append(invoke(cli, argv))
        if tracer is not None:
            tracer.end_invocation()
    return results


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    modules = load_skeinpoly()
    expected = json.loads(EXPECTED_PATH.read_text())
    argvs = workloads.invocations(args.workload, args.seed)
    tracer = None
    if args.trace_out:
        from spans import Tracer
        tracer = Tracer()
        tracer.install(modules)
    try:
        results = run_pass(modules, argvs, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    failures = check(args.workload, argvs, results, expected)
    report = {
        "seconds": [r[2] for r in results],
        "failures": [[i, argv_key(argvs[i]), why] for i, why in failures],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        tracer.write_spans(args.trace_out)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
