"""Store the output bytes of every unseeded invocation as the expected values.

Usage: python3 perfbench/record_expected.py

Runs every invocation of the fixed workloads, and every table braid of
``knot-table`` (the even invocations, which no seed changes), once and
writes the SHA-256 and length of its output to ``expected.json``.  The
seeded conjugates are checked against their braid instead.  Run it only
on a commit whose outputs are known to be right: the benchmark counts any
later difference as a failed invocation.
"""

import json

import worker
import workloads


def main():
    modules = worker.load_skeinpoly()
    expected = {}
    argvs = [argv for name in sorted(workloads.FIXED) for argv in workloads.invocations(name, 0)]
    argvs += workloads.invocations("knot-table", seed=0)[::2]
    for argv in argvs:
        status, out, seconds = worker.invoke(modules["cli"], argv)
        if status != 0:
            raise SystemExit(f"{argv}: exit status {status!r}")
        expected[worker.argv_key(argv)] = worker.digest(out)
        print(f"{seconds:8.3f}s  {worker.argv_key(argv)}", flush=True)
    worker.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
