"""Self-test of the benchmark's output checks.

Usage: python3 perfbench/selftest.py

Runs a few cheap invocations through the same checks a pass uses and
shows that each kind of wrong output is counted as a failed invocation:
bytes that differ from the stored ones, a conjugate that prints other
bytes than its braid, a braid and conjugate that print the same wrong
bytes, and a Kauffman adjoint value whose a = s specialization is not 1.  Exits nonzero if any check misbehaves.
"""

import json
import sys

import worker
import workloads


def failed_frac(workload, argvs, results, expected):
    return len(worker.check(workload, argvs, results, expected)) / len(argvs)


def expect(label, value, wanted):
    print(f"{'ok  ' if value == wanted else 'FAIL'} {label}: {value}")
    return value == wanted


def main():
    cli = worker.load_skeinpoly()["cli"]
    expected = json.loads(worker.EXPECTED_PATH.read_text())
    good = True

    # fixed workload: the unknot's K_ad against its stored bytes
    argvs = [workloads.FIXED["cable"][0]]
    results = [worker.invoke(cli, argv) for argv in argvs]
    good &= expect("stored bytes match", failed_frac("cable", argvs, results, expected), 0)
    wrong = dict(expected)
    wrong[worker.argv_key(argvs[0])] = worker.digest(b"1\n")
    good &= expect("wrong stored bytes", failed_frac("cable", argvs, results, wrong), 1)

    # a = s oracle: a value that passes the stored-bytes check but is not 1 on a = s
    blob = json.loads(results[0][1])
    blob["value"]["num"]["terms"][0]["num"] = str(int(blob["value"]["num"]["terms"][0]["num"]) + 1)
    tampered = (json.dumps(blob) + "\n").encode()
    good &= expect("a = s oracle on the stored value", worker.a_equals_s_is_one(results[0][1]), True)
    good &= expect("a = s oracle on a tampered value", worker.a_equals_s_is_one(tampered), False)
    with_oracle = dict(expected)
    with_oracle[worker.argv_key(argvs[0])] = worker.digest(tampered)
    results_t = [(0, tampered, results[0][2])]
    good &= expect("oracle failure counted",
                   failed_frac("cable", argvs, results_t, with_oracle), 1)

    # knot-table: a braid and its conjugate, then a conjugate swapped for another braid,
    # then both members wrong alike, as a defect that moves w and g w g^-1 together would be
    argvs = workloads.invocations("knot-table", seed=1)[:2]
    results = [worker.invoke(cli, argv) for argv in argvs]
    good &= expect("conjugate pair agrees", failed_frac("knot-table", argvs, results, expected), 0)
    other = worker.invoke(cli, ["invariant", "homfly", "braid:2:[1,1,1]"])
    good &= expect("mismatched pair",
                   failed_frac("knot-table", argvs, [results[0], other], expected), 0.5)
    good &= expect("pair wrong alike", failed_frac("knot-table", argvs, [other, other], expected), 0.5)

    # a crash or a nonzero exit
    argvs = [["invariant", "homfly", "braid:2:[1,1,"]]
    results = [worker.invoke(cli, argv) for argv in argvs]
    good &= expect("bad input exits nonzero", failed_frac("knot-table", argvs, results, expected), 1)
    sys.exit(0 if good else 1)


if __name__ == "__main__":
    main()
