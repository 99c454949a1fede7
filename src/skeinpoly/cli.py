"""Command-line front end.

Three subcommands:

* ``invariant KIND INPUT``: compute one invariant of one input and print
  its canonical text (or JSON with --json).  Kinds: homfly, homfly-ad,
  kauffman, kauffman-ad, qtilde, v2.  Diagram inputs use the PD/braid
  grammar of the diagrams module; qtilde takes a link-family expression.
* ``verify [SUITE]``: run a named slice of the acceptance checks
  (all, qtilde, homfly, kauffman, conjecture) and print one line per
  check; exit status is nonzero iff any check fails.
* ``table KIND RANGE``: print one row per index (kinds: i-values,
  qtilde-torus; RANGE looks like -3..3).

Flags: --json for machine-readable output, --budget N for the skein
node budget, --memo on|off, and --truncate K to print the series
expansion (substituting v = exp(-d/2)) of a homfly-kind value instead
of the value itself.  The budget counts nodes over an engine's lifetime:
one engine per ``invariant`` invocation, one per ``verify`` suite.  No
environment variables or config files are consulted, so identical
invocations print identical bytes.

Exit codes: 0 success, 2 parse/validation failure, 3 node budget
exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import diagrams as dg
from . import dskein, homfly, kauffman
from .errors import ParseError, ResourceLimit, SkeinError
from .rings import (
    DeltaSeries,
    LaurentPoly,
    RatFunc,
    poly_to_json,
    poly_to_text,
    series_exp_v,
    specialize,
)

VALUE_JSON_FORMAT = "skeinpoly-value/1"
TABLE_JSON_FORMAT = "skeinpoly-table/1"
REPORT_JSON_FORMAT = "skeinpoly-report/1"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _value_to_text(value):
    if isinstance(value, LaurentPoly):
        return poly_to_text(value)
    if isinstance(value, (RatFunc, DeltaSeries)):
        return value.to_text()
    if isinstance(value, (int, Fraction)):
        return _coeff_text(value)
    raise TypeError(f"unprintable value {value!r}")


def _coeff_text(c):
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _value_to_json(value):
    if isinstance(value, LaurentPoly):
        return {"type": "poly", "value": poly_to_json(value)}
    if isinstance(value, RatFunc):
        return {"type": "ratfunc", "value": value.to_json()}
    if isinstance(value, DeltaSeries):
        return {"type": "series", "value": value.to_json()}
    c = Fraction(value)
    return {"type": "rational", "value": {"num": str(c.numerator), "den": str(c.denominator)}}


def _parse_link_input(text):
    obj = dg.parse_diagram(text)
    if isinstance(obj, dg.BraidWord):
        return dg.braid_closure(obj)
    return obj


def _cmd_invariant(args):
    engine_h = homfly.HomflyEngine(memo=args.memo, budget=args.budget)
    engine_k = kauffman.KauffmanEngine(memo=args.memo, budget=args.budget)
    kind = args.kind
    if kind == "qtilde":
        value = dskein.qtilde(dskein.parse_family(args.input))
    else:
        d = _parse_link_input(args.input)
        if kind == "homfly":
            value = homfly.homfly_p(d, engine_h)
        elif kind == "homfly-ad":
            value = homfly.h_adjoint(d, engine_h)
        elif kind == "kauffman":
            value = kauffman.kauffman_lambda(d, engine_k)
        elif kind == "kauffman-ad":
            value = kauffman.k_adjoint(d, engine_k)
        elif kind == "v2":
            value = homfly.v2(d, engine_h)
        else:
            raise ParseError(f"unknown invariant kind {kind!r}")
    if args.truncate is not None:
        if kind not in ("homfly", "homfly-ad"):
            raise ParseError("--truncate applies to the homfly kinds only")
        value = series_exp_v(RatFunc(value), args.truncate)
    if args.json:
        blob = {"format": VALUE_JSON_FORMAT, "kind": kind, "input": args.input}
        blob.update(_value_to_json(value))
        print(json.dumps(blob, sort_keys=True))
    else:
        print(_value_to_text(value))
    return EXIT_OK


def _cmd_table(args):
    m = args.range.strip()
    try:
        lo_text, hi_text = m.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
    except ValueError as exc:
        raise ParseError(f"bad range {args.range!r}; expected like -3..3") from exc
    if args.kind == "i-values":
        rows = [(n, dskein.i_value(n)) for n in range(lo, hi + 1)]
    elif args.kind == "qtilde-torus":
        rows = [(n, dskein.torus_value(n)) for n in range(lo, hi + 1)]
    else:
        raise ParseError(f"unknown table kind {args.kind!r}")
    if args.json:
        blob = {"format": TABLE_JSON_FORMAT, "kind": args.kind,
                "rows": [{"index": n, "value": poly_to_json(v)} for n, v in rows]}
        print(json.dumps(blob, sort_keys=True))
    else:
        for n, v in rows:
            print(f"{n}\t{poly_to_text(v)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# The verification suites
# ---------------------------------------------------------------------------

class Check:
    """One acceptance check: computed and expected values in canonical text."""

    def __init__(self, name, run):
        self.name = name
        self.run = run


def _sigma(terms):
    return LaurentPoly(("sp", "sm"), terms)


def _pair(computed, expected):
    ok = computed == expected
    return ok, _value_to_text(expected), _value_to_text(computed)


def _qtilde_checks():
    sp_minus_sm = dskein.SP_MINUS_SM
    printed = {
        0: _sigma({}),
        1: _sigma({(0, 0): 1}),
        -1: _sigma({(0, 0): -1}),
        2: -sp_minus_sm,
        3: _sigma({(0, 0): 3}) - sp_minus_sm * _sigma({(0, 0): 2, (0, 1): 1}),
        5: _sigma({(0, 0): 5}) + sp_minus_sm * _sigma(
            {(0, 0): -6, (1, 0): 2, (0, 1): -4, (1, 1): 2, (0, 2): -2, (0, 3): -1}),
    }
    checks = []
    for m, expect in sorted(printed.items()):
        checks.append(Check(f"qtilde/torus({m})",
                            lambda m=m, e=expect: _pair(dskein.torus_value(m), e)))
    i_printed = {
        0: _sigma({}), 1: _sigma({(0, 0): -1}), -1: _sigma({(0, 0): -1}),
        2: 2 * sp_minus_sm, -2: -2 * sp_minus_sm,
        3: _sigma({(0, 0): -1, (1, 1): 2, (0, 2): -2}),
        -3: _sigma({(0, 0): -1, (2, 0): -2, (1, 1): 2}),
    }
    for n, expect in sorted(i_printed.items()):
        checks.append(Check(f"qtilde/i({n})",
                            lambda n=n, e=expect: _pair(dskein.i_value(n), e)))

    def coherence():
        t3 = dskein.skein_vectors().t3
        for n in range(-8, 9):
            acc = t3[0] + t3[1] * dskein.i_value(n - 2) + t3[2] * dskein.i_value(n - 1) \
                + t3[3] * dskein.i_value(n) + t3[4] * dskein.i_value(n + 1) \
                + t3[5] * dskein.i_value(n + 2)
            if acc != dskein.i_value(n + 3):
                return False, "recursion == (T3) pairing", f"mismatch at n={n}"
        return True, "recursion == (T3) pairing for n in [-8,8]", "agrees"

    checks.append(Check("qtilde/recursion-coherence", coherence))

    def integrality():
        for m in range(-15, 16):
            ok, witness = dskein.conj_integrality_check(dskein.torus_value(m))
            if not ok:
                return False, "integer coefficients for |m| <= 15", f"violated at m={m}: {witness}"
        return True, "integer coefficients for |m| <= 15", "all integral"

    checks.append(Check("qtilde/integrality", integrality))
    return checks


def _trefoil():
    return dg.braid_closure(dg.BraidWord(2, (1, 1, 1)))


def _homfly_checks(budget, memo):
    eng = homfly.HomflyEngine(memo=memo, budget=budget)
    v, z = LaurentPoly.var("v"), LaurentPoly.var("z")

    def unknot_check():
        kinked = dg.add_kinks(dg.add_kinks(dg.LinkDiagram((), (), 1), 0, 2), 0, -1)
        return _pair(homfly.homfly_p(kinked, eng), LaurentPoly.const(1, ("v", "z")))

    def trefoil_check():
        return _pair(homfly.homfly_p(_trefoil(), eng),
                     2 * v ** 2 - v ** 4 + v ** 2 * z ** 2)

    def adjoint_unknot():
        expected = RatFunc((v ** 2 + z * v - 1) * (v ** 2 - z * v - 1), z ** 2 * v ** 2)
        return _pair(RatFunc(homfly.h_adjoint(homfly.unknot_diagram(), eng)), expected)

    def adjoint_ratio():
        ratio = RatFunc(homfly.h_adjoint(_trefoil(), eng)) \
            / RatFunc(homfly.h_adjoint(homfly.unknot_diagram(), eng))
        vv = RatFunc(v) - RatFunc(v) ** -1
        printed = RatFunc(1) - 3 * vv + vv * vv * (
            RatFunc(v + 4, v + 1) + RatFunc((v ** 2 + 4) * z ** 2 + z ** 4))
        return _pair(ratio, printed)

    def adjoint_series():
        ratio = RatFunc(homfly.h_adjoint(_trefoil(), eng)) \
            / RatFunc(homfly.h_adjoint(homfly.unknot_diagram(), eng))
        series = series_exp_v(ratio, 3)
        z2 = LaurentPoly.var("z") ** 2
        expected = DeltaSeries(3, {0: 1, 1: 3, 2: Fraction(5, 2) + 5 * z2 + z2 ** 2})
        return _pair(series, expected)

    def series_split():
        ratio = RatFunc(homfly.h_adjoint(_trefoil(), eng)) \
            / RatFunc(homfly.h_adjoint(homfly.unknot_diagram(), eng))
        series = series_exp_v(ratio, 3)
        w = 3
        v2_value = homfly.v2(_trefoil(), eng)
        psi = dskein.qtilde(dskein.Torus2(3))
        from .rings import psi_series
        expected = DeltaSeries(3, {0: 1}) \
            + DeltaSeries(3, {2: Fraction(w * w, 2) - 2 * v2_value}) \
            + DeltaSeries(3, {k + 1: c for k, c in psi_series(psi).coeffs.items()})
        return _pair(series, expected)

    return [
        Check("homfly/unknot", unknot_check),
        Check("homfly/trefoil-oracle", trefoil_check),
        Check("homfly/adjoint-unknot", adjoint_unknot),
        Check("homfly/adjoint-ratio-k3", adjoint_ratio),
        Check("homfly/adjoint-series", adjoint_series),
        Check("homfly/series-split", series_split),
    ]


def _kauffman_checks(budget, memo):
    eng = kauffman.KauffmanEngine(memo=memo, budget=budget)
    s, a = LaurentPoly.var("s"), LaurentPoly.var("a")
    u0 = dg.LinkDiagram((), None, 1)

    def unknot_closed():
        expected = RatFunc((a ** 2 - 1) * (s ** 3 + a) * (s * a - 1) * s,
                           a ** 2 * (s ** 4 - 1) * (s ** 2 - 1))
        return _pair(kauffman.k_adjoint(u0, eng), expected)

    def unknot_probe():
        value = kauffman.k_adjoint(u0, eng).subs_int("s", 2).subs_int("a", 3)
        return _pair(value, RatFunc(Fraction(176, 81)))

    def ratio_k3():
        ratio = kauffman.k_adjoint(_trefoil(), eng) / kauffman.k_adjoint(u0, eng)
        printed = RatFunc(a ** 2 - s ** 2) * (
            RatFunc(s ** 12 + s ** 8 + s ** 6 + 1, s ** 10)
            + RatFunc((s ** 4 - 1) * (s ** 6 + 1), s ** 7 * a)
            - RatFunc(s ** 12 - s ** 10 - s ** 8 + 2 * s ** 6 - s ** 2 + 1, s ** 6 * a ** 2)
            - RatFunc((s ** 4 - 1) * (s ** 6 - s ** 2 + 1), s ** 3 * a ** 3)
            - RatFunc((s ** 4 - 1) * (s ** 2 - 1), a ** 4))
        return _pair(ratio, RatFunc(1) + printed)

    def alpha_eq_s(diagram_factory, label):
        def run():
            return _pair(kauffman.kauf_alpha_eq_s_check(diagram_factory(), eng), RatFunc(1))
        return run

    def derivative_u0():
        expected = RatFunc(s ** 4 + 4 * s ** 2 + 1, s * (s ** 4 - 1))
        return _pair(kauffman.kauf_derivative_at_s(u0, eng), expected)

    def derivative_k3():
        phi = {"sp": RatFunc(2 * s ** -2 + s ** 4), "sm": RatFunc(2 * s ** 2 + s ** -4)}
        phi_q = specialize(dskein.qtilde(dskein.Torus2(3)), phi)
        unknot_term = RatFunc(s ** 4 + 4 * s ** 2 + 1, s * (s ** 4 - 1))
        expected = RatFunc(2, s) * phi_q + unknot_term
        return _pair(kauffman.kauf_derivative_at_s(_trefoil(), eng), expected)

    def granny():
        t = _trefoil()
        return _pair(kauffman.kauf_alpha_eq_s_check(dg.connected_sum(t, 0, t, 0), eng),
                     RatFunc(1))

    return [
        Check("kauffman/adjoint-unknot-closed-form", unknot_closed),
        Check("kauffman/adjoint-unknot-probe", unknot_probe),
        Check("kauffman/adjoint-ratio-k3", ratio_k3),
        Check("kauffman/alpha-eq-s-unknot", alpha_eq_s(lambda: u0, "u0")),
        Check("kauffman/alpha-eq-s-hopf",
              alpha_eq_s(lambda: dg.braid_closure(dg.BraidWord(2, (1, 1))), "hopf")),
        Check("kauffman/alpha-eq-s-k3", alpha_eq_s(_trefoil, "k3")),
        Check("kauffman/alpha-eq-s-granny (slow)", granny),
        Check("kauffman/derivative-unknot", derivative_u0),
        Check("kauffman/derivative-k3", derivative_k3),
    ]


def _conjecture_checks(budget, memo):
    eng = homfly.HomflyEngine(memo=memo, budget=budget)

    def run():
        k3 = dg.add_kinks(_trefoil(), 0, -3)
        q = dskein.qtilde(dskein.FramingShift(dskein.Torus2(3), -3))
        lhs, rhs = homfly.conjecture_sides(k3, q, eng)
        z = LaurentPoly.var("z")
        stated = RatFunc(-2) + RatFunc(z ** 2 + 5, z ** 2)
        if rhs != stated:
            return False, stated.to_text(), rhs.to_text()
        return _pair(lhs, rhs)

    return [Check("conjecture/zero-framed-k3 (stated form; known inconsistent)", run)]


SUITES = ("all", "qtilde", "homfly", "kauffman", "conjecture")


def _cmd_verify(args):
    checks = []
    if args.suite in ("all", "qtilde"):
        checks += _qtilde_checks()
    if args.suite in ("all", "homfly"):
        checks += _homfly_checks(args.budget, args.memo)
    if args.suite in ("all", "kauffman"):
        checks += _kauffman_checks(args.budget, args.memo)
    if args.suite in ("all", "conjecture"):
        checks += _conjecture_checks(args.budget, args.memo)
    checks.sort(key=lambda c: c.name)
    report = []
    failed = 0
    budget_hit = False
    for check in checks:
        start = time.monotonic()
        try:
            ok, expected, computed = check.run()
            status = "pass" if ok else "fail"
        except ResourceLimit as exc:
            status, expected, computed = "skip", "(budget exceeded)", str(exc)
            budget_hit = True
        elapsed = time.monotonic() - start
        if status == "fail":
            failed += 1
        report.append({"name": check.name, "status": status, "expected": expected,
                       "computed": computed, "elapsed": round(elapsed, 3)})
    if args.json:
        print(json.dumps({"format": REPORT_JSON_FORMAT, "suite": args.suite,
                          "checks": report}, sort_keys=True))
    else:
        for row in report:
            line = f"{row['status'].upper():4} {row['name']} ({row['elapsed']}s)"
            print(line)
            if row["status"] == "fail":
                print(f"     expected: {row['expected']}")
                print(f"     computed: {row['computed']}")
    if budget_hit:
        return EXIT_BUDGET
    return EXIT_OK if failed == 0 else 1


def _build_parser():
    parser = argparse.ArgumentParser(prog="skeinpoly",
                                     description="exact skein-recursion link invariants")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--budget", type=lambda t: int(float(t)), default=homfly.DEFAULT_BUDGET,
                       help="skein recursion node budget")
        p.add_argument("--memo", choices=("on", "off"), default="on")
        p.add_argument("--truncate", type=int, default=None,
                       help="print the series expansion to this order instead")

    p_inv = sub.add_parser("invariant", help="compute one invariant")
    p_inv.add_argument("kind", choices=("homfly", "homfly-ad", "kauffman",
                                        "kauffman-ad", "qtilde", "v2"))
    p_inv.add_argument("input", help="diagram, braid, or link-family text")
    common(p_inv)

    p_ver = sub.add_parser("verify", help="run acceptance checks")
    p_ver.add_argument("suite", nargs="?", choices=SUITES, default="all")
    common(p_ver)

    p_tab = sub.add_parser("table", help="tabulate family values")
    p_tab.add_argument("kind", choices=("i-values", "qtilde-torus"))
    p_tab.add_argument("range", help="index range like -3..3")
    common(p_tab)
    return parser


_RANGE_TOKEN = __import__("re").compile(r"^-\d+\.\.-?\d+$")


def main(argv=None):
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    # negative table ranges like -3..3 would otherwise parse as flags
    for i, token in enumerate(argv):
        if _RANGE_TOKEN.match(token):
            if argv[i - 1:i] != ["--"]:
                argv.insert(i, "--")
            break
    args = parser.parse_args(argv)
    args.memo = args.memo == "on"
    try:
        if args.command == "invariant":
            return _cmd_invariant(args)
        if args.command == "table":
            return _cmd_table(args)
        return _cmd_verify(args)
    except ResourceLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except SkeinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
