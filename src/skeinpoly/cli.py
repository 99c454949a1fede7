"""Command-line front end.

Three subcommands:

* ``invariant KIND INPUT``: compute one invariant of one input and print
  its canonical text (or JSON with --json).  Kinds: homfly, homfly-ad,
  kauffman, kauffman-ad, qtilde, v2.  Diagram inputs use the PD/braid
  grammar of the diagrams module; qtilde takes a link-family expression.
* ``verify [SUITE]``: run a named slice of the acceptance checks
  (all, qtilde, homfly, kauffman, conjecture) and print one line per
  check; exit status is nonzero iff any check fails.  ``checks`` is the
  one definition of these checks; the acceptance tests run them too.
* ``table KIND RANGE``: print one row per index (kinds: i-values,
  qtilde-torus; RANGE looks like -3..3), each as soon as it is computed.

Flags: --json (every subcommand) for machine-readable output;
--budget N for the skein node budget (``invariant`` and ``verify``, the
subcommands that run skein engines; for ``invariant qtilde`` the budget
counts polynomial terms, see ``dskein.bounded_qtilde``); --truncate K
(``invariant`` of a homfly kind only, K >= 1) to print the series
expansion (substituting v = exp(-d/2)) of the value instead of the value
itself; a bad K or kind exits 2 before anything is evaluated.  A
subcommand rejects a flag it would ignore (exit 2), so no accepted flag
is silently without effect.  The engines always memoize (turning the
memo off changes only time and node count; tests keep
``SkeinEngine(memo=False)`` as their reference evaluation).  The budget
counts nodes over an engine's lifetime: one engine per ``invariant``
invocation, one per ``verify`` suite.  No environment variables or
config files are consulted, so identical ``invariant`` and ``table``
invocations print identical bytes; ``verify`` does not, since every line
it prints carries its wall time.

Exit codes: 0 success, 2 parse/validation failure, 3 budget exceeded,
141 stdout closed early (a reader such as ``head`` quit; stderr stays empty).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import time
from fractions import Fraction

from . import diagrams as dg
from . import dskein, homfly, kauffman
from .dskein import _sigma
from .errors import ParseError, ResourceLimit, SkeinError
from .rings import (
    DeltaSeries,
    LaurentPoly,
    RatFunc,
    poly_to_json,
    poly_to_text,
    psi_series,
    series_exp_v,
    specialize,
    _BLANKS,
    _long_str,
    _text_int,
)

VALUE_JSON_FORMAT = "skeinpoly-value/1"
TABLE_JSON_FORMAT = "skeinpoly-table/1"
REPORT_JSON_FORMAT = "skeinpoly-report/1"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_PIPE = 141                 # 128 + SIGPIPE, as a shell reports a process the signal ended


def _value_to_text(value):
    if isinstance(value, LaurentPoly):
        return poly_to_text(value)
    if isinstance(value, (RatFunc, DeltaSeries)):
        return value.to_text()
    if isinstance(value, (int, Fraction)):
        return poly_to_text(LaurentPoly.const(value))
    raise TypeError(f"unprintable value {value!r}")


def _value_to_json(value):
    if isinstance(value, LaurentPoly):
        return {"type": "poly", "value": poly_to_json(value)}
    if isinstance(value, RatFunc):
        return {"type": "ratfunc", "value": value.to_json()}
    if isinstance(value, DeltaSeries):
        return {"type": "series", "value": value.to_json()}
    c = Fraction(value)
    return {"type": "rational", "value": {"num": _long_str(c.numerator), "den": _long_str(c.denominator)}}


def _parse_link_input(text):
    obj = dg.parse_diagram(text)
    if isinstance(obj, dg.BraidWord):
        return dg.braid_closure(obj)
    return obj


def _cmd_invariant(args):
    kind = args.kind
    if args.truncate is not None and kind not in ("homfly", "homfly-ad"):
        raise ParseError("--truncate applies to the homfly kinds only")
    if kind == "qtilde":
        value = dskein.bounded_qtilde(dskein.parse_family(args.input), args.budget)
    else:
        engine_class, invariant = {
            "homfly": (homfly.HomflyEngine, homfly.homfly_p),
            "homfly-ad": (homfly.HomflyEngine, homfly.h_adjoint),
            "v2": (homfly.HomflyEngine, homfly.v2),
            "kauffman": (kauffman.KauffmanEngine, kauffman.kauffman_lambda),
            "kauffman-ad": (kauffman.KauffmanEngine, kauffman.k_adjoint),
        }[kind]
        d = _parse_link_input(args.input)
        value = invariant(d, engine_class(budget=args.budget))
    if args.truncate is not None:
        value = series_exp_v(RatFunc(value), args.truncate)
    if args.json:
        blob = {"format": VALUE_JSON_FORMAT, "kind": kind, "input": args.input}
        blob.update(_value_to_json(value))
        print(json.dumps(blob, sort_keys=True))
    else:
        print(_value_to_text(value))
    return EXIT_OK


# ASCII digits only: int() and float() also take other digits and underscores
_ASCII_INT = re.compile(r"[+-]?[0-9]+")
_ASCII_FLOAT = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def _cmd_table(args):
    ends = [end.strip(_BLANKS) for end in args.range.split("..", 1)]
    if len(ends) != 2 or not all(_ASCII_INT.fullmatch(end) for end in ends):
        raise ParseError(f"bad range {args.range!r}; expected like -3..3")
    lo, hi = (_text_int(end, "range end") for end in ends)
    value = dskein.i_value if args.kind == "i-values" else dskein.torus_value
    if args.json:
        blob = {"format": TABLE_JSON_FORMAT, "kind": args.kind,
                "rows": [{"index": n, "value": poly_to_json(value(n))} for n in range(lo, hi + 1)]}
        print(json.dumps(blob, sort_keys=True))
    else:
        for n in range(lo, hi + 1):             # each row printed as soon as it is computed
            print(f"{n}\t{poly_to_text(value(n))}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# The verification suites: the one definition of acceptance criteria 1-8
# ---------------------------------------------------------------------------

class Check:
    """One acceptance check: computed and expected values in canonical text."""

    def __init__(self, name, run):
        self.name = name
        self.run = run


def _pair(computed, expected):
    ok = computed == expected
    return ok, _value_to_text(expected), _value_to_text(computed)


def _first_failure(*results):
    """One check result from several: the first that failed, else the first."""
    return next((r for r in results if not r[0]), results[0])


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
        t3 = dskein.T3_VECTOR
        i = dskein.i_value
        for n in range(-12, 13):
            forward = t3[0] + t3[1] * i(n - 2) + t3[2] * i(n - 1) + t3[3] * i(n) \
                + t3[4] * i(n + 1) + t3[5] * i(n + 2)
            backward = i(n + 3) - t3[0] - t3[2] * i(n - 1) - t3[3] * i(n) \
                - t3[4] * i(n + 1) - t3[5] * i(n + 2)
            if forward != i(n + 3) or backward != i(n - 2):
                return False, "recursion == (T3) pairing, both ways", f"mismatch at n={n}"
        return True, "recursion == (T3) pairing, both ways, for n in [-12,12]", "agrees"

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


def _homfly_checks(budget):
    eng = homfly.HomflyEngine(budget=budget)
    v, z = LaurentPoly.var("v"), LaurentPoly.var("z")

    def unknot_check():
        one = LaurentPoly.const(1, ("v", "z"))
        kinked = (dg.add_kinks(dg.add_kinks(dg.LinkDiagram((), (), 1), 0, first), 0, second)
                  for first, second in ((2, -1), (-2, 3)))
        return _first_failure(*(_pair(homfly.homfly_p(d, eng), one) for d in kinked))

    def trefoil_check():
        return _pair(homfly.homfly_p(_trefoil(), eng),
                     2 * v ** 2 - v ** 4 + v ** 2 * z ** 2)

    def adjoint_unknot():
        expected = RatFunc((v ** 2 + z * v - 1) * (v ** 2 - z * v - 1), z ** 2 * v ** 2)
        return _pair(RatFunc(homfly.h_adjoint(homfly.unknot_diagram(), eng)), expected)

    def k3_ratio():
        return RatFunc(homfly.h_adjoint(_trefoil(), eng)) \
            / RatFunc(homfly.h_adjoint(homfly.unknot_diagram(), eng))

    def adjoint_ratio():
        vv = RatFunc(v) - RatFunc(v) ** -1
        printed = RatFunc(1) - 3 * vv + vv * vv * (
            RatFunc(v + 4, v + 1) + RatFunc((v ** 2 + 4) * z ** 2 + z ** 4))
        return _pair(k3_ratio(), printed)

    def adjoint_series():
        z2 = z ** 2
        expected = DeltaSeries(3, {0: 1, 1: 3, 2: Fraction(5, 2) + 5 * z2 + z2 ** 2})
        return _pair(series_exp_v(k3_ratio(), 3), expected)

    def series_split():
        # 1 + 3d + d^2(9/2 - 2) + d^2 z^2 (z^2+5) splits as writhe/V2 + psi terms
        z2 = z ** 2
        psi = psi_series(dskein.qtilde(dskein.Torus2(3)))
        w = 3
        expected = DeltaSeries(3, {0: 1, 2: Fraction(w * w, 2) - 2 * homfly.v2(_trefoil(), eng)}) \
            + DeltaSeries(3, {k + 1: c for k, c in psi.coeffs.items()})
        return _first_failure(_pair(series_exp_v(k3_ratio(), 3), expected),
                              _pair(psi, DeltaSeries(2, {0: 3, 1: z2 * (z2 + 5)})))

    return [
        Check("homfly/unknot", unknot_check),
        Check("homfly/trefoil-oracle", trefoil_check),
        Check("homfly/adjoint-unknot", adjoint_unknot),
        Check("homfly/adjoint-ratio-k3", adjoint_ratio),
        Check("homfly/adjoint-series", adjoint_series),
        Check("homfly/series-split", series_split),
    ]


def _kauffman_checks(budget):
    eng = kauffman.KauffmanEngine(budget=budget)
    s, a = LaurentPoly.var("s"), LaurentPoly.var("a")
    u0 = dg.LinkDiagram((), None, 1)
    unknot_term = RatFunc(s ** 4 + 4 * s ** 2 + 1, s * (s ** 4 - 1))

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
        # the printed series vanishes at a = s, so the ratio (which the
        # alpha-eq-s checks pin to 1 there) carries a leading 1 the display dropped
        return _pair(ratio, RatFunc(1) + printed)

    def alpha_eq_s(diagram_factory):
        return lambda: _pair(kauffman.kauf_alpha_eq_s_check(diagram_factory(), eng), RatFunc(1))

    def derivative_u0():
        return _pair(kauffman.kauf_derivative_at_s(u0, eng), unknot_term)

    def derivative_k3():
        phi = {"sp": RatFunc(2 * s ** -2 + s ** 4), "sm": RatFunc(2 * s ** 2 + s ** -4)}
        phi_q = specialize(dskein.qtilde(dskein.Torus2(3)), phi)
        der = kauffman.kauf_derivative_at_s(_trefoil(), eng)
        # the unknot term rides outside the 2/s factor; both groupings
        # coincide at s=2 (where 2/s = 1), checked as a probe
        return _first_failure(
            _pair(der, RatFunc(2, s) * phi_q + unknot_term),
            _pair(der.subs_int("s", 2), (RatFunc(2, s) * (phi_q + unknot_term)).subs_int("s", 2)))

    def granny():
        t = _trefoil()
        return dg.connected_sum(t, 0, t, 0)

    return [
        Check("kauffman/adjoint-unknot-closed-form", unknot_closed),
        Check("kauffman/adjoint-unknot-probe", unknot_probe),
        Check("kauffman/adjoint-ratio-k3", ratio_k3),
        Check("kauffman/alpha-eq-s-unknot", alpha_eq_s(lambda: u0)),
        Check("kauffman/alpha-eq-s-hopf",
              alpha_eq_s(lambda: dg.braid_closure(dg.BraidWord(2, (1, 1))))),
        Check("kauffman/alpha-eq-s-k3", alpha_eq_s(_trefoil)),
        Check("kauffman/alpha-eq-s-granny (slow)", alpha_eq_s(granny)),
        Check("kauffman/derivative-unknot", derivative_u0),
        Check("kauffman/derivative-k3", derivative_k3),
    ]


def _conjecture_checks(budget):
    eng = homfly.HomflyEngine(budget=budget)

    def sides():
        k3 = dg.add_kinks(_trefoil(), 0, -3)
        q = dskein.qtilde(dskein.FramingShift(dskein.Torus2(3), -3))
        return homfly.conjecture_sides(k3, q, eng)

    def stated_rhs():
        z = LaurentPoly.var("z")
        return _pair(sides()[1], RatFunc(-2) + RatFunc(z ** 2 + 5, z ** 2))

    def identity():
        lhs, rhs = sides()
        return _pair(lhs, rhs)

    return [
        Check("conjecture/stated-rhs-k3", stated_rhs),
        Check("conjecture/zero-framed-k3 (stated form; known inconsistent)", identity),
    ]


_SUITE_CHECKS = {
    "qtilde": lambda budget: _qtilde_checks(),
    "homfly": _homfly_checks,
    "kauffman": _kauffman_checks,
    "conjecture": _conjecture_checks,
}
SUITES = ("all",) + tuple(_SUITE_CHECKS)


def checks(suite, budget):
    """The checks of one suite, or of every suite for "all", sorted by name.

    These checks are the only definition of acceptance criteria 1-8:
    ``verify`` runs them and tests/test_acceptance.py asserts through them.
    Each suite builds one engine, shared by its checks; no invariant is
    computed until a check runs.
    """
    suites = _SUITE_CHECKS if suite == "all" else (suite,)
    return sorted((c for name in suites for c in _SUITE_CHECKS[name](budget)),
                  key=lambda c: c.name)


def _cmd_verify(args):
    report = []
    failed = 0
    budget_hit = False
    for check in checks(args.suite, args.budget):
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


def _budget(text):
    """A budget such as 5000 or 1e3: finite, not negative, rounded down."""
    number = text.strip(_BLANKS)
    value = float(number) if _ASCII_FLOAT.fullmatch(number) else math.nan
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"budget must be a finite number >= 0, not {text!r}")
    return int(value)


def _order(text):
    """A series truncation order: an integer >= 1."""
    number = text.strip(_BLANKS)
    try:
        value = int(number) if _ASCII_INT.fullmatch(number) else 0
    except ValueError:          # more digits than int() converts
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"series order must be an integer >= 1, not {text!r}")
    return value


@functools.cache
def _build_parser():
    """The argument parser, built on first use and then shared within the process.

    ``parse_args`` keeps no state between calls: each returns a new
    namespace, and an error exits before any is returned.
    """
    parser = argparse.ArgumentParser(prog="skeinpoly",
                                     description="exact skein-recursion link invariants")
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariant", help="compute one invariant")
    p_inv.add_argument("kind", choices=("homfly", "homfly-ad", "kauffman",
                                        "kauffman-ad", "qtilde", "v2"))
    p_inv.add_argument("input", help="diagram, braid, or link-family text")
    p_inv.add_argument("--truncate", type=_order, default=None,
                       help="print the series expansion to this order instead")

    p_ver = sub.add_parser("verify", help="run acceptance checks")
    p_ver.add_argument("suite", nargs="?", choices=SUITES, default="all")

    p_tab = sub.add_parser("table", help="tabulate family values")
    p_tab.add_argument("kind", choices=("i-values", "qtilde-torus"))
    p_tab.add_argument("range", help="index range like -3..3")

    # each subcommand takes only the flags it reads
    for p in (p_inv, p_ver, p_tab):
        p.add_argument("--json", action="store_true", help="machine-readable output")
    for p in (p_inv, p_ver):
        p.add_argument("--budget", type=_budget, default=homfly.DEFAULT_BUDGET,
                       help="skein recursion node budget (polynomial terms for qtilde)")
    return parser


_RANGE_TOKEN = re.compile(r"^-[0-9]+\.\.-?[0-9]+$")


def main(argv=None):
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # negative table ranges like -3..3 would otherwise parse as flags; the
    # range moves last, behind "--", so that flags after it still parse
    for i, token in enumerate(argv):
        if _RANGE_TOKEN.match(token):
            start = i - 1 if argv[i - 1:i] == ["--"] else i
            del argv[start:i + 1]
            argv += ["--", token]
            break
    args = parser.parse_args(argv)
    command = {"invariant": _cmd_invariant, "table": _cmd_table, "verify": _cmd_verify}
    try:
        status = command[args.command](args)
        sys.stdout.flush()              # a closed pipe shows here, not at interpreter exit
        return status
    except BrokenPipeError:         # the rest goes to the null device, so exit flushes quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except ResourceLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except SkeinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
