"""The acceptance gate: one test per criterion, exact equality throughout.

Criteria 1-8 run named checks of ``skeinpoly verify`` (``cli.checks``), the only copy of
the values printed in the paper.  Each prints a PASS/FAIL line (seen with -s).  Criterion
8's stated identity is a strict xfail; test_homfly checks the corrected form on two knots.
"""

import random

import pytest

from skeinpoly import diagrams as dg
from skeinpoly import dskein, homfly, kauffman
from skeinpoly.cli import checks
from skeinpoly.rings import LaurentPoly, RatFunc, specialize

# every suite's checks, each suite with one engine shared by its checks
CHECKS = {c.name: c for c in checks("all", homfly.DEFAULT_BUDGET)}


def report(criterion, names, detail):
    """Print the criterion's PASS/FAIL line: it holds when each named check passes."""
    failures = []
    for name in names:
        ok, expected, computed = CHECKS[name].run()
        if not ok:
            failures.append(f"{name}: expected {expected}, computed {computed}")
    line = "; ".join([detail] + failures)
    print(f"{'FAIL' if failures else 'PASS'} criterion {criterion}: {line}")
    assert not failures, f"criterion {criterion} failed: {line}"


def test_criterion_1_qtilde_values():
    report(1, [f"qtilde/torus({m})" for m in (-1, 0, 1, 2, 3, 5)]
           + [f"qtilde/i({n})" for n in range(-3, 4)], "printed torus and trivalent-closure values")


def test_criterion_2_recursion_coherence():
    report(2, ["qtilde/recursion-coherence"], "recursion = printed 6-vector; round-trips agree")


def test_criterion_3_integrality():
    report(3, ["qtilde/integrality"], "integer coefficients, nonnegative exponents for |m| <= 15")


def test_criterion_4_homfly_engine():
    report(4, ["homfly/unknot", "homfly/trefoil-oracle", "homfly/adjoint-unknot"],
           "P on kinked unknots, trefoil oracle, adjoint unknot closed form")


def test_criterion_5_adjoint_ratio():
    report(5, ["homfly/adjoint-ratio-k3", "homfly/adjoint-series"],
           "printed closed form and its series expansion")


def test_criterion_6_series_split():
    report(6, ["homfly/series-split"], "the series splits as writhe/V2 + psi terms")


def test_criterion_7_kauffman_values():
    report(7, [f"kauffman/{n}" for n in ("adjoint-unknot-closed-form", "adjoint-unknot-probe",
               "adjoint-ratio-k3", "alpha-eq-s-unknot", "alpha-eq-s-hopf", "alpha-eq-s-k3",
               "derivative-unknot", "derivative-k3")],
           "adjoint Kauffman closed forms, a=s specialization, derivative identities")


@pytest.mark.slow
def test_criterion_7_connected_sum():
    report("7 (connected sum)", ["kauffman/alpha-eq-s-granny (slow)"],
           "a=s specialization equals 1 on a connected sum")


def test_criterion_8_rhs_formula():
    report("8 (rhs formula)", ["conjecture/stated-rhs-k3"], "rhs matches the stated form")


@pytest.mark.slow
@pytest.mark.xfail(strict=True, reason=(
    "the stated identity divides by z^2 where the verified expansion law multiplies by z^2; "
    "orientation conventions were re-examined first and are pinned by criterion 5; "
    "the corrected identity is machine-checked on two knots in test_homfly"))
def test_criterion_8_identity_as_stated():
    report(8, ["conjecture/zero-framed-k3 (stated form; known inconsistent)"], "lhs = stated rhs")


def test_criterion_9_property_suites():
    # rings: ring axioms and homomorphism laws are covered in test_rings;
    # spot-check a composite law here with a fixed seed
    rng = random.Random(2024)
    for _ in range(10):
        p = LaurentPoly(("sp", "sm"), {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-4, 4)
                                       for _ in range(3)})
        q = LaurentPoly(("sp", "sm"), {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-4, 4)
                                       for _ in range(3)})
        s = LaurentPoly.var("s")
        phi = {"sp": RatFunc(2 * s ** -2 + s ** 4), "sm": RatFunc(2 * s ** 2 + s ** -4)}
        assert specialize(p * q, phi) == specialize(p, phi) * specialize(q, phi)

    # diagrams: cable writhe-0 invariant on random braids
    for _ in range(6):
        n = rng.randint(2, 3)
        word = tuple(rng.choice([1, -1]) * rng.randint(1, n - 1)
                     for _ in range(rng.randint(1, 6)))
        d = dg.braid_closure(dg.BraidWord(n, word))
        pats = {i: dg.CablePattern.parallel2() for i in range(d.num_components())}
        assert dg.writhe_data(dg.cable2(d, pats, mode="antiparallel"))[0] == 0

    # engines: memo-on/off and walk-order invariance on a fixed diagram
    d = dg.braid_closure(dg.BraidWord(3, (1, -2, 1, 2)))
    p_ref = homfly.homfly_p(d, homfly.HomflyEngine(memo=False))
    assert homfly.homfly_p(d, homfly.HomflyEngine(memo=True)) == p_ref
    assert homfly.HomflyEngine(memo=False, rng=random.Random(3)).p(d) == p_ref
    du = dg.LinkDiagram(d.crossings, None, d.free_loops)
    k_ref = kauffman.KauffmanEngine(memo=False).value(du)
    assert kauffman.KauffmanEngine(memo=True).value(du) == k_ref
    assert kauffman.KauffmanEngine(memo=False, rng=random.Random(4)).value(du) == k_ref

    # dskein: framing slope and mirror pattern
    for _ in range(10):
        m = rng.randint(-6, 6)
        k = rng.randint(-4, 4)
        assert dskein.qtilde(dskein.FramingShift(dskein.Torus2(m), k)) == \
            dskein.torus_value(m) + LaurentPoly.const(k, ("sp", "sm"))
    from skeinpoly.rings import sigma_swap
    for n in range(-10, 11):
        assert dskein.i_value(-n) == sigma_swap(dskein.i_value(n))
        assert dskein.torus_value(-n) == -sigma_swap(dskein.torus_value(n))

    report(9, [], "property suites (seeded) all hold")
