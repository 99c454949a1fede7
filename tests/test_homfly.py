import random

import pytest

from skeinpoly.diagrams import (
    BraidWord,
    CablePattern,
    LinkDiagram,
    add_kinks,
    braid_closure,
    cable2,
    connected_sum,
    disjoint_union,
    homfly_adjoint_expansion,
    mirror,
)
from skeinpoly.errors import NotAKnot, ResourceLimit, ValidationError
from skeinpoly.homfly import (
    DELTA,
    HomflyEngine,
    conjecture_sides,
    framed_h,
    h_adjoint,
    homfly_p,
    unknot_diagram,
    v2,
)
from skeinpoly.rings import LaurentPoly, RatFunc, limit_order2_at_v1, series_exp_v

V = LaurentPoly.var


def closure(word, strands=2):
    return braid_closure(BraidWord(strands, tuple(word)))


# Frozen skein oracle, derived by hand from the defining relation:
# switching one crossing of the Hopf link gives the unlink and the unknot.
P_HOPF = (V("v") - V("v") ** 3) * V("z") ** -1 + V("v") * V("z")


def test_unknot_variants():
    assert homfly_p(unknot_diagram()) == LaurentPoly.const(1)
    kinked = add_kinks(LinkDiagram((), (), 1), 0, 3)
    assert homfly_p(kinked) == LaurentPoly.const(1)
    kinked2 = add_kinks(add_kinks(LinkDiagram((), (), 1), 0, -2), 0, 1)
    assert homfly_p(kinked2) == LaurentPoly.const(1)


def test_unlink_and_hopf():
    assert homfly_p(LinkDiagram((), (), 2)) == DELTA
    assert homfly_p(closure([1, 1])) == P_HOPF


def test_mirror_rule():
    # P(mirror)(v, z) = P(v^-1, -z)
    for word in ((1, 1, 1), (1, 1)):
        p = homfly_p(closure(word))
        m = homfly_p(mirror(closure(word)))
        flipped = LaurentPoly(p.vars, {(-ev, ez): (-c if ez % 2 else c)
                                       for (ev, ez), c in p.terms.items()})
        assert m == flipped


def test_kink_invariance_random():
    rng = random.Random(88)
    for _ in range(10):
        n = rng.randint(2, 3)
        word = tuple(rng.choice([1, -1]) * rng.randint(1, n - 1)
                     for _ in range(rng.randint(1, 6)))
        d = braid_closure(BraidWord(n, word))
        comp = rng.randrange(d.num_components())
        assert homfly_p(add_kinks(d, comp, rng.choice([-2, -1, 1, 2]))) == homfly_p(d)


def test_disjoint_union_and_connected_sum():
    t = closure([1, 1, 1])
    p = homfly_p(t)
    assert homfly_p(disjoint_union(t, t)) == p * p * DELTA
    granny = connected_sum(t, 0, t, 0)
    assert homfly_p(granny) == p * p


def test_walk_order_invariance():
    d = closure([1, -1, 2, 2, 1], strands=3)
    reference = homfly_p(d, HomflyEngine(memo=False))
    for seed in range(6):
        eng = HomflyEngine(memo=False, rng=random.Random(seed))
        assert eng.p(d) == reference
    assert homfly_p(d, HomflyEngine(memo=True)) == reference


def test_memo_on_off_agreement_random():
    rng = random.Random(5150)
    for _ in range(8):
        n = rng.randint(2, 3)
        word = tuple(rng.choice([1, -1]) * rng.randint(1, n - 1)
                     for _ in range(rng.randint(1, 7)))
        d = braid_closure(BraidWord(n, word))
        assert homfly_p(d, HomflyEngine(memo=True)) == homfly_p(d, HomflyEngine(memo=False))


def test_budget():
    eng = HomflyEngine(budget=2)
    with pytest.raises(ResourceLimit):
        eng.p(closure([1, 1, 1, 1, -1, 1]))


def test_framed_h():
    assert framed_h(LinkDiagram((), (), 0)) == LaurentPoly.const(1)
    assert framed_h(unknot_diagram()) == DELTA.with_vars(("v", "z", "lam"))
    kinked = add_kinks(LinkDiagram((), (), 1), 0, 1)
    lam = V("lam")
    assert framed_h(kinked) == DELTA * lam


def test_h_adjoint_empty():
    assert h_adjoint(LinkDiagram((), (), 0)) == LaurentPoly.const(1)


def test_h_adjoint_framed_invariance():
    t = closure([1, 1, 1])
    padded = add_kinks(add_kinks(t, 0, 2), 0, -2)
    assert h_adjoint(t) == h_adjoint(padded)


def test_h_adjoint_of_plus_one_unknot_is_negative_hopf():
    # independent oracle: the antiparallel double of the +1-framed unknot
    # is the negative Hopf link
    u_plus = add_kinks(LinkDiagram((), (), 1), 0, 1)
    cable = [d for s, d in homfly_adjoint_expansion(u_plus) if s == 1][0]
    v, z = V("v"), V("z")
    p_hopf_minus = (v ** -3 - v ** -1) * z ** -1 - v ** -1 * z
    assert homfly_p(cable) == p_hopf_minus
    assert h_adjoint(u_plus) == p_hopf_minus * DELTA - 1


def test_insertion_point_invariance():
    # cable2 inserts at the component's smallest edge id, so swapping that
    # id with e moves the insertion to edge e
    t = closure([1, 1, 1])
    comp = t.edge_components()[0]
    values = set()
    for e in comp:
        swap = {e: comp[0], comp[0]: e}
        d = LinkDiagram([[swap.get(x, x) for x in c] for c in t.crossings], t.signs)
        values.add(homfly_p(cable2(d, {0: CablePattern.parallel2()}, mode="antiparallel")))
    assert len(values) == 1


def test_v2_values():
    assert v2(unknot_diagram()) == 0
    assert v2(closure([1, 1, 1])) == 1
    assert v2(mirror(closure([1, 1, 1]))) == 1
    t = closure([1, 1, 1])
    assert v2(connected_sum(t, 0, t, 0)) == 2
    with pytest.raises(NotAKnot):
        v2(closure([1, 1]))


def test_conjecture_sides_unknot():
    lhs, rhs = conjecture_sides(unknot_diagram(), LaurentPoly(("sp", "sm"), {}))
    assert rhs == RatFunc(0)
    assert lhs == RatFunc(0)


def test_conjecture_sides_rhs_trefoil():
    # the engine side of the identity for the 0-framed trefoil, verified
    # against the expansion law -2*V2 - z^2 * (q/(sp-sm))|_{sp=sm=z^2+3} on
    # two independent knots; cli.checks holds the stated rhs
    k3 = add_kinks(closure([1, 1, 1]), 0, -3)
    q = LaurentPoly(("sp", "sm"), {(1, 0): -2, (0, 1): 2, (1, 1): -1, (0, 2): 1})
    lhs, _ = conjecture_sides(k3, q)
    z = V("z")
    assert lhs == RatFunc(-2 + 5 * z ** 2 + z ** 4)


def test_conjecture_sides_framing_precondition():
    with pytest.raises(ValidationError):
        conjecture_sides(closure([1, 1, 1]), LaurentPoly(("sp", "sm"), {}))


def test_corrected_conjecture_identity_k5():
    # the z^2 form of the identity on a second knot: 0-framed (2,5) torus knot
    k5 = add_kinks(closure([1, 1, 1, 1, 1]), 0, -5)
    from skeinpoly.dskein import FramingShift, Torus2, qtilde
    q = qtilde(FramingShift(Torus2(5), -5))
    lhs, _ = conjecture_sides(k5, q)
    z = V("z")
    expected = RatFunc(LaurentPoly.const(-6, ("z",)) + 39 * z ** 2 + 29 * z ** 4
                       + 9 * z ** 6 + z ** 8)
    assert lhs == expected


def test_series_of_ratio_matches_limit():
    eng = HomflyEngine()
    k3 = add_kinks(closure([1, 1, 1]), 0, -3)
    ratio = RatFunc(h_adjoint(k3, eng)) / RatFunc(h_adjoint(unknot_diagram(), eng))
    series = series_exp_v(ratio, 3)
    limit = limit_order2_at_v1(ratio)
    assert series.coefficient(1).is_zero()
    assert RatFunc(series.coefficient(2)) == limit


def test_skein_axiom_every_crossing_random():
    # (1/v) P(L+) - v P(L-) = z P(L0) checked at every crossing
    eng = HomflyEngine()
    v, z = V("v"), V("z")
    rng = random.Random(13579)
    from skeinpoly.diagrams import oriented_smoothed, switched
    from skeinpoly.diagrams import _orient_arbitrarily
    for _ in range(12):
        n = rng.randint(2, 3)
        word = tuple(rng.choice([1, -1]) * rng.randint(1, n - 1)
                     for _ in range(rng.randint(1, 5)))
        d = braid_closure(BraidWord(n, word))
        for ci in range(len(d.crossings)):
            if d.signs[ci] == 1:
                plus, minus = d, switched(d, ci)
            else:
                plus, minus = switched(d, ci), d
            smooth = _orient_arbitrarily(oriented_smoothed(d, ci))
            lhs = v ** -1 * eng.p(plus) - v * eng.p(minus)
            assert lhs == z * eng.p(smooth)
