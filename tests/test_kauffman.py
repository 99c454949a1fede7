import random
from fractions import Fraction

import pytest

from skeinpoly.diagrams import (
    BraidWord,
    CablePattern,
    LinkDiagram,
    add_kinks,
    braid_closure,
    cable2,
    canonical_key,
    mirror,
    parse_diagram,
    smoothed,
    switched,
)
from skeinpoly.errors import ResourceLimit
from skeinpoly.kauffman import (
    DubVal,
    KauffmanEngine,
    k_adjoint,
    kauf_alpha_eq_s_check,
    kauffman_lambda,
)
from skeinpoly.rings import LaurentPoly, RatFunc, poly_gcd

V = LaurentPoly.var


def closure(word, strands=2):
    return braid_closure(BraidWord(strands, tuple(word)))


def delta():
    s, a = V("s"), V("a")
    return RatFunc(s - s ** -1 + a - a ** -1, s - s ** -1)


def at(r, sval, aval):
    return r.subs_int("s", sval).subs_int("a", aval)


def test_circle_and_empty():
    assert kauffman_lambda(parse_diagram("O:1")) == delta()
    assert at(kauffman_lambda(parse_diagram("O:1")), 2, 3) == Fraction(25, 9)
    assert kauffman_lambda(LinkDiagram((), None, 0)) == RatFunc(1)
    assert kauffman_lambda(LinkDiagram((), None, 3)) == delta() ** 3


def test_curl_values():
    # the projector's twist crossing (chirality +1) curls to a^{+1}
    plus = cable2(parse_diagram("O:1"), {0: CablePattern.twisted(1)})
    a = RatFunc(V("a"))
    assert kauffman_lambda(plus) == a * delta()
    minus = cable2(parse_diagram("O:1"), {0: CablePattern.twisted(-1)})
    assert kauffman_lambda(minus) == delta() / a


def test_skein_axiom_random():
    # D(X) - D(switch X) = (s - 1/s)(D(join01) - D(join03)) at every crossing
    eng = KauffmanEngine()
    s = V("s")
    sminus = RatFunc(s - s ** -1)
    rng = random.Random(424242)
    for _ in range(12):
        n = rng.randint(2, 3)
        word = tuple(rng.choice([1, -1]) * rng.randint(1, n - 1)
                     for _ in range(rng.randint(1, 5)))
        d = braid_closure(BraidWord(n, word))
        d = LinkDiagram(d.crossings, None, d.free_loops)
        for ci in range(len(d.crossings)):
            lhs = eng.value(d).ratfunc() - eng.value(switched(d, ci)).ratfunc()
            rhs = sminus * (eng.value(smoothed(d, ci, "01")).ratfunc()
                            - eng.value(smoothed(d, ci, "03")).ratfunc())
            assert lhs == rhs


def test_regular_isotopy_invariance():
    eng = KauffmanEngine()
    # R2, R3 moves leave the value fixed
    assert eng.value(closure([1, -1, 2], 3)) == eng.value(closure([2], 3))
    assert eng.value(closure([1, 2, 1], 3)) == eng.value(closure([2, 1, 2], 3))
    # a curl multiplies by a^(+-1)
    t = LinkDiagram(closure([1, 1, 1]).crossings, None, 0)
    a = RatFunc(V("a"))
    assert kauffman_lambda(add_kinks(t, 0, 1), eng) == a * kauffman_lambda(t, eng)
    assert kauffman_lambda(add_kinks(t, 0, -1), eng) == kauffman_lambda(t, eng) / a


def test_mirror_rule():
    eng = KauffmanEngine()
    for word in ((1, 1), (1, 1, 1)):
        d = LinkDiagram(closure(word).crossings, None, 0)
        m = kauffman_lambda(mirror(d), eng)
        p = kauffman_lambda(d, eng)
        inverted = RatFunc(
            LaurentPoly(p.num.vars, {tuple(-e for e in k): c for k, c in p.num.terms.items()}),
            LaurentPoly(p.den.vars, {tuple(-e for e in k): c for k, c in p.den.terms.items()}))
        assert m == inverted


def test_hopf_value():
    # one skein step by hand: switching a Hopf crossing gives the unlink,
    # the two joins give opposite curls
    s, a = V("s"), V("a")
    dl = delta()
    expected = dl * dl + RatFunc(s - s ** -1) * RatFunc(a - a ** -1) * dl
    assert kauffman_lambda(closure([1, 1])) == expected


def test_memo_and_walk_invariance():
    d = closure([1, -1, 2, 2, 1], 3)
    reference = KauffmanEngine(memo=False).value(d)
    assert KauffmanEngine(memo=True).value(d) == reference
    for seed in range(4):
        assert KauffmanEngine(memo=False, rng=random.Random(seed)).value(d) == reference


def test_budget():
    eng = KauffmanEngine(budget=2)
    with pytest.raises(ResourceLimit):
        eng.value(closure([1, 1, 1, -1, 1]))


def test_k_adjoint_insertion_invariance():
    # cable2 inserts at the component's smallest edge id, so swapping that
    # id with e moves the projector to edge e; on the stabilized trefoil
    # each insertion point gives a distinct cable
    eng = KauffmanEngine()
    t = closure([1, 1, 1, 2], 3)
    comp = t.edge_components()[0]
    values, keys = set(), set()
    for e in comp:
        swap = {e: comp[0], comp[0]: e}
        d = LinkDiagram([[swap.get(x, x) for x in c] for c in t.crossings], None, 0)
        cable = cable2(d, {0: CablePattern.twisted(1)}, mode="parallel")
        keys.add(canonical_key(cable))
        values.add(eng.value(cable))
    assert len(keys) > 1
    assert len(values) == 1


def test_alpha_eq_s_kinked_unknot():
    u1 = add_kinks(parse_diagram("O:1"), 0, 1)
    assert kauf_alpha_eq_s_check(u1, KauffmanEngine()) == RatFunc(1)


def test_dubval_reduction():
    s, a, z = V("s"), V("a"), V("z")
    v = DubVal((a + 1) * z ** -1)
    assert v.k == 1 and v.num == a + 1
    assert v.ratfunc() == RatFunc(a + 1, s - s ** -1)
    assert repr(v) == "DubVal(LaurentPoly('z^-1 + a*z^-1'))"


def test_loop_value_at_alpha_eq_s_is_two():
    from skeinpoly.rings import substitute_equal
    assert substitute_equal(delta(), "a", "s") == RatFunc(2)


@pytest.mark.xfail(strict=True, reason="FOUND in CHANGES.md (kauffman-ad print form): "
                   "k_adjoint sums RatFuncs whose parts pass GCD_DEGREE_BOUND, so no GCD "
                   "is taken and the Hopf link keeps a degree-60 common factor")
def test_kauffman_ad_prints_in_lowest_terms():
    value = k_adjoint(closure([1, 1]))
    assert poly_gcd(value.num, value.den).is_const()
