"""The shared skein recursion: its node and memo counts, and its budget.

The counts follow from the strip order (the first curl by index, else the
first strippable bigon, then restart) and from which diagrams get
memoized, so a change to either shows here even when every value stays
the same.
"""

import pytest

from skeinpoly.diagrams import (
    BraidWord,
    braid_closure,
    homfly_adjoint_expansion,
    kauffman_adjoint_expansion,
)
from skeinpoly.errors import ResourceLimit
from skeinpoly.homfly import DELTA, HomflyEngine, framed_h
from skeinpoly.kauffman import KauffmanEngine, k_adjoint
from skeinpoly.rings import LaurentPoly


def closure(word, strands=2):
    return braid_closure(BraidWord(strands, tuple(word)))


def test_homfly_adjoint_recursion_counts():
    for d, nodes, memo_entries in ((closure([1, 1, 1]), [0, 43], 21),
                                   (closure([1, -2, 1, -2], 3), [0, 165], 82)):
        engine = HomflyEngine()
        per_term = []
        for _, term in homfly_adjoint_expansion(d):
            framed_h(term, engine)
            per_term.append(engine.nodes)
        assert per_term == nodes
        assert len(engine.memo) == memo_entries


def test_kauffman_adjoint_recursion_counts():
    # the figure-eight's cables have 16 and 17 crossings
    for d, nodes, memo_entries in ((closure([1, 1, 1]), [274, 625, 1], 308),
                                   (closure([1, -2, 1, -2], 3), [3874, 9355, 1], 4689)):
        engine = KauffmanEngine()
        per_term = []
        for _, term in kauffman_adjoint_expansion(d):
            engine.value(term)
            per_term.append(engine.nodes)
        assert per_term == nodes
        assert len(engine.memo) == memo_entries


def test_budget_bounds_the_engine_lifetime():
    engine = KauffmanEngine(budget=900)
    k_adjoint(closure([1, 1, 1]), engine)
    assert (engine.nodes, engine.lifetime_nodes) == (1, 900)
    engine = KauffmanEngine(budget=899)
    with pytest.raises(ResourceLimit) as exc:
        k_adjoint(closure([1, 1, 1]), engine)
    assert exc.value.nodes == 900


def test_large_diagrams_key_canonically():
    # the 61-crossing closure of T(2, 61): every diagram the recursion meets
    # is an isomorphic copy of some T(2, n), so the memo holds one entry per n
    d = closure([1] * 61)
    engine = HomflyEngine()
    value = engine.p(d)
    # P(L+) = v^2 P(L-) + v z P(L0) on T(2, n), T(2, n - 2) and T(2, n - 1)
    v2, vz = LaurentPoly(("v", "z"), {(2, 0): 1}), LaurentPoly(("v", "z"), {(1, 1): 1})
    p = [DELTA, LaurentPoly.const(1, ("v", "z"))]
    for _ in range(2, 62):
        p.append(v2 * p[-2] + vz * p[-1])
    assert value == p[61]
    assert (engine.nodes, len(engine.memo)) == (121, 60)
    engine = KauffmanEngine()
    engine.value(d)
    assert (engine.nodes, len(engine.memo)) == (181, 60)
