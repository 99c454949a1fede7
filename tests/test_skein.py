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
from skeinpoly.homfly import HomflyEngine, framed_h
from skeinpoly.kauffman import KauffmanEngine, k_adjoint


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
    engine = KauffmanEngine()
    per_term = []
    for _, term in kauffman_adjoint_expansion(closure([1, 1, 1])):
        engine.value(term)
        per_term.append(engine.nodes)
    assert per_term == [274, 625, 1]
    assert len(engine.memo) == 308


def test_budget_bounds_the_engine_lifetime():
    engine = KauffmanEngine(budget=900)
    k_adjoint(closure([1, 1, 1]), engine)
    assert (engine.nodes, engine.lifetime_nodes) == (1, 900)
    engine = KauffmanEngine(budget=899)
    with pytest.raises(ResourceLimit) as exc:
        k_adjoint(closure([1, 1, 1]), engine)
    assert exc.value.nodes == 900
