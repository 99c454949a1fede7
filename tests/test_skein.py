"""The shared skein recursion: its node and memo counts, and its budget.

The counts follow from the strip order (the first curl by index, else the
first strippable bigon, then restart) and from which diagrams get
memoized, so a change to either shows here even when every value stays
the same.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from skeinpoly.diagrams import (
    BraidWord,
    LinkDiagram,
    add_kinks,
    braid_closure,
    homfly_adjoint_expansion,
    kauffman_adjoint_expansion,
)
from skeinpoly.errors import ResourceLimit, ValidationError
from skeinpoly.homfly import DELTA, HomflyEngine, framed_h, h_adjoint, homfly_p
from skeinpoly.kauffman import KauffmanEngine, k_adjoint, kauffman_lambda
from skeinpoly.rings import LaurentPoly, poly_to_text


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
    # the figure-eight's cables have 16 and 17 crossings; the 0-framed
    # trefoil's have 24 and 25, the case a walk in one fixed direction and
    # order handled worst (15,189 nodes)
    for d, nodes, memo_entries in ((closure([1, 1, 1]), [265, 229, 1], 176),
                                   (closure([1, -2, 1, -2], 3), [2107, 3043, 1], 1908),
                                   (add_kinks(closure([1, 1, 1]), 0, -3), [511, 10, 1], 185)):
        engine = KauffmanEngine()
        per_term = []
        for _, term in kauffman_adjoint_expansion(d):
            engine.value(term)
            per_term.append(engine.nodes)
        assert per_term == nodes
        assert len(engine.memo) == memo_entries


def test_budget_bounds_the_engine_lifetime():
    engine = KauffmanEngine(budget=495)
    k_adjoint(closure([1, 1, 1]), engine)
    assert (engine.nodes, engine.lifetime_nodes) == (1, 495)
    engine = KauffmanEngine(budget=494)
    with pytest.raises(ResourceLimit) as exc:
        k_adjoint(closure([1, 1, 1]), engine)
    assert exc.value.nodes == 495


def test_engines_refuse_a_non_planar_pd_code():
    # well-formed and consistently oriented, but 2 faces where Euler's
    # formula needs 4: the parsers refuse it, and so does every engine root
    # built through the Python API, the cables of the adjoint sums included
    g = LinkDiagram([(1, 2, 3, 4), (3, 4, 1, 2)], (1, 1), 0)
    unoriented = LinkDiagram(g.crossings, None, 0)
    for invariant, d in ((homfly_p, g), (h_adjoint, g),
                         (kauffman_lambda, unoriented), (k_adjoint, unoriented)):
        with pytest.raises(ValidationError, match="not planar"):
            invariant(d)


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


# The recursion of T(2, 101) is about 100 nodes deep.  The engines keep
# their nodes on an explicit stack, so a limit of 150 frames suffices, and
# they must leave the limit as they found it.
_LOW_LIMIT = """
import sys
sys.setrecursionlimit(150)
from skeinpoly.diagrams import BraidWord, braid_closure
from skeinpoly.homfly import HomflyEngine
from skeinpoly.kauffman import KauffmanEngine
from skeinpoly.rings import poly_to_text
d = braid_closure(BraidWord(2, (1,) * 101))
homfly, kauffman = HomflyEngine(), KauffmanEngine()
print(poly_to_text(homfly.p(d)))
print(kauffman.value(d).ratfunc().to_text())
print(homfly.nodes, kauffman.nodes, sys.getrecursionlimit())
"""


def test_deep_recursion_leaves_the_recursion_limit_alone():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", _LOW_LIMIT], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    d = closure([1] * 101)
    assert out.stdout.splitlines() == [poly_to_text(HomflyEngine().p(d)),
                                       KauffmanEngine().value(d).ratfunc().to_text(),
                                       "201 301 150"]
