"""Both skein engines checked against the Jones polynomial by state sum.

The Kauffman bracket of a PD code is summed over its 2^n smoothings
(Kauffman, "State models and the Jones polynomial", Topology 26, 1987),
counting loops with a union-find of its own.  Nothing here runs the
engines' recursion, surgery, face or splitting code; ``braid_closure``
and ``kauffman_adjoint_expansion`` only build the inputs.

Conventions: the A-smoothing of a crossing joins slots (0,1) and (2,3),
the B-smoothing joins (0,3) and (1,2).  A state with a A-smoothings, b
B-smoothings and l loops weighs A^(a-b) d^l, with d = -A^2 - A^-2, and
the empty diagram is worth 1.  A is the variable ``s``.  Then, with w
the writhe,

    D(a, s) at s = A, a = -A^3            equals  <D>,
    P(v, z) at v = A^-4, z = A^-2 - A^2   equals  (-A^3)^(-w) <D> / d.
"""

import random
from collections import Counter
from itertools import product

import pytest

from skeinpoly.diagrams import BraidWord, braid_closure, kauffman_adjoint_expansion
from skeinpoly.homfly import homfly_p
from skeinpoly.kauffman import kauffman_lambda
from skeinpoly.rings import LaurentPoly, RatFunc, specialize

A = LaurentPoly.var("s")
LOOP = -A ** 2 - A ** -2

FIXED = [
    BraidWord(1, ()),                # the unknot
    BraidWord(2, ()),                # the two-component unlink
    BraidWord(2, (1,)),              # a positively kinked unknot
    BraidWord(2, (-1,)),             # a negatively kinked unknot
    BraidWord(2, (1, 1, 1)),         # the right-handed trefoil
    BraidWord(2, (-1, -1, -1)),      # the left-handed trefoil
    BraidWord(3, (1, -2, 1, -2)),    # the figure-eight knot
]


def random_braids(count=30, seed=20240607):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        strands = rng.randint(2, 4)
        length = rng.randint(0, 12)
        out.append(BraidWord(strands, tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1)
                                            for _ in range(length))))
    return out


CASES = FIXED + random_braids()


def bracket(d) -> LaurentPoly:
    """<D> in the variable ``s`` by the state sum over all smoothings."""
    edges = sorted({e for x in d.crossings for e in x})
    index = {e: i for i, e in enumerate(edges)}
    states = Counter()                    # (a - b, loops) -> number of states
    for choice in product((0, 1), repeat=len(d.crossings)):
        parent = list(range(len(edges)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        loops = len(edges)
        for x, b in zip(d.crossings, choice):
            for e, f in (((x[0], x[3]), (x[1], x[2])) if b else ((x[0], x[1]), (x[2], x[3]))):
                r, t = find(index[e]), find(index[f])
                if r != t:
                    parent[r] = t
                    loops -= 1
        states[(len(choice) - 2 * sum(choice), loops + d.free_loops)] += 1
    total = LaurentPoly.const(0, ("s",))
    for (k, loops), n in states.items():
        total = total + n * A ** k * LOOP ** loops
    return total


def jones(d) -> RatFunc:
    """The Jones polynomial at t = A^-4, from the bracket and the writhe."""
    return RatFunc((-A ** 3) ** -sum(d.signs) * bracket(d), LOOP)


def test_state_sum_gives_published_values():
    assert bracket(braid_closure(BraidWord(1, ()))) == LOOP
    # V(right-handed trefoil) = t + t^3 - t^4
    t = A ** -4
    assert jones(braid_closure(BraidWord(2, (1, 1, 1)))) == t + t ** 3 - t ** 4
    # V(figure-eight) = t^-2 - t^-1 + 1 - t + t^2
    assert jones(braid_closure(BraidWord(3, (1, -2, 1, -2)))) == (
        t ** -2 - t ** -1 + 1 - t + t ** 2)


def test_dubrovnik_at_jones_point_is_the_bracket():
    for b in CASES:
        d = braid_closure(b)
        assert specialize(kauffman_lambda(d), {"s": A, "a": -A ** 3}) == RatFunc(bracket(d)), b


def _check_adjoint_terms(b):
    for _, term in kauffman_adjoint_expansion(braid_closure(b)):
        assert specialize(kauffman_lambda(term), {"s": A, "a": -A ** 3}) == RatFunc(bracket(term)), b


@pytest.mark.parametrize("b", [BraidWord(2, (1, 1)), BraidWord(2, (1, 1, 1))],
                         ids=["hopf", "trefoil"])
def test_dubrovnik_at_jones_point_on_adjoint_cables(b):
    # the unoriented 2-cables of 8 to 13 crossings, the walks the engine
    # chooses directions and orders for
    _check_adjoint_terms(b)


@pytest.mark.slow
def test_dubrovnik_at_jones_point_on_stabilised_trefoil_cables():
    # 16 and 17 crossings: 2^17 states
    _check_adjoint_terms(BraidWord(3, (1, 1, 1, 2)))


def test_homfly_at_jones_point_is_the_jones_polynomial():
    for b in CASES:
        d = braid_closure(b)
        assert specialize(homfly_p(d), {"v": A ** -4, "z": A ** -2 - A ** 2}) == jones(d), b
