"""Identities between the values of different diagrams, as independent oracles.

Each test ties the value of one diagram to the values of others: a
connected sum or split union to its summands, a mirror image to its
original.  The engines evaluate each side apart and never see the
identity, and only public functions are called.  Engines built with
``memo=False`` keep the memo out of the multiplicativity checks.
"""

import random

from skeinpoly.diagrams import (
    BraidWord,
    LinkDiagram,
    add_kinks,
    braid_closure,
    connected_sum,
    disjoint_union,
    mirror,
)
from skeinpoly.homfly import HomflyEngine, h_adjoint, homfly_p
from skeinpoly.kauffman import KauffmanEngine, k_adjoint
from skeinpoly.rings import LaurentPoly, RatFunc, exact_divide

V = LaurentPoly.var


def _pairs(seed, count):
    """Seeded pairs of braid closures, each kinked on one component half the time."""
    rng = random.Random(seed)
    closures = []
    for _ in range(2 * count):
        n = rng.randint(2, 3)
        word = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                     for _ in range(rng.randint(1, 7)))
        d = braid_closure(BraidWord(n, word))
        if rng.random() < 0.5:
            d = add_kinks(d, rng.randrange(d.num_components()), rng.choice((-2, -1, 1, 2)))
        closures.append(d)
    return [(a, b, rng.randrange(a.num_components()), rng.randrange(b.num_components()))
            for a, b in zip(closures[::2], closures[1::2])]


def _unoriented(d):
    return LinkDiagram(d.crossings, None, d.free_loops)


def test_homfly_is_multiplicative():
    # P(A # B) = P(A) P(B) and P(A u B) = delta_P P(A) P(B), delta_P = (1/v - v)/z
    delta = (V("v") ** -1 - V("v")) * V("z") ** -1
    engine = HomflyEngine(memo=False)
    sums = 0
    for a, b, ca, cb in _pairs(2101, 20):
        pa, pb = homfly_p(a, engine), homfly_p(b, engine)
        assert homfly_p(connected_sum(a, ca, b, cb), engine) == pa * pb
        assert homfly_p(disjoint_union(a, b), engine) == delta * pa * pb
        sums += bool(a.crossings and b.crossings)
    assert sums >= 15


def test_kauffman_is_multiplicative_and_divisible_by_delta():
    # D(A # B) delta = D(A) D(B) and D(A u B) = D(A) D(B), delta = 1 + (a - 1/a)/z,
    # on oriented and unoriented sums; every D is delta times a Laurent polynomial
    delta = 1 + (V("a") - V("a") ** -1) * V("z") ** -1
    engine = KauffmanEngine(memo=False)
    checked = 0
    for a, b, ca, cb in _pairs(2102, 20):
        for x, y in ((a, b), (_unoriented(a), _unoriented(b))):
            dx, dy = engine.value(x), engine.value(y)
            summed = engine.value(connected_sum(x, ca, y, cb))
            union = engine.value(disjoint_union(x, y))
            assert summed.poly * delta == dx.poly * dy.poly
            assert union.poly == dx.poly * dy.poly
            for value in (dx, dy, summed, union):
                assert exact_divide(value.poly, delta) is not None
                checked += 1
    assert checked == 160


def _k3():
    """The 0-framed trefoil."""
    return add_kinks(braid_closure(BraidWord(2, (1, 1, 1))), 0, -3)


def test_h_adjoint_mirror_is_v_inverse_z_negated():
    value = h_adjoint(_k3())
    assert value.vars == ("v", "z")
    substituted = LaurentPoly(("v", "z"), {(-ev, ez): -c if ez % 2 else c
                                           for (ev, ez), c in value.terms.items()})
    assert substituted != value
    assert h_adjoint(mirror(_k3())) == substituted


def test_k_adjoint_mirror_is_s_and_a_inverted():
    value = k_adjoint(_k3())
    inverted = RatFunc(
        LaurentPoly(value.num.vars, {tuple(-e for e in k): c for k, c in value.num.terms.items()}),
        LaurentPoly(value.den.vars, {tuple(-e for e in k): c for k, c in value.den.terms.items()}))
    assert set(value.num.vars) | set(value.den.vars) <= {"s", "a"}
    assert inverted != value
    assert k_adjoint(mirror(_k3())) == inverted
