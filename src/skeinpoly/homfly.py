"""HOMFLY-PT engine: the two-variable invariant, its framed extension,
the adjoint cabled invariant, and the degree-2 Vassiliev coefficient.

The normalized invariant P(v, z) satisfies

    (1/v) P(L+) - v P(L-) = z P(L0),        P(unknot) = 1,

and is computed by the skein recursion of the ``skein`` module, branching
into the crossing-switched diagram and the z-weighted oriented
smoothing.  Curls and parallel bigons both preserve P, and so does the
simultaneous reversal of all components, which the oriented memo keys
ignore.

The framed extension H multiplies by lam^writhe and one loop factor;
the adjoint invariant sums H over the inclusion-exclusion antiparallel
2-cables, where every cable has writhe zero so no lam survives.
"""

from __future__ import annotations

import functools

from . import diagrams as dg
from .dskein import SP_MINUS_SM
from .errors import (
    InexactDivision,
    NotAKnot,
    Unoriented,
    ValidationError,
)
from .rings import (
    LaurentPoly,
    RatFunc,
    exact_divide,
    limit_order2_at_v1,
    psi_series,
    validate_sigma_poly,
)
from .skein import DEFAULT_BUDGET, SkeinEngine  # noqa: F401  (DEFAULT_BUDGET re-exported)

#: (1/v - v)/z, the value of an extra split unknot.
DELTA = LaurentPoly(("v", "z"), {(-1, -1): 1, (1, -1): -1})

_ONE = LaurentPoly.const(1, ("v", "z"))


class HomflyEngine(SkeinEngine):
    """The skein engine for P; see ``SkeinEngine`` for the constructor."""

    # bound here, not inherited: perfbench/spans.py patches each engine's own __init__
    __init__ = SkeinEngine.__init__

    # each split part past the first and each loop is worth DELTA; P ignores curls
    _unit_pow = staticmethod(functools.cache(lambda n: DELTA ** n))
    _curl_pow = staticmethod(lambda n: _ONE)
    # 1/v P(L+) - v P(L-) = z P(L0), solved for the crossing's own sign
    _relation = {
        1: ((None, LaurentPoly(("v", "z"), {(2, 0): 1})),
            (dg._oriented_pairs(1), LaurentPoly(("v", "z"), {(1, 1): 1}))),
        -1: ((None, LaurentPoly(("v", "z"), {(-2, 0): 1})),
             (dg._oriented_pairs(-1), LaurentPoly(("v", "z"), {(-1, 1): -1}))),
    }

    def p(self, d: dg.LinkDiagram) -> LaurentPoly:
        """P of a nonempty oriented diagram."""
        if d.signs is None and d.crossings:
            raise Unoriented("the HOMFLY-PT invariant needs an oriented diagram")
        if d.num_components() == 0:
            raise ValidationError("P is defined for nonempty links only")
        return self._run(d)


_default_engine = HomflyEngine()


def homfly_p(d: dg.LinkDiagram, engine: HomflyEngine | None = None) -> LaurentPoly:
    """The HOMFLY-PT polynomial P(v, z), equal to 1 on the unknot."""
    return (engine or _default_engine).p(d)


def framed_h(d: dg.LinkDiagram, engine: HomflyEngine | None = None) -> LaurentPoly:
    """The framed extension: 1 on the empty diagram, else lam^W P (1/v - v)/z."""
    if d.num_components() == 0:
        return LaurentPoly.const(1, ("v", "z", "lam"))
    total, _, _ = dg.writhe_data(d) if d.crossings else (0, (), 0)
    p = homfly_p(d, engine)
    value = p * DELTA
    if total:
        value = value * LaurentPoly(("lam",), {(total,): 1})
    return value.with_vars(("v", "z", "lam"))


def h_adjoint(d: dg.LinkDiagram, engine: HomflyEngine | None = None) -> LaurentPoly:
    """The adjoint cabled invariant: framed H summed over the 2-cable expansion.

    Blackboard framing of the given diagram is used; pre-apply add_kinks
    for any other framing.  The result never involves lam because every
    antiparallel cable has total writhe zero.  Of the 2^n terms of an
    n-component link, all but the empty one cost at least one node, so
    ResourceLimit comes before any cable is built when they cannot fit.
    """
    engine = engine or _default_engine
    if d.signs is not None or not d.crossings:          # else the expansion raises Unoriented
        engine._reserve(2, d.num_components(), empty=1)
    total = LaurentPoly.const(0, ("v", "z"))
    for sign, term in dg.homfly_adjoint_expansion(d):
        h = framed_h(term, engine)
        h = h.drop_trivial_vars().with_vars(("v", "z"))   # raises if lam survived
        total = total + (h if sign == 1 else -h)
    return total


def v2(d: dg.LinkDiagram, engine: HomflyEngine | None = None):
    """The degree-2 Vassiliev invariant: the z^2 coefficient of P(1, z)."""
    if d.num_components() != 1:
        raise NotAKnot(f"diagram has {d.num_components()} components")
    p = homfly_p(d, engine)
    at_v1 = p.subs_int("v", 1)
    return at_v1.terms.get((2,), 0)


def unknot_diagram() -> dg.LinkDiagram:
    """The 0-framed unknot: one crossingless circle."""
    return dg.LinkDiagram((), (), 1)


def conjecture_sides(d: dg.LinkDiagram, qtilde_value: LaurentPoly,
                     engine: HomflyEngine | None = None):
    """Both sides of the 0-framed-knot identity linking the adjoint
    cabled invariant to V2 and the two-variable additive invariant.

    lhs: the order-2 limit at v=1 of (H_ad(K)/H_ad(U0) - 1)/(v - 1/v)^2.
    rhs: -2 V2(K) - (1/z^2) * (qtilde / (sp - sm)) at sp = sm = z^2 + 3,
    where the division must be exact in the sp/sm polynomial ring.
    """
    if d.num_components() != 1:
        raise NotAKnot(f"diagram has {d.num_components()} components")
    if d.crossings:
        total, _, _ = dg.writhe_data(d)
        if total != 0:
            raise ValidationError(f"conjecture check needs a 0-framed knot, writhe is {total}")
    engine = engine or _default_engine
    ratio = RatFunc(h_adjoint(d, engine)) / RatFunc(h_adjoint(unknot_diagram(), engine))
    lhs = limit_order2_at_v1(ratio)

    q = validate_sigma_poly(qtilde_value)
    quotient = exact_divide(q, SP_MINUS_SM)
    if quotient is None:
        raise InexactDivision("the invariant value is not divisible by (sp - sm)",
                              remainder=q)
    collapsed = psi_series(quotient, 1).coefficient(0)       # sp = sm = z^2 + 3
    z2 = LaurentPoly(("z",), {(2,): 1})
    rhs = RatFunc(LaurentPoly.const(-2 * v2(d, engine), ("z",))) - RatFunc(collapsed, z2)
    return lhs, rhs
