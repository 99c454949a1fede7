"""Dubrovnik-form Kauffman engine and the adjoint cabled invariant.

The regular-isotopy invariant D(a, s) of unoriented diagrams satisfies
the difference skein

    D(X) - D(switch X) = z (D(join 0-1) - D(join 0-3)),      z = s - 1/s,

where "join 0-1" erases a crossing by connecting slot pairs (0,1) and
(2,3), and "join 0-3" connects (0,3) and (1,2).  A curl of chirality
+-1 contributes a^(+-1), a crossingless n-circle diagram is worth
delta^n with

    delta = 1 + (a - 1/a)/z,

and the empty diagram is worth 1.  The relation sign, the curl factor,
and the loop normalization are each forced by the adjoint cabled value
of the 0-framed unknot once the projector's twist crossing is defined
as the one whose curl carries a^(+1); see the engine tests.

For every nonempty link F = D/delta lies in Z[a^(+-1), z^(+-1)]
(Kauffman, "An invariant of regular isotopy", Trans. AMS 318, 1990).  The
engine computes F, which is 1 on the unknot as P is, as a Laurent
polynomial in (a, z) and never divides or converts; the public value,
one ``DubVal``, is delta F, and 1 on the empty diagram.  ``DubVal.num``
and ``DubVal.k`` derive the printed form num / (s - 1/s)^k over (s, a) on
demand, k being the order of the pole at z = 0, and ``DubVal.ratfunc``
builds it.  The two parts share no factor: s - 1/s vanishes only at s = 1
and s = -1, and there num is the value's z^(-k) row, which is not zero.
"""

from __future__ import annotations

import functools

from . import diagrams as dg
from .errors import InexactDivision
from .rings import (
    LaurentPoly,
    RatFunc,
    exact_div_linear,
    substitute_equal,
)
from .skein import SkeinEngine

_AZ = ("a", "z")
_Z = LaurentPoly(_AZ, {(0, 1): 1})                                   # z = s - 1/s
_DELTA = LaurentPoly(_AZ, {(0, 0): 1, (1, -1): 1, (-1, -1): -1})     # 1 + (a - 1/a)/z
_S_MINUS = LaurentPoly(("s", "a"), {(1, 0): 1, (-1, 0): -1})          # s - 1/s, for printing
_UNKNOT = dg.LinkDiagram((), None, 1)


@functools.cache
def _s_minus_pow(k):
    return _S_MINUS ** k


class DubVal:
    """A value of D: a Laurent polynomial in (a, z), z standing for s - 1/s.

    Equality is structural.  ``k`` and ``num`` give the printed form
    num / (s - 1/s)^k over (s, a); see the module docstring.
    """

    __slots__ = ("poly",)

    def __init__(self, poly: LaurentPoly):
        if poly.vars != _AZ:
            poly = poly.with_vars(_AZ)          # ValidationError for any other variable
        self.poly = poly

    @staticmethod
    def const(c):
        return DubVal(LaurentPoly.const(c, _AZ))

    @staticmethod
    @functools.cache
    def loops(n):
        """delta^n for n crossingless circles, cached per n."""
        return DubVal(_DELTA ** n)

    def __add__(self, other):
        return DubVal(self.poly + other.poly)

    def __sub__(self, other):
        return DubVal(self.poly - other.poly)

    def __mul__(self, other):
        """The product by a DubVal or by a LaurentPoly in (a, z)."""
        return DubVal(self.poly * (other.poly if isinstance(other, DubVal) else other))

    def __eq__(self, other):
        return isinstance(other, DubVal) and self.poly == other.poly

    def __hash__(self):
        return hash(self.poly)

    @property
    def k(self) -> int:
        """The order of the pole at z = 0, the power of s - 1/s under ``num``."""
        return max(0, -min((ez for _, ez in self.poly.terms), default=0))

    @property
    def num(self) -> LaurentPoly:
        """The value times (s - 1/s)^k, with z expanded: a Laurent polynomial in (s, a)."""
        k = self.k
        out = {}
        for (ea, ez), c in self.poly.terms.items():
            for (es, _), d in _s_minus_pow(ez + k).terms.items():
                out[es, ea] = out.get((es, ea), 0) + c * d
        return LaurentPoly(("s", "a"), out)

    def ratfunc(self) -> RatFunc:
        """num / (s - 1/s)^k, normalised without a GCD: the two share no factor."""
        return RatFunc._coprime(self.num, _s_minus_pow(self.k))

    def __repr__(self):
        return f"DubVal({self.poly!r})"


class KauffmanEngine(SkeinEngine):
    """The skein engine for F = D/delta; see ``SkeinEngine`` for the constructor."""

    # bound here, not inherited: perfbench/spans.py patches each engine's own __init__
    __init__ = SkeinEngine.__init__

    # each split part past the first and each loop is worth delta; curls of chirality n, a^n
    _unit_pow = staticmethod(functools.cache(lambda n: _DELTA ** n))
    _curl_pow = staticmethod(functools.cache(lambda n: LaurentPoly(_AZ, {(n, 0): 1})))
    # D(X) = D(switch X) + z D(join 0-1) - z D(join 0-3), and so is F
    _relation = {None: ((None, LaurentPoly.const(1, _AZ)), (dg._SMOOTHINGS["01"], _Z),
                        (dg._SMOOTHINGS["03"], -_Z))}

    def value(self, d: dg.LinkDiagram) -> DubVal:
        """D of a diagram, delta times the engine's F; any orientation is ignored."""
        if d.signs is not None:
            d = dg.LinkDiagram._trusted(d.crossings, None, d.free_loops)
        if d.num_components():
            return DubVal(self._run(d) * _DELTA)
        return DubVal(self._run(_UNKNOT))   # D(empty) = 1 = F(unknot), also at one node


_default_engine = KauffmanEngine()


def kauffman_lambda(d: dg.LinkDiagram, engine: KauffmanEngine | None = None) -> RatFunc:
    """The regular-isotopy Dubrovnik invariant in the variables (a, s)."""
    return (engine or _default_engine).value(d).ratfunc()


def k_adjoint(d: dg.LinkDiagram, engine: KauffmanEngine | None = None) -> RatFunc:
    """The adjoint cabled Kauffman invariant (blackboard framing of d).

    Each of the 3^n terms of an n-component link costs at least one node,
    so ResourceLimit comes before any cable is built when they cannot fit.
    """
    engine = engine or _default_engine
    engine._reserve(3, d.num_components())
    total = RatFunc(0)
    for coeff, term in dg.kauffman_adjoint_expansion(d):
        total = total + coeff * engine.value(term).ratfunc()
    return total


def kauf_alpha_eq_s_check(d: dg.LinkDiagram, engine: KauffmanEngine | None = None) -> RatFunc:
    """The adjoint value specialized on a = s (expected to be 1 on every link)."""
    value = k_adjoint(d, engine)
    return substitute_equal(value, "a", "s")


def kauf_derivative_at_s(d: dg.LinkDiagram, engine: KauffmanEngine | None = None) -> RatFunc:
    """((K_ad - 1)/(a - s)) evaluated on a = s.

    Raises InexactDivision when (a - s) does not divide exactly or the
    quotient still has a pole on a = s (``exact_div_linear`` reports both).
    """
    value = k_adjoint(d, engine) - 1
    quotient, ok = exact_div_linear(value)
    if not ok:
        raise InexactDivision("(a - s) does not divide the adjoint value minus one",
                              remainder=quotient)
    return substitute_equal(quotient, "a", "s")
