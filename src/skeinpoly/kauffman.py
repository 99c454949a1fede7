"""Dubrovnik-form Kauffman engine and the adjoint cabled invariant.

The regular-isotopy invariant D(a, s) of unoriented diagrams satisfies
the difference skein

    D(X) - D(switch X) = (s - 1/s) (D(join 0-1) - D(join 0-3)),

where "join 0-1" erases a crossing by connecting slot pairs (0,1) and
(2,3), and "join 0-3" connects (0,3) and (1,2).  A curl of chirality
+-1 contributes a^(+-1), a crossingless n-circle diagram is worth
delta^n with

    delta = 1 + (a - 1/a)/(s - 1/s),

and the empty diagram is worth 1.  The relation sign, the curl factor,
and the loop normalization are each forced by the adjoint cabled value
of the 0-framed unknot once the projector's twist crossing is defined
as the one whose curl carries a^(+1); see the engine tests.

All intermediate values are Laurent polynomials in (s, a) divided by a
power of (s - 1/s), so the engine tracks exactly that pair and never
does general rational-function arithmetic until the projector weights
enter at the very end.
"""

from __future__ import annotations

from . import diagrams as dg
from .errors import DivisionByZero, InexactDivision
from .rings import (
    LaurentPoly,
    RatFunc,
    exact_div_linear,
    substitute_equal,
)
from .skein import SkeinEngine

_S_MINUS = LaurentPoly(("s", "a"), {(1, 0): 1, (-1, 0): -1})          # s - 1/s
_DELTA_NUM = LaurentPoly(("s", "a"), {(1, 0): 1, (-1, 0): -1, (0, 1): 1, (0, -1): -1})

_s_minus_powers = {0: LaurentPoly.const(1, ("s", "a"))}


def _s_minus_pow(k):
    p = _s_minus_powers.get(k)
    if p is None:
        p = _s_minus_pow(k - 1) * _S_MINUS
        _s_minus_powers[k] = p
    return p


def _div_s_minus(p: LaurentPoly):
    """Fast exact division of a (s, a)-Laurent polynomial by (s - 1/s).

    Works one a-column at a time by synthetic division; returns None
    when any column leaves a remainder.
    """
    if p.is_zero():
        return p
    p = p.with_vars(("s", "a"))
    cols = {}
    for (es, ea), c in p.terms.items():
        cols.setdefault(ea, {})[es] = c
    out = {}
    for ea, col in cols.items():
        m = min(col)
        work = {e - m: c for e, c in col.items()}       # col * s^(-m), exps >= 0
        quot = {}
        while work:
            e = max(work)
            if e < 2:
                return None
            c = work.pop(e)
            quot[e - 2] = c
            nc = work.get(e - 2, 0) + c
            if nc:
                work[e - 2] = nc
            else:
                work.pop(e - 2, None)
        # quotient of col*s by (s^2-1) is quot * s^(m+1)
        for e, c in quot.items():
            out[(e + m + 1, ea)] = c
    return LaurentPoly(("s", "a"), out)


class DubVal:
    """A value num / (s - 1/s)^k, kept reduced so equality is structural."""

    __slots__ = ("num", "k")

    def __init__(self, num: LaurentPoly, k: int, reduce=True):
        if num.is_zero():
            num, k = LaurentPoly(("s", "a"), {}), 0
        while reduce and k > 0:
            q = _div_s_minus(num)
            if q is None:
                break
            num, k = q, k - 1
        self.num = num
        self.k = k

    @staticmethod
    def const(c):
        return DubVal(LaurentPoly.const(c, ("s", "a")), 0, reduce=False)

    @staticmethod
    def loops(n):
        """delta^n for n crossingless circles."""
        return DubVal(_DELTA_NUM ** n, n)

    def __add__(self, other):
        k = max(self.k, other.k)
        a = self.num * _s_minus_pow(k - self.k)
        b = other.num * _s_minus_pow(k - other.k)
        return DubVal(a + b, k)

    def __sub__(self, other):
        k = max(self.k, other.k)
        a = self.num * _s_minus_pow(k - self.k)
        b = other.num * _s_minus_pow(k - other.k)
        return DubVal(a - b, k)

    def __mul__(self, other):
        if isinstance(other, DubVal):
            return DubVal(self.num * other.num, self.k + other.k)
        return DubVal(self.num * other, self.k)

    def __eq__(self, other):
        return isinstance(other, DubVal) and self.k == other.k and self.num == other.num

    def __hash__(self):
        return hash((self.k, self.num.drop_trivial_vars().key()))

    def ratfunc(self) -> RatFunc:
        return RatFunc(self.num, _s_minus_pow(self.k))

    def __repr__(self):
        return f"DubVal({self.num!r}, k={self.k})"


def _alpha_power(n):
    return LaurentPoly(("s", "a"), {(0, n): 1})


class KauffmanEngine(SkeinEngine):
    """The skein engine for D; see ``SkeinEngine`` for the constructor."""

    # bound here, not inherited: perfbench/spans.py patches each engine's own __init__
    __init__ = SkeinEngine.__init__

    def value(self, d: dg.LinkDiagram) -> DubVal:
        """D of a diagram; any orientation is ignored."""
        if d.signs is not None:
            d = dg.LinkDiagram(d.crossings, None, d.free_loops, validate=False)
        return self._run(d)

    def _canonical_key(self, d):
        return dg.canonical_key(d)

    def _combine(self, loops, chirality, parts):
        value = DubVal.loops(loops) if loops else DubVal.const(1)
        for part in parts:
            value = value * part
        if chirality:
            value = value * _alpha_power(chirality)      # a^chirality per stripped curl
        return value

    def _descending(self, d):
        # a split union of unknots carrying their framings
        alpha = sum(dg.self_writhes(d))
        return DubVal.loops(d.num_components()) * _alpha_power(alpha)

    def _branch(self, d, bad):
        sw = self._eval(dg.switched(d, bad))
        s01 = self._eval(dg.smoothed(d, bad, "01"))
        s03 = self._eval(dg.smoothed(d, bad, "03"))
        return sw + (s01 - s03) * _S_MINUS


_default_engine = KauffmanEngine()


def kauffman_lambda(d: dg.LinkDiagram, engine: KauffmanEngine | None = None) -> RatFunc:
    """The regular-isotopy Dubrovnik invariant in the variables (a, s)."""
    return (engine or _default_engine).value(d).ratfunc()


def k_adjoint(d: dg.LinkDiagram, engine: KauffmanEngine | None = None) -> RatFunc:
    """The adjoint cabled Kauffman invariant (blackboard framing of d)."""
    engine = engine or _default_engine
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

    Raises InexactDivision when (a - s) does not divide exactly, and
    DivisionByZero when the quotient still has a pole on a = s.
    """
    value = k_adjoint(d, engine) - 1
    quotient, ok = exact_div_linear(value, ("a", "s"))
    if not ok:
        raise InexactDivision("(a - s) does not divide the adjoint value minus one",
                              remainder=quotient)
    result = substitute_equal(quotient, "a", "s")
    if result.den.is_zero():
        raise DivisionByZero("quotient has a pole on a = s")
    return result
