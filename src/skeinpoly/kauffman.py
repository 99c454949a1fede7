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

import functools

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


def _a_columns(p: LaurentPoly):
    """The terms of a (s, a)-Laurent polynomial by a-exponent: {ea: {es: c}}."""
    cols = {}
    for (es, ea), c in p.with_vars(("s", "a")).terms.items():
        cols.setdefault(ea, {})[es] = c
    return cols


def _s_minus_divides(p: LaurentPoly):
    """True when (s - 1/s) divides p.

    s - 1/s = (s - 1)(s + 1)/s with s a unit and s - 1, s + 1 coprime, so
    it divides p exactly when every a-column of p vanishes at s = 1 and at
    s = -1.
    """
    at_one, at_minus_one = {}, {}
    for (es, ea), c in p.with_vars(("s", "a")).terms.items():
        at_one[ea] = at_one.get(ea, 0) + c
        at_minus_one[ea] = at_minus_one.get(ea, 0) + (-c if es & 1 else c)
    return not any(at_one.values()) and not any(at_minus_one.values())


def _div_s_minus(p: LaurentPoly):
    """Exact division of a (s, a)-Laurent polynomial by (s - 1/s).

    Works one a-column at a time by synthetic division; returns None
    when any column leaves a remainder.
    """
    if p.is_zero():
        return p
    out = {}
    for ea, col in _a_columns(p).items():
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


def _root_multiplicity(cols, r, cap):
    """The multiplicity of s = r (1 or -1) as a common root of the columns, at most cap.

    Each column is a dense coefficient list, lowest power first; one
    synthetic division by (s - r) per counted root yields the quotients
    and, last, the remainder: the column's value at r.
    """
    for count in range(cap):
        quots = []
        for col in cols:
            quot, acc = [], 0
            for c in reversed(col):
                acc = acc * r + c
                quot.append(acc)
            if quot.pop():
                return count
            quots.append(quot[::-1])
        cols = quots
    return cap


def _s_minus_gcd(num: LaurentPoly, k: int) -> LaurentPoly:
    """What ``poly_gcd(num, d)`` returns when d is a unit times (s - 1/s)^k.

    Up to units d is (s - 1)^k (s + 1)^k, with both factors prime, so the
    GCD is (s - 1)^i (s + 1)^j, i and j being the multiplicities (at most
    k) of the roots 1 and -1 common to num's a-columns; for a reduced value
    one of them is 0.  ``poly_gcd`` normalises it to the expanded product,
    which has no monomial content and leading coefficient 1.
    """
    dense = []
    for col in _a_columns(num).values():
        lo = min(col)
        row = [0] * (max(col) - lo + 1)
        for e, c in col.items():
            row[e - lo] = c
        dense.append(row)
    gcd = [1]                                       # dense in s, lowest power first
    for r in (1, -1):
        for _ in range(_root_multiplicity(dense, r, k)):
            gcd = [a - r * b for a, b in zip([0] + gcd, gcd + [0])]     # times (s - r)
    return LaurentPoly(("s",), {(e,): c for e, c in enumerate(gcd) if c})


class DubVal:
    """A value num / (s - 1/s)^k, kept reduced so equality is structural.

    Reduced means k == 0 or (s - 1/s) does not divide num.  Each operation
    below states why its result is reduced without a division, or tests
    divisibility (``_s_minus_divides``) before it divides.
    """

    __slots__ = ("num", "k")

    def __init__(self, num: LaurentPoly, k: int, reduce=True):
        if num.is_zero():
            num, k = LaurentPoly(("s", "a"), {}), 0
        while reduce and k > 0 and _s_minus_divides(num):
            num, k = _div_s_minus(num), k - 1
        self.num = num
        self.k = k

    @staticmethod
    def const(c):
        return DubVal(LaurentPoly.const(c, ("s", "a")), 0, reduce=False)

    @staticmethod
    @functools.cache
    def loops(n):
        """delta^n for n crossingless circles, cached per n.

        Already reduced: at s = 1 delta's numerator is a - 1/a, so no power
        of it vanishes there.
        """
        return DubVal(_DELTA_NUM ** n, n, reduce=False)

    def _common_k(self, other):
        """Both numerators over (s - 1/s)^k, k the larger exponent, and k."""
        k = max(self.k, other.k)
        return self.num * _s_minus_pow(k - self.k), other.num * _s_minus_pow(k - other.k), k

    def __add__(self, other):
        """The sum; reduced without a test when the two k differ.

        For k > j, (s - 1/s) divides n (s - 1/s)^(k - j) but not num, so not
        num + n (s - 1/s)^(k - j) either.
        """
        a, b, k = self._common_k(other)
        return DubVal(a + b, k, reduce=self.k == other.k)

    def __sub__(self, other):
        """The difference; reduced without a test when the two k differ, as for ``+``."""
        a, b, k = self._common_k(other)
        return DubVal(a - b, k, reduce=self.k == other.k)

    def __mul__(self, other):
        """The product by a DubVal or a LaurentPoly; only some products are tested.

        A unit (a one-term LaurentPoly, or a DubVal with one-term numerator
        and k = 0) leaves divisibility by (s - 1/s) unchanged.  The factor
        (s - 1/s) itself, as ``_S_MINUS``, lowers k when k > 0: num was not
        divisible and still is not.
        """
        if isinstance(other, DubVal):
            unit = (self.k == 0 and len(self.num.terms) == 1
                    or other.k == 0 and len(other.num.terms) == 1)
            return DubVal(self.num * other.num, self.k + other.k, reduce=not unit)
        if other is _S_MINUS:
            if self.k:
                return DubVal(self.num, self.k - 1, reduce=False)
            return DubVal(self.num * _S_MINUS, 0, reduce=False)
        reduce = isinstance(other, LaurentPoly) and len(other.terms) > 1
        return DubVal(self.num * other, self.k, reduce=reduce)

    def __eq__(self, other):
        return isinstance(other, DubVal) and self.k == other.k and self.num == other.num

    def __hash__(self):
        return hash((self.k, self.num.drop_trivial_vars().key()))

    def ratfunc(self) -> RatFunc:
        """The same RatFunc as ``RatFunc(num, (s - 1/s)^k)``, to the byte.

        Only the GCD step differs: the denominator has no prime factors but
        s - 1 and s + 1, so ``_s_minus_gcd`` finds the GCD in closed form.
        """
        k = self.k
        return RatFunc._with_gcd(self.num, _s_minus_pow(k), lambda num, den: _s_minus_gcd(num, k))

    def __repr__(self):
        return f"DubVal({self.num!r}, k={self.k})"


@functools.cache
def _alpha_power(n):
    return LaurentPoly(("s", "a"), {(0, n): 1})


class KauffmanEngine(SkeinEngine):
    """The skein engine for D; see ``SkeinEngine`` for the constructor."""

    # bound here, not inherited: perfbench/spans.py patches each engine's own __init__
    __init__ = SkeinEngine.__init__

    def value(self, d: dg.LinkDiagram) -> DubVal:
        """D of a diagram; any orientation is ignored."""
        if d.signs is not None:
            d = dg.LinkDiagram._trusted(d.crossings, None, d.free_loops)
        return self._run(d)

    def _combine(self, loops, chirality, parts):
        value = DubVal.loops(loops)                     # loops(0) is 1
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
