"""The additive two-variable invariant of two-strand torus families.

Values live in the polynomial ring in the two symmetric variables
sp, sm (with dyadic-rational bookkeeping for the halved skein terms;
integrality is checked, never assumed).  The supported link family is
an expression tree built from

* ``Torus2(m)``: the blackboard-framed trace closure of the m-th power
  of the positive half twist on two strands (m = 0 is the two-component
  unlink, m = +-1 are the +-1-framed unknots),
* ``FramingShift(child, k)``: the same link with its framing shifted by
  k (each unit of framing adds 1 to the value: switching a kink changes
  the framing by 2 and the value by 2),
* ``ConnSum(left, right)``: a connected sum, on which the invariant is
  additive.

The computation runs on two memoized recursions over trivalent-graph
closures I(n):

    I(n+3) = 4(sp-sm) + I(n-2) + (2-sp) I(n-1) + (1-2sp+sm) I(n)
             + (-1-sp+2sm) I(n+1) + (-2+sm) I(n+2)

with base values I(0)=0, I(+-1)=-1, I(+-2)=+-2(sp-sm), and

    T(m) = T(m-2) + (-1)^(m-1) - I(m-1) - (I(m-2) + I(m))/2

with T(0)=0 and T(1)=1.  The odd-m instance of the T recursion is the
printed two-strand computation; its even-m extension (with the same
alternating unit term) is adopted as the definition for torus links and
is validated by T(2) reproducing the Hopf-link value sm - sp.  General
planar diagrams are deliberately NOT evaluated: outside this family the
skein substitution produces trivalent-graph closures whose values are
not determined by the published data, and the engine refuses to guess.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError, ValidationError
from .rings import LaurentPoly, sigma_swap, validate_sigma_poly

SP_MINUS_SM = LaurentPoly(("sp", "sm"), {(1, 0): 1, (0, 1): -1})


def _sigma(terms):
    return LaurentPoly(("sp", "sm"), terms)


#: Skein vectors in the basis (U, T^-2, T^-1, Id, T, T^2) of the
#: two-strand module map space; stored exactly as printed.
T3_VECTOR = (
    4 * SP_MINUS_SM,
    _sigma({(0, 0): 1}),
    _sigma({(0, 0): 2, (1, 0): -1}),
    _sigma({(0, 0): 1, (1, 0): -2, (0, 1): 1}),
    _sigma({(0, 0): -1, (1, 0): -1, (0, 1): 2}),
    _sigma({(0, 0): -2, (0, 1): 1}),
)

ROT_T2_VECTOR = (
    _sigma({(0, 0): 1}) - 2 * SP_MINUS_SM,
    _sigma({}),
    _sigma({(0, 0): -2, (0, 1): 1}),
    _sigma({(0, 0): -1}) + 2 * SP_MINUS_SM,
    _sigma({(0, 0): 2, (0, 1): -1}),
    _sigma({(0, 0): 1}),
)


@dataclass(frozen=True)
class SkeinVectors:
    """The two printed 6-vectors over sp/sm polynomials (read-only data)."""

    t3: tuple
    rot2: tuple


def skein_vectors() -> SkeinVectors:
    return SkeinVectors(T3_VECTOR, ROT_T2_VECTOR)


# ---------------------------------------------------------------------------
# The I(n) recursion
# ---------------------------------------------------------------------------

_I_BASE = {
    0: _sigma({}),
    1: _sigma({(0, 0): -1}),
    -1: _sigma({(0, 0): -1}),
    2: 2 * SP_MINUS_SM,
    -2: -2 * SP_MINUS_SM,
}

_i_memo = dict(_I_BASE)


def i_value(n: int) -> LaurentPoly:
    """Value of the trivalent closure I(n), by the printed recursion.

    Runs forward for n > 2 and backward for n < -2 (the backward step
    solves for I(n-2), whose coefficient is 1, so no division occurs).
    """
    if n in _i_memo:
        return _i_memo[n]
    if n > 2:
        m = n - 3                   # recursion centered so that I(m+3) = I(n)
        acc = T3_VECTOR[0] + T3_VECTOR[1] * i_value(m - 2)
        for k, coeff in enumerate(T3_VECTOR[2:], start=-1):
            acc = acc + coeff * i_value(m + k)
        value = acc
    else:
        m = n + 2                   # solve the recursion at center m for I(m-2) = I(n)
        acc = i_value(m + 3) - T3_VECTOR[0]
        for k, coeff in enumerate(T3_VECTOR[2:], start=-1):
            acc = acc - coeff * i_value(m + k)
        value = acc
    _i_memo[n] = value
    return value


# ---------------------------------------------------------------------------
# The torus closure values
# ---------------------------------------------------------------------------

_torus_memo = {
    0: _sigma({}),                  # the two-component unlink
    1: _sigma({(0, 0): 1}),         # the +1-framed unknot
}


def torus_value(m: int) -> LaurentPoly:
    """Invariant of the blackboard-framed two-strand torus closure T(2, m)."""
    if m in _torus_memo:
        return _torus_memo[m]
    half = Fraction(1, 2)

    def step(j):
        unit = 1 if (j - 1) % 2 == 0 else -1
        return unit + (-1) * i_value(j - 1) - half * (i_value(j - 2) + i_value(j))

    if m > 1:
        value = torus_value(m - 2) + step(m)
    else:
        value = torus_value(m + 2) - step(m + 2)
    _torus_memo[m] = value
    return value


# ---------------------------------------------------------------------------
# The supported link family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Torus2:
    m: int


@dataclass(frozen=True)
class FramingShift:
    child: object
    k: int


@dataclass(frozen=True)
class ConnSum:
    left: object
    right: object


FamilyLink = (Torus2, FramingShift, ConnSum)


def total_framing_shift(link) -> int:
    if isinstance(link, Torus2):
        return 0
    if isinstance(link, FramingShift):
        return link.k + total_framing_shift(link.child)
    if isinstance(link, ConnSum):
        return total_framing_shift(link.left) + total_framing_shift(link.right)
    raise ValidationError(f"not a family link: {link!r}")


def qtilde(link) -> LaurentPoly:
    """The invariant on the supported family.

    Torus closures come from the memoized recursion; a framing shift by
    k adds k; connected sums add.
    """
    if isinstance(link, Torus2):
        return torus_value(link.m)
    if isinstance(link, FramingShift):
        return qtilde(link.child) + LaurentPoly.const(link.k, ("sp", "sm"))
    if isinstance(link, ConnSum):
        return qtilde(link.left) + qtilde(link.right)
    raise ValidationError(f"not a family link: {link!r}")


# ---------------------------------------------------------------------------
# Family-link text grammar: torus2(m) | frame(expr,k) | connsum(expr,expr)
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(torus2|frame|connsum|\(|\)|,|-?\d+)")


def parse_family(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"unexpected input {text[pos:].strip()!r}", position=pos)
            break
        tokens.append((m.group(1), pos))
        pos = m.end()
    tokens.append((None, len(text)))
    idx = 0

    def peek():
        return tokens[idx][0]

    def take(expected=None):
        nonlocal idx
        tok, at = tokens[idx]
        if tok is None or (expected is not None and tok != expected):
            raise ParseError(f"expected {expected or 'expression'}, found {tok!r}", position=at)
        idx += 1
        return tok

    def parse_int():
        tok, at = tokens[idx]
        if tok is None or not re.fullmatch(r"-?\d+", tok):
            raise ParseError(f"expected an integer, found {tok!r}", position=at)
        take()
        return int(tok)

    def parse_expr():
        tok, at = tokens[idx]
        if tok == "torus2":
            take()
            take("(")
            m_ = parse_int()
            take(")")
            return Torus2(m_)
        if tok == "frame":
            take()
            take("(")
            child = parse_expr()
            take(",")
            k = parse_int()
            take(")")
            return FramingShift(child, k)
        if tok == "connsum":
            take()
            take("(")
            left = parse_expr()
            take(",")
            right = parse_expr()
            take(")")
            return ConnSum(left, right)
        raise ParseError(f"expected a family expression, found {tok!r}", position=at)

    expr = parse_expr()
    if peek() is not None:
        raise ParseError(f"trailing input {peek()!r}", position=tokens[idx][1])
    return expr


def family_to_text(link) -> str:
    if isinstance(link, Torus2):
        return f"torus2({link.m})"
    if isinstance(link, FramingShift):
        return f"frame({family_to_text(link.child)},{link.k})"
    if isinstance(link, ConnSum):
        return f"connsum({family_to_text(link.left)},{family_to_text(link.right)})"
    raise ValidationError(f"not a family link: {link!r}")


# ---------------------------------------------------------------------------
# Integrality check
# ---------------------------------------------------------------------------

def conj_integrality_check(p: LaurentPoly):
    """(ok, witness): integer coefficients and nonnegative exponents only.

    The witness lists the offending (exponents, coefficient) pairs.
    """
    p = p.with_vars(("sp", "sm"))
    witness = []
    for exps, c in sorted(p.terms.items()):
        if any(e < 0 for e in exps) or Fraction(c).denominator != 1:
            witness.append((exps, c))
    return (not witness), tuple(witness)


def mirror_value(p: LaurentPoly) -> LaurentPoly:
    """The empirical mirror rule for the family: swap sp/sm and negate."""
    return -sigma_swap(validate_sigma_poly(p))
