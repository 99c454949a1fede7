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
is validated by T(2) reproducing the Hopf-link value sm - sp.

Both run forward only; negative indices are mirror images, I(-n) =
sigma I(n) and T(-m) = -sigma T(m), sigma exchanging sp and sm.  Proof:
write the I step as I(n+3) = 4(sp-sm) + sum_{k=-2..2} c_k I(n+k), solve
it for I(n-2), put -n for n and apply sigma.  J(n) = sigma I(-n) then
meets the same step, as -sigma(sp-sm) = sp-sm and -sigma c_{2-i} =
c_{i-1} for i = 0..3, and J = I on the base values, so J = I.  S(m) =
-sigma T(-m) meets the T step, whose unit term depends only on the parity
of m, and S(0) = 0, S(1) = 1 (the step at m = 1 gives T(-1) = -1), so
S = T.  General planar diagrams are deliberately NOT evaluated: outside
this family the skein substitution produces trivalent-graph closures
whose values are not determined by the published data, and the engine
refuses to guess.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError, ResourceLimit, ValidationError
from .rings import LaurentPoly, sigma_swap, _BLANKS, _text_int

SP_MINUS_SM = LaurentPoly(("sp", "sm"), {(1, 0): 1, (0, 1): -1})


def _sigma(terms):
    return LaurentPoly(("sp", "sm"), terms)


#: The (T3) skein vector in the basis (U, T^-2, T^-1, Id, T, T^2) of
#: the two-strand module map space; stored exactly as printed.
T3_VECTOR = (
    4 * SP_MINUS_SM,
    _sigma({(0, 0): 1}),
    _sigma({(0, 0): 2, (1, 0): -1}),
    _sigma({(0, 0): 1, (1, 0): -2, (0, 1): 1}),
    _sigma({(0, 0): -1, (1, 0): -1, (0, 1): 2}),
    _sigma({(0, 0): -2, (0, 1): 1}),
)


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
_ONE = _sigma({(0, 0): 1})


def i_value(n: int) -> LaurentPoly:
    """Value of the trivalent closure I(n), by the printed recursion.

    Fills the memo forward only, one index at a time from its edge up to
    n, so the call depth does not grow with n; the cost grows roughly as
    the cube of n, as I(n) has about n^2/4 terms with growing
    coefficients.  Each step builds I(j) in one term dict: a copy of
    I(j-5), whose coefficient is 1 and whose key tuples it shares, plus
    each other T3_VECTOR entry times its value; every coefficient is an
    int.  A negative index is the mirror image sigma I(-n) (module
    docstring), computed on each call and not memoized.
    """
    memo = _i_memo
    if n in memo:
        return memo[n]
    if n < 0:
        return sigma_swap(i_value(-n))
    for j in range(max(memo) + 1, n + 1):       # the memo holds I(-2..max) and no gap
        m = j - 3                   # I(j) = I(m+3) = T3[0] + I(m-2) + sum_k T3[k+3] I(m+k)
        acc = dict(memo[m - 2].terms)
        get = acc.get
        products = [(T3_VECTOR[0], _ONE)] + [(T3_VECTOR[k + 3], memo[m + k]) for k in range(-1, 3)]
        for coeff, value in products:
            items = value.terms.items()
            for (a0, a1), ca in coeff.terms.items():
                for (b0, b1), cb in items:
                    key = (a0 + b0, a1 + b1)
                    c = get(key, 0) + ca * cb
                    if c:
                        acc[key] = c
                    else:
                        del acc[key]
        memo[j] = LaurentPoly._trusted(_ONE.vars, acc)
    return memo[n]


# ---------------------------------------------------------------------------
# The torus closure values
# ---------------------------------------------------------------------------

_torus_memo = {
    0: _sigma({}),                  # the two-component unlink
    1: _sigma({(0, 0): 1}),         # the +1-framed unknot
}


def torus_value(m: int) -> LaurentPoly:
    """Invariant of the blackboard-framed two-strand torus closure T(2, m).

    Like ``i_value``, fills the memo forward only, in steps of 2 up to m,
    and a negative index is the mirror image -sigma T(2, -m), computed on
    each call and not memoized.  The step at j is

        T(j) - T(j - 2) = u(j) - I(j - 1) - (I(j - 2) + I(j)) / 2,

    u(j) being 1 for odd j and -1 for even j.  Each step builds twice the
    new value in one term dict and then halves it in place.  The halving
    stays exact: ``_half`` shifts an even int and turns an odd one into a
    Fraction, so an odd sum would show up as a non-integral value, never
    be rounded.
    """
    memo = _torus_memo
    if m in memo:
        return memo[m]
    if m < 0:
        return -sigma_swap(torus_value(-m))
    for j in range(max(k for k in memo if (k - m) % 2 == 0) + 2, m + 2, 2):
        acc = {e: 2 * c for e, c in memo[j - 2].terms.items()}
        get = acc.get
        for value, f in ((_ONE, 2 if j % 2 else -2), (i_value(j - 1), -2),
                         (i_value(j - 2), -1), (i_value(j), -1)):
            for e, c in value.terms.items():
                c = get(e, 0) + f * c
                if c:
                    acc[e] = c
                else:
                    del acc[e]
        for e, c in acc.items():
            acc[e] = _half(c)
        memo[j] = LaurentPoly._trusted(_ONE.vars, acc)
    return memo[m]


def _half(c):
    """c / 2, exactly: an even int is shifted, any other value becomes a Fraction or int."""
    if type(c) is int and not c & 1:
        return c >> 1
    h = Fraction(c, 2)
    return h.numerator if h.denominator == 1 else h


# ---------------------------------------------------------------------------
# The supported link family
# ---------------------------------------------------------------------------

class _FamilyNode:
    """``==``, ``hash`` and ``repr`` of the family nodes, from one walk that does not recurse.

    Trees compare as the dataclass methods would (field by field, types
    exactly), so trees of any depth compare, hash and print, and a field
    of any type prints by its own repr.
    """

    def _pieces(self):
        """The tree in preorder: each node's type, ``name=`` before each
        field and ``)`` after the last; a field that is not a node, as a
        1-tuple of itself.
        """
        out, todo = [], [self]
        while todo:
            node = todo.pop()
            if not isinstance(node, _FamilyNode):
                out.append(node)
                continue
            out.append(type(node))
            todo.append(")")
            names = node.__match_args__
            for i in reversed(range(len(names))):
                value = getattr(node, names[i])
                todo += (value if isinstance(value, _FamilyNode) else (value,),
                         ", " * (i > 0) + names[i] + "=")
        return tuple(out)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._pieces() == other._pieces()

    def __hash__(self):
        return hash(self._pieces())

    def __repr__(self):
        return "".join(p.__qualname__ + "(" if isinstance(p, type) else
                       p if type(p) is str else repr(p[0]) for p in self._pieces())


@dataclass(frozen=True, eq=False, repr=False)
class Torus2(_FamilyNode):
    m: int


@dataclass(frozen=True, eq=False, repr=False)
class FramingShift(_FamilyNode):
    child: object
    k: int


@dataclass(frozen=True, eq=False, repr=False)
class ConnSum(_FamilyNode):
    left: object
    right: object


def _family_parts(link):
    """The torus indices of link, left to right, and its total framing shift; no recursion.

    A torus index or framing shift that is not an int (bools included)
    makes its node not a family link.  The error names the node's type and
    the type of its bad field, not the tree below it.
    """
    indices, shift, todo = [], 0, [link]
    while todo:
        node = todo.pop()
        if isinstance(node, Torus2) and type(node.m) is int:
            indices.append(node.m)
        elif isinstance(node, FramingShift) and type(node.k) is int:
            shift += node.k
            todo.append(node.child)
        elif isinstance(node, ConnSum):
            todo += (node.right, node.left)
        elif isinstance(node, (Torus2, FramingShift)):
            field = "m" if isinstance(node, Torus2) else "k"
            raise ValidationError(f"not a family link: {type(node).__name__} with {field} of "
                                  f"type {type(getattr(node, field)).__name__}, not int")
        else:
            raise ValidationError(f"not a family link: a value of type {type(node).__name__}")
    return indices, shift


def qtilde(link) -> LaurentPoly:
    """The invariant on the supported family.

    Torus closures come from the memoized recursion; a framing shift by
    k adds k; connected sums add: the sum of the T(2, m) and the shifts.
    """
    indices, shift = _family_parts(link)
    return sum(map(torus_value, indices), LaurentPoly.const(shift, ("sp", "sm")))


def bounded_qtilde(link, budget: int) -> LaurentPoly:
    """``qtilde(link)``, raising ResourceLimit once its charge passes budget.

    For each torus closure T(m) in link, the charge walks from the base
    values away from 0 to m: each T(k), k of m's parity and not a base
    value, costs its number of terms, after every I(j) with 2 < |j| <= |k|
    on its side of 0.  It is defined by this path, not by what the fill
    computes or finds memoized, so it does not depend on earlier calls.
    A mirror image has as many terms as its value at |k| or |j|.
    """
    spent = 0

    def charge(value):
        nonlocal spent
        spent += len(value.terms)
        if spent > budget:
            raise ResourceLimit(f"term budget {budget} exceeded")

    for m in _family_parts(link)[0]:
        d = 1 if m > 1 else -1
        reached = 2 * d                 # I(-2..2) are base values
        for k in range(2 * d + m % 2, m + d, 2 * d):      # empty for T(0) and T(1)
            while (k - reached) * d > 0:          # T(k) reads I up to index k
                reached += d
                charge(i_value(abs(reached)))
            charge(torus_value(abs(k)))
    return qtilde(link)


# ---------------------------------------------------------------------------
# Family-link text grammar: torus2(m) | frame(expr,k) | connsum(expr,expr)
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(torus2|frame|connsum|\(|\)|,|-?[0-9]+)", re.ASCII)

#: Deepest nesting of frame/connsum that ``parse_family`` accepts; the
#: parser recurses once per level (``qtilde`` and ``family_to_text`` walk
#: a tree of any depth without recursion).
MAX_FAMILY_DEPTH = 200


def parse_family(text: str):
    """The family expression in text; ParseError if malformed or nested too deep."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            rest = text[pos:].strip(_BLANKS)
            if rest:
                raise ParseError(f"unexpected input {rest!r}", position=pos)
            break
        tokens.append((m.group(1), pos))
        pos = m.end()
    tokens.append((None, len(text)))
    idx = 0

    def take(expected=None):
        nonlocal idx
        tok, at = tokens[idx]
        if tok is None or (expected is not None and tok != expected):
            raise ParseError(f"expected {expected or 'expression'}, found {tok!r}", position=at)
        idx += 1
        return tok

    def parse_int():
        tok, at = tokens[idx]
        if tok is None or not re.fullmatch(r"-?[0-9]+", tok):
            raise ParseError(f"expected an integer, found {tok!r}", position=at)
        take()
        return _text_int(tok, "integer", at)

    def parse_expr(depth):
        tok, at = tokens[idx]
        if depth > MAX_FAMILY_DEPTH:
            raise ParseError(f"family expression nested deeper than {MAX_FAMILY_DEPTH}",
                             position=at)
        if tok not in ("torus2", "frame", "connsum"):
            raise ParseError(f"expected a family expression, found {tok!r}", position=at)
        take()
        take("(")
        if tok == "torus2":
            expr = Torus2(parse_int())
        elif tok == "frame":
            child = parse_expr(depth + 1)
            take(",")
            expr = FramingShift(child, parse_int())
        else:
            left = parse_expr(depth + 1)
            take(",")
            expr = ConnSum(left, parse_expr(depth + 1))
        take(")")
        return expr

    expr = parse_expr(0)
    tok, at = tokens[idx]
    if tok is not None:
        raise ParseError(f"trailing input {tok!r}", position=at)
    return expr


# the pieces of a family tree (see ``_FamilyNode._pieces``) that print otherwise in the grammar
_TEXT = {Torus2: "torus2(", FramingShift: "frame(", ConnSum: "connsum(",
         "m=": "", "child=": "", "left=": "", ", k=": ",", ", right=": ","}


def family_to_text(link) -> str:
    """The text of link in the grammar of ``parse_family``, built without recursion."""
    _family_parts(link)             # ValidationError unless every node is a family node
    return "".join(str(p[0]) if type(p) is tuple else _TEXT.get(p, p) for p in link._pieces())


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
