"""Exact arithmetic for every coefficient domain used by the skein engines.

Everything is built on sparse Laurent polynomials: a tuple of variable
names plus a dict mapping integer exponent vectors to nonzero rational
coefficients.  Coefficients are Python ints whenever possible and
``fractions.Fraction`` otherwise, so all arithmetic is exact.  There is
no floating-point mode anywhere.

Variable names come from a fixed alphabet.  The conventional reading:

======  ===========================================================
s, a    the two Dubrovnik/Kauffman variables (``a`` is the curl unit)
v, z    the two HOMFLY-PT variables; inside the Kauffman engine z also
        stands for s - 1/s, and is never printed there
lam     the framing unit of the framed HOMFLY-PT extension
sp, sm  the generators of Z[sp, sm], the symmetric subring of the
        D(2,1;alpha) weight ring where the additive invariant lives
======  ===========================================================

The expansion variable d of a truncated series (``DeltaSeries``) is not
a ring variable: it appears only in a series' printed text.

All values are immutable after construction and every operation is a
pure function, so concurrent use on shared inputs is safe.

Every ``LaurentPoly`` meets one invariant: its variables are distinct and
in ``ALPHABET`` order, every exponent vector has one entry per variable,
no coefficient is zero, and each coefficient is an ``int`` or a
``Fraction`` whose denominator is not 1.  Outside input (user code,
``const``/``var``, ``poly_from_json``) is checked once, by
``LaurentPoly.__init__``.  The ring operations (``+``, ``-``, ``*``,
``**`` and ``shifted``) build their results with the unchecked
``LaurentPoly._trusted``: their operands already meet the invariant, so
only a coefficient that is not an ``int`` is normalised.

Every substitution for one variable, a number (``subs_int``, and so the
limit at v = 1) or another variable (``substitute_equal`` and
``exact_div_linear`` on the locus a = s), goes through one routine,
``_substituted``, whose result passes the checked constructor.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, gcd as _int_gcd
from operator import add as _add

from .errors import (
    DivisionByZero,
    OrderTooLow,
    ParseError,
    PoleAtOne,
    ValidationError,
)

#: Fixed variable alphabet; merged variable tuples always follow this order.
ALPHABET = ("s", "a", "v", "z", "lam", "sp", "sm")
_ALPHABET_INDEX = {name: i for i, name in enumerate(ALPHABET)}

#: Total-degree cutoff above which RatFunc.normalized skips the full GCD.
GCD_DEGREE_BOUND = 24


def _norm_coeff(c):
    """Collapse integral Fractions and bools to int; reject non-rationals."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise ValidationError(f"coefficient {c!r} is not an exact rational")


def _norm_values(terms):
    """Collapse the integral Fractions among a term dict's values to int, in place.

    For arithmetic results, whose values are all ints or Fractions.
    """
    for exps, c in terms.items():
        if type(c) is not int and c.denominator == 1:
            terms[exps] = c.numerator


class LaurentPoly:
    """A sparse multivariate Laurent polynomial with exact coefficients.

    ``vars`` is an ordered subset of ALPHABET; ``terms`` maps exponent
    tuples (one integer per variable, negatives allowed) to nonzero
    coefficients, each an ``int`` or a non-integral ``Fraction``.  The
    constructor checks and normalises its arguments; ``_trusted`` wraps
    values that already meet this invariant (see the module docstring).
    Instances are immutable; do not mutate ``terms``.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms):
        variables = tuple(variables)
        for name in variables:
            if name not in _ALPHABET_INDEX:
                raise ValidationError(f"unknown variable {name!r}")
        if len(set(variables)) != len(variables):
            raise ValidationError(f"repeated variable in {variables}")
        order = sorted(range(len(variables)), key=lambda i: _ALPHABET_INDEX[variables[i]])
        if order != list(range(len(variables))):
            variables, perm = tuple(variables[i] for i in order), order
            terms = {tuple(exps[i] for i in perm): c for exps, c in terms.items()}
        clean = {}
        n = len(variables)
        for exps, c in terms.items():
            exps = tuple(exps)
            if len(exps) != n:
                raise ValidationError(f"exponent vector {exps} has arity {len(exps)}, expected {n}")
            c = _norm_coeff(c)
            if c != 0:
                clean[exps] = c
        self.vars = variables
        self.terms = clean

    @staticmethod
    def _trusted(variables, terms):
        """Wrap ``(variables, terms)`` as given, unchecked.

        Only for results that already meet the class invariant: variables
        in ALPHABET order, no zero coefficient, each coefficient an int or
        a non-integral Fraction.
        """
        p = object.__new__(LaurentPoly)
        p.vars = variables
        p.terms = terms
        return p

    # ---- constructors -------------------------------------------------

    @staticmethod
    def const(c, variables=()):
        c = _norm_coeff(c if isinstance(c, (int, Fraction)) else Fraction(c))
        if c == 0:
            return LaurentPoly(variables, {})
        return LaurentPoly(variables, {(0,) * len(variables): c})

    @staticmethod
    def var(name, power=1):
        return LaurentPoly((name,), {(power,): 1})

    # ---- structural helpers -------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_const(self):
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def const_value(self):
        """The constant this polynomial equals, or raise if non-constant."""
        if self.is_zero():
            return 0
        if not self.is_const():
            raise ValidationError(f"{self} is not constant")
        return next(iter(self.terms.values()))

    def total_degree(self):
        """Max over terms of the sum of |exponents| (0 for the zero poly)."""
        if not self.terms:
            return 0
        return max(sum(abs(e) for e in exps) for exps in self.terms)

    def key(self):
        """Hashable canonical snapshot (used for equality and hashing)."""
        return (self.vars, tuple(sorted(self.terms.items())))

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            if isinstance(other, (int, Fraction)):
                other = LaurentPoly.const(other)
            else:
                return NotImplemented
        a, b = align(self, other)
        return a.terms == b.terms

    def __hash__(self):
        # A constant equals its value; otherwise padding variables with
        # all-zero exponents must not change the hash.
        if self.is_const():
            return hash(self.const_value())
        return hash(self.drop_trivial_vars().key())

    def drop_trivial_vars(self):
        """Remove variables whose exponent is 0 in every term."""
        if not self.vars:
            return self
        used = [i for i in range(len(self.vars)) if any(e[i] for e in self.terms)]
        if len(used) == len(self.vars):
            return self
        newvars = tuple(self.vars[i] for i in used)
        return LaurentPoly(newvars, {tuple(e[i] for i in used): c for e, c in self.terms.items()})

    def with_vars(self, variables):
        """Reinterpret over a superset of variables (padding exponents with 0)."""
        variables = tuple(variables)
        if variables == self.vars:
            return self
        extra = list(variables)
        for name in self.vars:
            if name not in extra:
                raise ValidationError(f"target variables {variables} do not contain {name}")
            extra.remove(name)
        # the constructor rejects a repeated or unknown name and sorts into ALPHABET order
        pad = (0,) * len(extra)
        return LaurentPoly(self.vars + tuple(extra), {exps + pad: c for exps, c in self.terms.items()})

    # ---- ring operations -----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = LaurentPoly.const(other, self.vars)
        a, b = align(self, other)
        out = dict(a.terms)
        # a's terms meet the invariant; only a sum formed here can be an integral Fraction
        for exps, c in b.terms.items():
            s = out.get(exps, 0) + c
            if not s:
                del out[exps]
            elif type(s) is int or s.denominator != 1:
                out[exps] = s
            else:
                out[exps] = s.numerator
        return LaurentPoly._trusted(a.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._trusted(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = LaurentPoly.const(other, self.vars)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = _norm_coeff(other)
            if other == 0:
                return LaurentPoly._trusted(self.vars, {})
            out = {e: c * other for e, c in self.terms.items()}
            _norm_values(out)
            return LaurentPoly._trusted(self.vars, out)
        a, b = align(self, other)
        if len(a.terms) == 1:
            a, b = b, a
        if len(b.terms) == 1:
            return _monomial_product(a, b)
        out = {}
        get = out.get
        bitems = list(b.terms.items())
        if len(a.vars) == 2:
            for (a0, a1), ca in a.terms.items():
                for (b0, b1), cb in bitems:
                    key = (a0 + b0, a1 + b1)
                    s = get(key, 0) + ca * cb
                    if s:
                        out[key] = s
                    else:
                        del out[key]
        else:
            for ea, ca in a.terms.items():
                for eb, cb in bitems:
                    key = tuple(map(_add, ea, eb))
                    s = get(key, 0) + ca * cb
                    if s:
                        out[key] = s
                    else:
                        del out[key]
        _norm_values(out)
        return LaurentPoly._trusted(a.vars, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            if len(self.terms) != 1:
                raise ValidationError("negative powers only defined for monomials")
            (exps, c), = self.terms.items()
            inv = Fraction(1) / Fraction(c)
            return LaurentPoly._trusted(self.vars, {tuple(e * k for e in exps): _norm_coeff(inv ** (-k))})
        # repeated products, not squaring: every caller's base is sparse
        result = LaurentPoly.const(1, self.vars)
        for _ in range(k):
            result = result * self
        return result

    def shifted(self, monomial_exps):
        """Multiply by the monomial with the given exponent vector."""
        if len(monomial_exps) != len(self.vars):
            raise ValidationError(
                f"exponent vector {tuple(monomial_exps)} has arity {len(monomial_exps)}, "
                f"expected {len(self.vars)}")
        return LaurentPoly._trusted(self.vars, {tuple(map(_add, exps, monomial_exps)): c
                                                for exps, c in self.terms.items()})

    def subs_int(self, name, value):
        """Substitute an exact rational value for one variable."""
        return _substituted(self, name, Fraction(value))

    # ---- canonical text / JSON -----------------------------------------

    def to_text(self):
        return poly_to_text(self)

    def to_json(self):
        return poly_to_json(self)

    def __repr__(self):
        return f"LaurentPoly({poly_to_text(self)!r})"

    def __str__(self):
        return poly_to_text(self)


def _monomial_product(a: LaurentPoly, m: LaurentPoly) -> LaurentPoly:
    """a * m for a one-term m over the same variables: a shift of a's terms.

    Adding one exponent vector is injective, so no two terms meet and no
    coefficient cancels; multiplying by 1 changes nothing, and by -1 keeps
    every coefficient's type, so only other factors renormalise.
    """
    (em, cm), = m.terms.items()
    if cm == 1 and not any(em):
        return a
    if len(em) == 2:
        m0, m1 = em
        out = {(e0 + m0, e1 + m1): c * cm for (e0, e1), c in a.terms.items()}
    else:
        out = {tuple(map(_add, e, em)): c * cm for e, c in a.terms.items()}
    if cm != 1 and cm != -1:
        _norm_values(out)
    return LaurentPoly._trusted(a.vars, out)


def _substituted(p: LaurentPoly, name, image) -> LaurentPoly:
    """p with image in place of the variable name.

    image is an exact rational (a Fraction) or another variable's name,
    whose exponent in each term then grows by name's.
    """
    if name not in p.vars or name == image:
        return p
    if isinstance(image, str) and image not in p.vars:
        p = p.with_vars(p.vars + (image,))
    i = p.vars.index(name)
    j = p.vars.index(image) if isinstance(image, str) else None
    out = {}
    for exps, c in p.terms.items():
        e = exps[i]
        if j is not None:
            exps = exps[:j] + (exps[j] + e,) + exps[j + 1:]
        elif e < 0 and image == 0:
            raise DivisionByZero(f"substituting 0 for {name} with exponent {e}")
        else:
            c = c * image ** e
        key = exps[:i] + exps[i + 1:]
        out[key] = out.get(key, 0) + c          # the constructor drops what cancels
    return LaurentPoly(p.vars[:i] + p.vars[i + 1:], out)


def align(a: LaurentPoly, b: LaurentPoly):
    """Bring two polynomials over the merged variable tuple."""
    if a.vars == b.vars:
        return a, b
    merged = tuple(sorted(set(a.vars) | set(b.vars), key=_ALPHABET_INDEX.get))
    return a.with_vars(merged), b.with_vars(merged)


# --------------------------------------------------------------------------
# Canonical text form.
#
# Terms are sorted by graded-lexicographic order on the exponent vector:
# total degree ascending, then the exponent tuple descending, so that the
# earlier alphabet variable wins ties.  ``_sorted_exps`` produces this order
# with C-level tuple comparisons (a descending sort, then a stable sort on
# the total degree); ``_term_sort_key`` is the same order as one key, for
# the leading-term lookups.  Coefficients print as "n" or "n/d" at any
# length; variables with exponent zero are omitted; exponent one prints
# bare.  The zero polynomial prints as "0".  The format is bit-stable.
# --------------------------------------------------------------------------

def _term_sort_key(exps):
    return (sum(exps), tuple(-e for e in exps))


def _sorted_exps(terms):
    order = sorted(terms, reverse=True)
    order.sort(key=sum)
    return order


def poly_to_text(p: LaurentPoly) -> str:
    try:
        return _poly_text(p, str)
    except ValueError:          # a coefficient beyond str()'s digit limit
        return _poly_text(p, _long_str)


def _poly_text(p, decimal):
    """poly_to_text, printing each integer with decimal."""
    p = p.drop_trivial_vars()
    terms = p.terms
    if not terms:
        return "0"
    # per variable: the text of each exponent that occurs ("" for exponent 0)
    powers = [{e: "" if e == 0 else name if e == 1 else f"{name}^{e}"
               for e in {exps[i] for exps in terms}}
              for i, name in enumerate(p.vars)]
    pieces = []
    for exps in _sorted_exps(terms):
        mono = "*".join(filter(None, map(dict.__getitem__, powers, exps)))
        c = terms[exps]
        sign = " - " if c < 0 else " + "
        c = abs(c)
        if c == 1 and mono:
            pieces.append(sign + mono)
        else:
            num = decimal(c) if type(c) is int else f"{decimal(c.numerator)}/{decimal(c.denominator)}"
            pieces.append(f"{sign}{num}*{mono}" if mono else sign + num)
    head = pieces[0]
    pieces[0] = "-" + head[3:] if head[1] == "-" else head[3:]
    return "".join(pieces)


def poly_to_json(p: LaurentPoly) -> dict:
    try:
        return _poly_json(p, str)
    except ValueError:          # a coefficient beyond str()'s digit limit
        return _poly_json(p, _long_str)


def _poly_json(p, decimal):
    """poly_to_json, printing each integer with decimal."""
    p = p.drop_trivial_vars()
    terms = []
    for exps in _sorted_exps(p.terms):
        c = p.terms[exps]
        num, den = (c, 1) if type(c) is int else (c.numerator, c.denominator)
        terms.append({"exp": list(exps), "num": decimal(num), "den": decimal(den)})
    return {"vars": list(p.vars), "terms": terms}


_DECIMAL = re.compile(r"-?[0-9]+")

#: The blanks of every text format: ASCII whitespace, for ``str.strip``
#: (``\s`` matches the same set under ``re.ASCII``).
_BLANKS = " \t\n\r\v\f"

#: The most digits an integer of text input (a diagram, a family
#: expression, a table range) may have: Python's default limit for int().
MAX_TEXT_DIGITS = 4300

#: Digits per piece when an int is converted in pieces: below 640, the
#: least limit that sys.set_int_max_str_digits accepts.
_PIECE_DIGITS = 600


def _text_int(token, what, position=None):
    """The int an ASCII decimal token of text input writes, at most MAX_TEXT_DIGITS digits."""
    if len(token.lstrip("+-")) > MAX_TEXT_DIGITS:
        raise ParseError(f"{what} has more than {MAX_TEXT_DIGITS} digits", position=position)
    return int(token)


def _long_str(n):
    """The decimal text of an int of any length.

    str() refuses an int beyond the interpreter's digit limit (4,300 by
    default); such an int prints in pieces of _PIECE_DIGITS digits.
    """
    try:
        return str(n)
    except ValueError:
        pass
    sign, n = ("-", -n) if n < 0 else ("", n)
    unit = 10 ** _PIECE_DIGITS
    pieces = []
    while n >= unit:
        n, low = divmod(n, unit)
        pieces.append(str(low).zfill(_PIECE_DIGITS))
    pieces.append(str(n))
    return sign + "".join(reversed(pieces))


def _long_int(text):
    """The int written by a decimal string of any length (the inverse of _long_str)."""
    try:
        return int(text)
    except ValueError:
        pass
    digits = text.lstrip("-")
    value = 0
    for i in range(0, len(digits), _PIECE_DIGITS):
        piece = digits[i:i + _PIECE_DIGITS]
        value = value * 10 ** len(piece) + int(piece)
    return -value if text.startswith("-") else value


def _json_int(value, what):
    """value itself when it is a JSON integer (an int, not a bool or a float)."""
    if type(value) is not int:
        raise ParseError(f"bad JSON: {what} {value!r} is not an integer")
    return value


def _json_decimal(value, what):
    """The int written by a decimal string such as "-12" (an int is also taken)."""
    if type(value) is str:
        if not _DECIMAL.fullmatch(value):
            raise ParseError(f"bad JSON: {what} {value!r} is not a decimal integer")
        return _long_int(value)
    return _json_int(value, what)


def poly_from_json(obj) -> LaurentPoly:
    try:
        variables_ = tuple(obj["vars"])
        terms = {}
        for t in obj["terms"]:
            c = Fraction(_json_decimal(t["num"], "numerator"),
                         _json_decimal(t["den"], "denominator"))
            terms[tuple(_json_int(e, "exponent") for e in t["exp"])] = c
        return LaurentPoly(variables_, terms)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad polynomial JSON: {exc}") from exc


# --------------------------------------------------------------------------
# Exact division and multivariate GCD.
# --------------------------------------------------------------------------

def monomial_content(p: LaurentPoly):
    """Exponent vector of the largest monomial dividing p (its min exponents)."""
    if not p.terms:
        return (0,) * len(p.vars)
    return tuple(map(min, zip(*p.terms)))


def exact_divide(p: LaurentPoly, g: LaurentPoly):
    """Quotient p/g in the Laurent ring, or None when division is inexact.

    Division is decided in the honest polynomial ring after shifting the
    monomial content out of both arguments; monomials are units here, so
    this captures exactly Laurent-ring divisibility.
    """
    if g.is_zero():
        raise DivisionByZero("division by the zero polynomial")
    if p.is_zero():
        return LaurentPoly(p.vars, {})
    p, g = align(p, g)
    sp_ = monomial_content(p)
    sg = monomial_content(g)
    ph = p.shifted(tuple(-e for e in sp_))
    gh = g.shifted(tuple(-e for e in sg))
    lead = max(gh.terms, key=_term_sort_key)
    lead_c = gh.terms[lead]
    quot = {}
    cur = dict(ph.terms)
    while cur:
        e = max(cur, key=_term_sort_key)
        diff = tuple(x - y for x, y in zip(e, lead))
        if any(d < 0 for d in diff):
            return None
        q = Fraction(cur[e]) / lead_c
        quot[diff] = _norm_coeff(q)
        for ge, gc in gh.terms.items():
            key = tuple(x + y for x, y in zip(diff, ge))
            s = cur.get(key, 0) - q * gc
            if s == 0:
                cur.pop(key, None)
            else:
                cur[key] = _norm_coeff(s)
    shift = tuple(x - y for x, y in zip(sp_, sg))
    return LaurentPoly(p.vars, quot).shifted(shift)


def _fraction_clear(p: LaurentPoly):
    """Scale p to integer coefficients; return (int_poly, scale) with p = int_poly / scale."""
    denoms = [c.denominator for c in p.terms.values() if isinstance(c, Fraction)]
    scale = 1
    for d in denoms:
        scale = scale * d // _int_gcd(scale, d)
    if scale == 1:
        return p, 1
    return LaurentPoly(p.vars, {e: c * scale for e, c in p.terms.items()}), scale


def _int_content(p: LaurentPoly):
    g = 0
    for c in p.terms.values():
        g = _int_gcd(g, abs(int(c)))
        if g == 1:
            return 1
    return g or 1


def _as_univariate(p: LaurentPoly, i: int):
    """View p as a polynomial in variable i: dict degree -> LaurentPoly coefficient."""
    out = {}
    keep = tuple(j for j in range(len(p.vars)) if j != i)
    restvars = tuple(p.vars[j] for j in keep)
    for exps, c in p.terms.items():
        out.setdefault(exps[i], {})[tuple(exps[j] for j in keep)] = c
    return {d: LaurentPoly(restvars, sub) for d, sub in out.items()}, restvars


def _from_univariate(u, i, variables_):
    out = {}
    for d, coeff in u.items():
        for exps, c in coeff.terms.items():
            vec = list(exps[:i]) + [d] + list(exps[i:])
            out[tuple(vec)] = c
    return LaurentPoly(variables_, out)


def _univ_degree(u):
    return max(u) if u else -1


def _univ_content(u) -> LaurentPoly:
    cont = None
    for coeff in u.values():
        cont = coeff if cont is None else poly_gcd(cont, coeff)
        if cont.is_const() and cont.const_value() == 1:
            break
    return cont


def _univ_scale(u, factor: LaurentPoly):
    return {d: coeff * factor for d, coeff in u.items()}


def _univ_exact_div(u, divisor: LaurentPoly):
    out = {}
    for d, coeff in u.items():
        q = exact_divide(coeff, divisor)
        assert q is not None, "content division failed in gcd"
        out[d] = q
    return out


def _univ_prem(f, g):
    """Pseudo remainder of f by g (both nonzero univariate views)."""
    dg = _univ_degree(g)
    lg = g[dg]
    r = dict(f)
    while r and _univ_degree(r) >= dg:
        dr = _univ_degree(r)
        lr = r[dr]
        new = {d: coeff * lg for d, coeff in r.items()}
        for d, coeff in g.items():
            key = d + dr - dg
            s = new.get(key)
            s = (-coeff * lr) if s is None else s - coeff * lr
            if s.is_zero():
                new.pop(key, None)
            else:
                new[key] = s
        new.pop(dr, None)
        r = new
    return r


def poly_gcd(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """GCD of two Laurent polynomials, up to a unit (monomial times sign).

    Computed by a primitive pseudo-remainder sequence, recursing on the
    number of variables.  The result is an honest polynomial with no
    monomial content, integer coprime coefficients, and positive leading
    coefficient under the canonical term order.
    """
    p, q = align(p.drop_trivial_vars(), q.drop_trivial_vars())
    if p.is_zero():
        base = q
    elif q.is_zero():
        base = p
    elif not p.vars:
        a = Fraction(p.terms.get((), 0))
        b = Fraction(q.terms.get((), 0))
        if a.denominator == b.denominator == 1:
            g = _int_gcd(abs(a.numerator), abs(b.numerator))
        else:
            g = 1          # fractional constants are units
        return LaurentPoly((), {(): g} if g else {})
    else:
        ph, _ = _fraction_clear(p.shifted(tuple(-e for e in monomial_content(p))))
        qh, _ = _fraction_clear(q.shifted(tuple(-e for e in monomial_content(q))))
        i = len(p.vars) - 1
        f, restvars = _as_univariate(ph, i)
        g, _ = _as_univariate(qh, i)
        cf, cg = _univ_content(f), _univ_content(g)
        f = _univ_exact_div(f, cf)
        g = _univ_exact_div(g, cg)
        cont = poly_gcd(cf, cg)
        if _univ_degree(f) < _univ_degree(g):
            f, g = g, f
        while g:
            r = _univ_prem(f, g)
            if not r:
                f = g
                break
            f, g = g, _univ_exact_div(r, _univ_content(r))
        base = _from_univariate(_univ_scale(f, cont), i, p.vars)
    if base.is_zero():
        return base
    base = base.shifted(tuple(-e for e in monomial_content(base)))
    base, _ = _fraction_clear(base)
    ic = _int_content(base)
    if ic > 1:
        base = LaurentPoly(base.vars, {e: c // ic for e, c in base.terms.items()})
    lead = max(base.terms, key=_term_sort_key)
    if base.terms[lead] < 0:
        base = -base
    return base


# --------------------------------------------------------------------------
# Rational functions.
# --------------------------------------------------------------------------

class RatFunc:
    """A fraction of Laurent polynomials; equality via cross-multiplication.

    Construction normalizes the representation (common monomial content,
    integer content, positive leading denominator coefficient, and a full
    GCD reduction when both parts have total degree <= GCD_DEGREE_BOUND),
    but canonical reduction is never assumed when testing equality.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = LaurentPoly.const(num)
        if den is None:
            den = LaurentPoly.const(1)
        elif isinstance(den, (int, Fraction)):
            den = LaurentPoly.const(den)
        if den.is_zero():
            raise DivisionByZero("rational function with zero denominator")
        self.num, self.den = _ratfunc_reduce(*align(num, den))

    @staticmethod
    def _trusted(num: LaurentPoly, den: LaurentPoly) -> RatFunc:
        """Wrap ``num / den`` as given, unnormalised.

        Only for a nonzero ``den`` over the same variables as ``num``.
        """
        r = object.__new__(RatFunc)
        r.num = num
        r.den = den
        return r

    @staticmethod
    def _coprime(num: LaurentPoly, den: LaurentPoly) -> RatFunc:
        """``RatFunc(num, den)`` for a nonzero den that shares no non-unit factor with num.

        Every normalisation step runs but the GCD, which could only be a unit.
        """
        return RatFunc._trusted(*_ratfunc_reduce(*align(num, den), coprime=True))

    # ---- arithmetic ----

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction, LaurentPoly)):
            num = other if isinstance(other, LaurentPoly) else LaurentPoly.const(other)
            return RatFunc._trusted(num, LaurentPoly.const(1, num.vars))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._trusted(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.num.is_zero():
            raise DivisionByZero("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return other / self

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            if self.num.is_zero():
                raise DivisionByZero("negative power of zero")
            return RatFunc(self.den ** (-k), self.num ** (-k))
        return RatFunc(self.num ** k, self.den ** k)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self.num * other.den - other.num * self.den).is_zero()

    def __hash__(self):
        # A value that is a Laurent polynomial hashes as that LaurentPoly
        # (and so as the number it equals, when constant).  Any other value
        # hashes what a common factor of num and den cannot change: a
        # product's largest (smallest) exponent of a variable is the sum of
        # its factors'.
        quotient = exact_divide(self.num, self.den)
        if quotient is not None:
            return hash(quotient)
        num, den = self.num.terms, self.den.terms
        shape = []
        for i, name in enumerate(self.num.vars):
            top = max(e[i] for e in num) - max(e[i] for e in den)
            bottom = min(e[i] for e in num) - min(e[i] for e in den)
            if top or bottom:
                shape.append((name, top, bottom))
        return hash(tuple(shape))

    def is_zero(self):
        return self.num.is_zero()

    def subs_int(self, name, value):
        den = self.den.subs_int(name, value)
        if den.is_zero():
            raise DivisionByZero(f"denominator vanishes at {name}={value}")
        return RatFunc(self.num.subs_int(name, value), den)

    def to_text(self):
        if len(self.den.terms) == 1 and self.den == LaurentPoly.const(1, self.den.vars):
            return poly_to_text(self.num)
        return f"({poly_to_text(self.num)}) / ({poly_to_text(self.den)})"

    def to_json(self):
        return {"num": poly_to_json(self.num), "den": poly_to_json(self.den)}

    def __repr__(self):
        return f"RatFunc({self.to_text()!r})"

    def __str__(self):
        return self.to_text()


def ratfunc_from_json(obj) -> RatFunc:
    try:
        return RatFunc(poly_from_json(obj["num"]), poly_from_json(obj["den"]))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ParseError(f"bad rational-function JSON: {exc}") from exc


def _ratfunc_reduce(num: LaurentPoly, den: LaurentPoly, coprime=False):
    """Normalize a num/den pair (see RatFunc docstring); ``coprime`` skips the GCD."""
    if num.is_zero():
        return LaurentPoly(num.vars, {}), LaurentPoly.const(1, den.vars)
    # joint monomial content
    mn = monomial_content(num)
    md = monomial_content(den)
    shift = tuple(-min(a, b) for a, b in zip(mn, md))
    num = num.shifted(shift)
    den = den.shifted(shift)
    # clear fractions jointly, then strip the common integer content
    num, sn = _fraction_clear(num)
    den, sd = _fraction_clear(den)
    if sn != sd:
        num = num * sd
        den = den * sn
    g = _int_gcd(_int_content(num), _int_content(den))
    if g > 1:
        num = LaurentPoly(num.vars, {e: c // g for e, c in num.terms.items()})
        den = LaurentPoly(den.vars, {e: c // g for e, c in den.terms.items()})
    # full gcd when small
    if (not coprime and num.total_degree() <= GCD_DEGREE_BOUND
            and den.total_degree() <= GCD_DEGREE_BOUND and not den.is_const()):
        g = poly_gcd(num, den)
        if not g.is_const():
            qn = exact_divide(num, g)
            qd = exact_divide(den, g)
            if qn is not None and qd is not None:
                num, den = qn, qd
                num, _ = _fraction_clear(num)
                den, _ = _fraction_clear(den)
    lead = max(den.terms, key=_term_sort_key)
    if den.terms[lead] < 0:
        num, den = -num, -den
    return num, den


# --------------------------------------------------------------------------
# The sp/sm subring and the specialization maps.
# --------------------------------------------------------------------------

def sigma_swap(p: LaurentPoly) -> LaurentPoly:
    """Exchange sp and sm in every term; an involution."""
    p = p.with_vars(("sp", "sm"))
    return LaurentPoly(("sp", "sm"), {(j, i): c for (i, j), c in p.terms.items()})


def validate_sigma_poly(p: LaurentPoly):
    """Enforce the sp/sm subring invariants (nonnegative exponents, dyadic coefficients)."""
    p = p.with_vars(("sp", "sm"))
    for exps, c in p.terms.items():
        if any(e < 0 for e in exps):
            raise ValidationError(f"negative exponent in sigma polynomial term {exps}")
        den = Fraction(c).denominator
        if den & (den - 1):
            raise ValidationError(f"coefficient {c} is not dyadic")
    return p


def specialize(p, assignment) -> RatFunc:
    """Apply the ring homomorphism sending each variable to a rational function.

    ``p`` may be a LaurentPoly or a RatFunc; every variable of ``p`` must be
    assigned.  Negative exponents of a variable sent to zero raise
    DivisionByZero.
    """
    if isinstance(p, RatFunc):
        den = specialize(p.den, assignment)
        if den.is_zero():
            raise DivisionByZero("denominator specializes to zero")
        return specialize(p.num, assignment) / den
    missing = [v for v in p.vars if v not in assignment and any(e[p.vars.index(v)] for e in p.terms)]
    if missing:
        raise ValidationError(f"no assignment for variables {missing}")
    values = {}
    for name in p.vars:
        if name in assignment:
            val = assignment[name]
            if not isinstance(val, RatFunc):
                val = RatFunc(val if isinstance(val, LaurentPoly) else LaurentPoly.const(val))
            values[name] = val
    total = RatFunc(0)
    pow_cache = {}
    for exps, c in p.terms.items():
        term = RatFunc(c)
        for name, e in zip(p.vars, exps):
            if e == 0:
                continue
            key = (name, e)
            if key not in pow_cache:
                base = values[name]
                if e < 0 and base.is_zero():
                    raise DivisionByZero(f"{name} -> 0 with exponent {e}")
                pow_cache[key] = base ** e
            term = term * pow_cache[key]
        total = total + term
    return total


def _cancel_common(num: LaurentPoly, den: LaurentPoly, lin: LaurentPoly):
    """Divide num and den by lin for as long as both divide exactly."""
    while True:
        qn = exact_divide(num, lin)
        qd = exact_divide(den, lin)
        if qn is None or qd is None:
            return num, den
        num, den = qn, qd


def exact_div_linear(p: RatFunc):
    """Divide by (a - s) exactly, reporting success.

    Returns (quotient, True) when (a - s) divides p as a rational function
    with no pole left along a = s (after cancelling common (a - s) factors
    of the stored numerator and denominator), so that evaluation at a = s
    is well defined.  Otherwise returns (remainder witness, False), the
    witness being the input evaluated on a = s.
    """
    lin = LaurentPoly.var("a") - LaurentPoly.var("s")
    num, den = _cancel_common(p.num, p.den, lin)
    qn = exact_divide(num, lin)
    den_on = _substituted(den, "a", "s")
    if qn is None or den_on.is_zero():
        return RatFunc(_substituted(num, "a", "s"), 1 if den_on.is_zero() else den_on), False
    return RatFunc(qn, den), True


def substitute_equal(p: RatFunc, x, y) -> RatFunc:
    """Evaluate a rational function on the locus x = y."""
    den = _substituted(p.den, x, y)
    if den.is_zero():
        raise DivisionByZero(f"denominator vanishes identically on {x}={y}")
    return RatFunc(_substituted(p.num, x, y), den)


def limit_order2_at_v1(p: RatFunc) -> RatFunc:
    """Exact value of (p - 1) / (v - 1/v)^2 at v = 1.

    Requires (p - 1) to vanish to order >= 2 at v = 1; otherwise raises
    OrderTooLow carrying the surviving low-order term.  The result is a
    rational function of z alone (a Laurent polynomial whenever the input
    denominator is a unit at v = 1).
    """
    vminus1 = LaurentPoly(("v",), {(1,): 1, (0,): -1})
    # cancel common (v-1) factors so a removable singularity is not fatal
    b_num, den = _cancel_common(p.num - p.den, p.den, vminus1)
    den_at_1 = den.subs_int("v", 1)
    if den_at_1.is_zero():
        raise OrderTooLow("denominator vanishes at v=1", surviving=den)
    q1_ = exact_divide(b_num, vminus1)
    if q1_ is None:
        raise OrderTooLow("(p-1) does not vanish at v=1",
                          surviving=RatFunc(b_num.subs_int("v", 1), den_at_1))
    q2_ = exact_divide(q1_, vminus1)
    if q2_ is None:
        raise OrderTooLow("(p-1) vanishes only to first order at v=1",
                          surviving=RatFunc(q1_.subs_int("v", 1), den_at_1))
    # (p-1)/(v - 1/v)^2 = q2_ * v^2 / (den * (v+1)^2); evaluate at v=1
    result_num = q2_.subs_int("v", 1)
    return RatFunc(result_num, den_at_1 * 4)


# --------------------------------------------------------------------------
# Truncated series in the expansion variable d.
# --------------------------------------------------------------------------

DELTA_DEFAULT_ORDER = 3


class DeltaSeries:
    """A truncated power series in d with LaurentPoly-in-z coefficients.

    ``order`` is the truncation: exponents 0..order-1 are stored, higher
    ones are dropped.  Arithmetic truncates consistently.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs=None):
        if order < 1:
            raise ValidationError("series order must be >= 1")
        self.order = order
        clean = {}
        for k, c in (coeffs or {}).items():
            if not 0 <= k:
                raise ValidationError(f"negative series exponent {k}")
            if k >= order:
                continue
            c = LaurentPoly.const(c, ("z",)) if isinstance(c, (int, Fraction)) else c.with_vars(("z",))
            if not c.is_zero():
                clean[k] = c
        self.coeffs = clean

    @staticmethod
    def const(c, order=DELTA_DEFAULT_ORDER):
        return DeltaSeries(order, {0: LaurentPoly.const(c, ("z",))})

    def coefficient(self, k):
        return self.coeffs.get(k, LaurentPoly(("z",), {}))

    def _common(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            other = DeltaSeries(self.order, {0: other if isinstance(other, LaurentPoly) else LaurentPoly.const(other, ("z",))})
        if not isinstance(other, DeltaSeries):
            return None
        return other

    def __add__(self, other):
        other = self._common(other)
        if other is None:
            return NotImplemented
        order = min(self.order, other.order)
        out = {}
        for k in range(order):
            c = self.coefficient(k) + other.coefficient(k)
            if not c.is_zero():
                out[k] = c
        return DeltaSeries(order, out)

    __radd__ = __add__

    def __neg__(self):
        return DeltaSeries(self.order, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        other = self._common(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._common(other)
        if other is None:
            return NotImplemented
        order = min(self.order, other.order)
        out = {}
        for i, ci in self.coeffs.items():
            for j, cj in other.coeffs.items():
                if i + j >= order:
                    continue
                prod = ci * cj
                if i + j in out:
                    out[i + j] = out[i + j] + prod
                else:
                    out[i + j] = prod
        return DeltaSeries(order, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._common(other)
        if other is None:
            return NotImplemented
        order = min(self.order, other.order)
        return all(self.coefficient(k) == other.coefficient(k) for k in range(order))

    def __hash__(self):
        # equality compares coefficient 0 at every order, and only it at order 1
        return hash(self.coefficient(0))

    def to_text(self):
        if not self.coeffs:
            return f"0 + O(d^{self.order})"
        parts = []
        for k in sorted(self.coeffs):
            c = poly_to_text(self.coeffs[k])
            parts.append(f"({c})" + ("" if k == 0 else f"*d^{k}" if k > 1 else "*d"))
        return " + ".join(parts) + f" + O(d^{self.order})"

    def to_json(self):
        return {"order": self.order,
                "coeffs": {str(k): poly_to_json(c) for k, c in sorted(self.coeffs.items())}}

    def __repr__(self):
        return f"DeltaSeries({self.to_text()!r})"

    def __str__(self):
        return self.to_text()


def series_from_json(obj):
    try:
        return DeltaSeries(_json_int(obj["order"], "series order"),
                           {_json_decimal(k, "series exponent"): poly_from_json(c)
                            for k, c in obj["coeffs"].items()})
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ParseError(f"bad series JSON: {exc}") from exc


def series_exp_v(p: RatFunc, order=DELTA_DEFAULT_ORDER) -> DeltaSeries:
    """Expand a rational function of (v, z) by substituting v = exp(-d/2).

    Each term c v^e z^f of the numerator or the denominator adds
    c (-e/2)^k / k! z^f to its d^k coefficient; ``_series_divide`` then
    divides the two.  z stays formal.  Raises ValidationError for any
    variable but v and z, PoleAtOne when the denominator vanishes at
    v = 1, and refuses denominators whose value at v = 1 is not a unit
    monomial in z (the coefficients would leave the Laurent ring).
    """
    if order < 1:
        raise ValidationError("series order must be >= 1")
    factors = {}                # e -> [(-e/2)^k / k! for k < order]

    def coefficients(poly):
        out = [{} for _ in range(order)]
        for (e, f), c in poly.with_vars(("v", "z")).terms.items():
            if e not in factors:
                factor, factors[e] = Fraction(1), []
                for k in range(order):
                    factors[e].append(factor)
                    factor = factor * -e / (2 * (k + 1))
            for coeff, factor in zip(out, factors[e]):
                coeff[(f,)] = coeff.get((f,), 0) + c * factor
        return [LaurentPoly(("z",), coeff) for coeff in out]

    quotient = _series_divide(coefficients(p.num), coefficients(p.den))
    return DeltaSeries(order, dict(enumerate(quotient)))


def _series_divide(a, b):
    """The coefficients c_k = (a_k - sum_{j=1..k} b_j c_{k-j}) / b_0 of a / b.

    a and b list the d^k coefficients of two series to one order; b_0 must
    be a unit monomial in z.
    """
    lead = b[0]
    if lead.is_zero():
        raise PoleAtOne("denominator vanishes at v=1")
    if len(lead.terms) != 1:
        raise ValidationError(
            "series denominator is not a unit at v=1; coefficients would not be Laurent in z")
    inv_lead = lead ** -1
    c = []
    for k, ak in enumerate(a):
        for j in range(1, k + 1):
            if b[j].terms and c[k - j].terms:
                ak = ak - b[j] * c[k - j]
        c.append(ak * inv_lead)
    return c


def psi_series(p: LaurentPoly, order=2) -> DeltaSeries:
    """Truncated image of an sp/sm polynomial under the degeneration map.

    Substitutes sp -> (z^2+3) - (d/2) z^2 and sm -> (z^2+3) + (d/2) z^2,
    computed modulo d^order (default d^2): the d^k coefficient of
    sp^i sm^j is (z^2/2)^k (z^2+3)^(i+j-k) sum_m (-1)^m C(i, m) C(j, k-m).
    """
    base = LaurentPoly(("z",), {(2,): 1, (0,): 3})
    coeffs = [LaurentPoly(("z",), {}) for _ in range(order)]
    for (i, j), c in validate_sigma_poly(p).terms.items():
        for k in range(min(order, i + j + 1)):
            w = sum((-1) ** m * comb(i, m) * comb(j, k - m) for m in range(k + 1))
            if w:
                coeffs[k] += base ** (i + j - k) * LaurentPoly(("z",), {(2 * k,): Fraction(c * w, 2 ** k)})
    return DeltaSeries(order, dict(enumerate(coeffs)))
