"""The ring layer checked against sympy, which shares no code with it.

Seeded random Laurent polynomials in two and three variables, with
``Fraction`` coefficients chosen so that some results cancel back to
integers, go through ``rings`` and through sympy; the results must agree
exactly.  Every ``LaurentPoly`` produced must also meet the class
invariant: variables in ``ALPHABET`` order, no zero coefficient, each
coefficient an ``int`` or a non-integral ``Fraction``.

sympy is a test-only dependency; without it this module is skipped.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from skeinpoly.rings import (  # noqa: E402
    ALPHABET,
    LaurentPoly,
    RatFunc,
    exact_divide,
    monomial_content,
    poly_gcd,
)

VAR_SETS = [("sp", "sm"), ("s", "a"), ("v", "z", "lam")]
HALVES = (Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(1, 4))


def check_invariant(p):
    assert isinstance(p, LaurentPoly)
    index = [ALPHABET.index(name) for name in p.vars]
    assert index == sorted(set(index)), p.vars
    for exps, c in p.terms.items():
        assert type(exps) is tuple and len(exps) == len(p.vars)
        assert all(type(e) is int for e in exps)
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)
        assert c != 0
    return p


def to_sympy(p):
    syms = [sympy.Symbol(name) for name in p.vars]
    total = sympy.Integer(0)
    for exps, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator) if isinstance(c, Fraction) else sympy.Integer(c)
        for sym, e in zip(syms, exps):
            term *= sym ** e
        total += term
    return total


def same(p, expr):
    check_invariant(p)
    return sympy.expand(to_sympy(p) - expr) == 0


def rand_poly(rng, variables, nterms=5, span=3, halves=True):
    terms = {}
    for _ in range(nterms):
        exps = tuple(rng.randint(-span, span) for _ in variables)
        c = rng.choice(HALVES) if halves and rng.random() < 0.5 else rng.randint(-5, 5)
        terms[exps] = terms.get(exps, 0) + c
    return LaurentPoly(variables, terms)


def operand_pairs(seed, count):
    """Pairs over a shared or nested variable tuple; one in three cancels to integers."""
    rng = random.Random(seed)
    for i in range(count):
        variables = VAR_SETS[i % len(VAR_SETS)]
        a = rand_poly(rng, variables)
        if i % 3 == 0:
            # b = (integer poly) - a: the sum has only integer coefficients
            b = rand_poly(rng, variables, halves=False) - a
        elif i % 3 == 1:
            b = rand_poly(rng, variables[1:])
        else:
            b = rand_poly(rng, variables)
        yield a, b


def test_add_sub_neg_against_sympy():
    for a, b in operand_pairs(1001, 90):
        sa, sb = to_sympy(a), to_sympy(b)
        assert same(a + b, sa + sb)
        assert same(a - b, sa - sb)
        assert same(b - a, sb - sa)
        assert same(-a, -sa)
        assert same(a - a, 0) and (a - a).is_zero()
        assert same(a + 3, sa + 3)
        assert same(Fraction(1, 2) - a, sympy.Rational(1, 2) - sa)


def test_mul_against_sympy():
    for a, b in operand_pairs(1002, 90):
        sa, sb = to_sympy(a), to_sympy(b)
        assert same(a * b, sa * sb)
        assert same(a * 2, 2 * sa)
        assert same(Fraction(2, 3) * a, sympy.Rational(2, 3) * sa)
        assert same(a * Fraction(4, 2), 2 * sa)
        assert same(a * 0, 0)
        # integral Fractions in both factors collapse to int in the product
        assert same((a * 4) * (b * 4), 16 * sa * sb)


def test_pow_and_shifted_against_sympy():
    rng = random.Random(1003)
    for i in range(45):
        variables = VAR_SETS[i % len(VAR_SETS)]
        a = rand_poly(rng, variables, nterms=3, span=2)
        k = rng.randint(0, 4)
        assert same(a ** k, sympy.expand(to_sympy(a) ** k))
        shift = tuple(rng.randint(-3, 3) for _ in variables)
        mono = sympy.Integer(1)
        for name, e in zip(variables, shift):
            mono *= sympy.Symbol(name) ** e
        assert same(a.shifted(shift), to_sympy(a) * mono)
        c = rng.choice(HALVES + (2, -3))
        m = LaurentPoly(variables, {shift: c})
        for j in (-3, -1, 2):
            assert same(m ** j, to_sympy(m) ** j)


def test_subs_int_against_sympy():
    rng = random.Random(1004)
    for i in range(60):
        variables = VAR_SETS[i % len(VAR_SETS)]
        a = rand_poly(rng, variables)
        name = rng.choice(variables)
        value = rng.choice([1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])
        got = a.subs_int(name, value)
        assert name not in got.vars
        expected = to_sympy(a).subs(sympy.Symbol(name), sympy.Rational(value.numerator, value.denominator)
                                    if isinstance(value, Fraction) else value)
        assert same(got, expected)


def _polynomial_part(expr, variables):
    """sympy expression times the monomial that clears its negative powers."""
    syms = [sympy.Symbol(name) for name in variables]
    numer, denom = sympy.fraction(sympy.together(expr))
    assert sympy.Poly(denom, *syms).is_monomial
    return sympy.Poly(sympy.expand(numer), *syms)


def test_exact_divide_against_sympy():
    rng = random.Random(1005)
    for i in range(60):
        variables = VAR_SETS[i % len(VAR_SETS)]
        g = rand_poly(rng, variables, nterms=3, span=2)
        q = rand_poly(rng, variables, nterms=3, span=2)
        if g.is_zero():
            continue
        p = g * q if i % 2 == 0 else g * q + rand_poly(rng, variables, nterms=2, span=2, halves=False)
        got = exact_divide(p, g)
        ratio = sympy.cancel(to_sympy(p) / to_sympy(g))
        numer, denom = sympy.fraction(ratio)
        syms = [sympy.Symbol(name) for name in variables]
        divisible = sympy.Poly(denom, *syms).is_monomial
        if i % 2 == 0:
            assert divisible
        if divisible:
            assert got is not None
            assert same(got, ratio)
        else:
            assert got is None


def test_poly_gcd_against_sympy():
    rng = random.Random(1006)
    for i in range(45):
        variables = VAR_SETS[i % len(VAR_SETS)]
        c = rand_poly(rng, variables, nterms=3, span=2, halves=False)
        a = rand_poly(rng, variables, nterms=3, span=2, halves=False)
        b = rand_poly(rng, variables, nterms=3, span=2, halves=False)
        p, q = a * c, b * c
        if p.is_zero() or q.is_zero():
            continue
        got = check_invariant(poly_gcd(p, q))
        assert all(e == 0 for e in monomial_content(got))
        syms = [sympy.Symbol(name) for name in variables]
        expected = sympy.gcd(_polynomial_part(to_sympy(p), variables),
                             _polynomial_part(to_sympy(q), variables))
        # poly_gcd has coprime integer coefficients, so it equals the
        # primitive part of sympy's gcd up to a sign and a monomial
        _, primitive = expected.primitive()
        unit = sympy.cancel(to_sympy(got) / primitive.as_expr())
        unit_num, unit_den = sympy.fraction(unit)
        assert sympy.Poly(unit_num, *syms).is_monomial and sympy.Poly(unit_den, *syms).is_monomial
        assert abs(sympy.Poly(unit_num, *syms).LC()) == abs(sympy.Poly(unit_den, *syms).LC())


def test_ratfunc_equality_against_sympy():
    rng = random.Random(1007)
    for i in range(45):
        variables = VAR_SETS[i % len(VAR_SETS)]
        n1 = rand_poly(rng, variables, nterms=3, span=2)
        d1 = rand_poly(rng, variables, nterms=3, span=2)
        k = rand_poly(rng, variables, nterms=2, span=2)
        if d1.is_zero() or k.is_zero():
            continue
        if i % 2 == 0:
            n2, d2 = n1 * k, d1 * k
        else:
            n2, d2 = n1 + rand_poly(rng, variables, nterms=1, span=1), d1
        r1, r2 = RatFunc(n1, d1), RatFunc(n2, d2)
        for r in (r1, r2):
            check_invariant(r.num)
            check_invariant(r.den)
        expected = sympy.cancel(to_sympy(n1) / to_sympy(d1) - to_sympy(n2) / to_sympy(d2)) == 0
        if i % 2 == 0:
            assert expected
        assert (r1 == r2) is expected
        assert same(r1.num * d1, to_sympy(r1.den) * to_sympy(n1))
