"""The engine value layer against generic references.

``LaurentPoly.__mul__`` multiplies by a one-term operand as a shift, and
``DubVal`` derives its printed form num / (s - 1/s)^k from a polynomial in
(a, z) by expanding z as s - 1/s.  Each is checked here against a
test-local generic version: a plain double loop over terms, the value
with z expanded and brought over (s - 1/s)^K, then divided by s - 1/s
with ``rings.exact_divide`` for as long as that succeeds, and
``RatFunc(num, (s - 1/s)^k)`` with ``poly_gcd``.
"""

import random
from fractions import Fraction

import pytest

from skeinpoly.diagrams import braid_closure, parse_diagram
from skeinpoly.errors import ValidationError
from skeinpoly.kauffman import DubVal, KauffmanEngine, _s_minus_pow
from skeinpoly.rings import GCD_DEGREE_BOUND, LaurentPoly, RatFunc, exact_divide

SA = ("s", "a")
AZ = ("a", "z")


def naive_mul(p, q):
    """p * q by the double loop over terms, with exact Fraction sums."""
    assert p.vars == q.vars
    out = {}
    for ep, cp in p.terms.items():
        for eq, cq in q.terms.items():
            e = tuple(x + y for x, y in zip(ep, eq))
            out[e] = out.get(e, 0) + Fraction(cp) * cq
    return LaurentPoly(p.vars, out)


def naive_pow(p, k):
    out = LaurentPoly.const(1, p.vars)
    for _ in range(k):
        out = naive_mul(out, p)
    return out


def structure(p):
    """Variables, then each term with its coefficient's type: equal structures print equal bytes."""
    return p.vars, sorted((e, type(c).__name__, c) for e, c in p.terms.items())


S = LaurentPoly(SA, {(1, 0): 1, (-1, 0): -1})
K = 6                                   # no value below has a pole of higher order at z = 0


# ---- the printed form against the generic reduction -----------------------

def ref_reduce(num, k):
    if num.is_zero():
        return num, 0
    while k > 0:
        q = exact_divide(num, S)
        if q is None:
            break
        num, k = q, k - 1
    return num, k


def expanded(p):
    """p(a, z) * S^K over (s, a), with z expanded as S."""
    out = LaurentPoly(SA, {})
    for (ea, ez), c in p.with_vars(AZ).terms.items():
        assert ez + K >= 0
        out = out + naive_mul(LaurentPoly(SA, {(0, ea): c}), naive_pow(S, ez + K))
    return out


def assert_reduced(v):
    assert v.k >= 0
    assert v.k == 0 or exact_divide(v.num, S) is None, v
    if v.num.is_zero():
        assert v.k == 0


def assert_print_form(v):
    num, k = ref_reduce(expanded(v.poly), K)
    assert (v.k, structure(v.num)) == (k, structure(num.with_vars(SA)))
    assert_reduced(v)


def random_poly(rng, terms=4, z_span=(-3, 3), a_span=3):
    out = {}
    for _ in range(rng.randint(1, terms)):
        e = (rng.randint(-a_span, a_span), rng.randint(*z_span))
        out[e] = rng.choice([-3, -2, -1, 1, 2, 5])
    return LaurentPoly(AZ, out)


def test_dubval_ops_match_generic_reference():
    rng = random.Random(20261019)
    for _ in range(80):
        p, q = random_poly(rng), random_poly(rng, z_span=(-3, 9))
        x, y = DubVal(p), DubVal(q)
        for value, poly in ((x, p), (x + y, p + q), (x - y, p - q), (x * y, naive_mul(p, q)),
                            (x * q, naive_mul(p, q)), (x - x, LaurentPoly(AZ, {}))):
            assert structure(value.poly) == structure(poly)
            assert_print_form(value)
        assert x + y == y + x and x * y == y * x and hash(x * y) == hash(y * x)


def test_print_form_above_the_degree_bound():
    # z-degrees up to GCD_DEGREE_BOUND + 1, poles up to K
    rng = random.Random(25)
    for _ in range(60):
        value = DubVal(random_poly(rng, terms=5, z_span=(-K, GCD_DEGREE_BOUND + 1), a_span=2))
        assert_print_form(value)
        got = value.ratfunc()
        expected = RatFunc(value.num, _s_minus_pow(value.k))
        assert ratfunc_structure(got) == ratfunc_structure(expected)


def test_sums_that_cancel_a_factor_are_reduced():
    # the lowest rows cancel, so the pole at z = 0 drops, here to none
    x = DubVal(LaurentPoly(AZ, {(1, -2): 1, (0, -1): 3, (2, 4): 1}))
    y = DubVal(LaurentPoly(AZ, {(1, -2): -1, (0, -1): -3, (0, 0): 2}))
    assert (x.k, y.k, (x + y).k, (x - y).k) == (2, 2, 0, 2)
    for value in (x, y, x + y, x - y):
        assert_print_form(value)
    rng = random.Random(7)
    for _ in range(100):
        p, q = random_poly(rng), random_poly(rng, terms=2, z_span=(-1, 2))
        assert_print_form(DubVal(p) + DubVal(q - p))
        assert_print_form(DubVal(p) - DubVal(p + q))


def test_dubval_takes_only_a_and_z():
    for bad in (LaurentPoly.var("s"), LaurentPoly(SA, {(0, 1): 1}), LaurentPoly(("a", "v"), {(1, 1): 1})):
        with pytest.raises(ValidationError):
            DubVal(bad)
    with pytest.raises(ValidationError):
        DubVal(LaurentPoly.var("z")) * LaurentPoly.var("s")
    assert DubVal(LaurentPoly.var("a")) == DubVal(LaurentPoly(AZ, {(1, 0): 1}))
    assert DubVal(LaurentPoly.const(3)).poly.vars == AZ


def test_loops_are_reduced_and_cached():
    for n in range(7):
        value = DubVal.loops(n)
        delta_num = S + LaurentPoly(SA, {(0, 1): 1, (0, -1): -1})
        num, k = ref_reduce(naive_pow(delta_num, n), n)
        assert (value.k, structure(value.num)) == (k, structure(num))
        assert DubVal.loops(n) is value


# ---- DubVal.ratfunc against RatFunc(num, (s - 1/s)^k) ----------------------

def ratfunc_structure(r):
    return structure(r.num), structure(r.den), r.to_text()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_ratfunc_matches_poly_gcd(k):
    # total degrees stay within GCD_DEGREE_BOUND, so the reference runs poly_gcd
    rng = random.Random(k)
    for _ in range(30):
        terms = dict(random_poly(rng, z_span=(-k, 4)).terms)
        terms[rng.randint(-2, 2), -k] = rng.choice([-2, 1, 3])
        value = DubVal(LaurentPoly(AZ, terms))
        assert value.k == k
        assert_print_form(value)
        expected = RatFunc(value.num, _s_minus_pow(value.k))
        assert ratfunc_structure(value.ratfunc()) == ratfunc_structure(expected)


def test_engine_values_print_as_before():
    engine = KauffmanEngine()
    for word in ([1, 1, 1], [1, -2, 1, -2], [1, 1, 2, -1, 2, 2], [1, 2, 1, 2, 1, 2, 1]):
        value = engine.value(braid_closure(parse_diagram(f"braid:3:{word}")))
        assert_print_form(value)
        expected = RatFunc(value.num, _s_minus_pow(value.k))
        assert ratfunc_structure(value.ratfunc()) == ratfunc_structure(expected)


# ---- the monomial product -------------------------------------------------

def random_general(rng, variables, terms):
    out = {}
    for _ in range(terms):
        e = tuple(rng.randint(-3, 3) for _ in variables)
        out[e] = rng.choice([-2, 1, 4, Fraction(1, 2), Fraction(-3, 4), Fraction(2, 3)])
    return LaurentPoly(variables, out)


@pytest.mark.parametrize("variables", [("s",), SA, ("v", "z", "lam"), ("a", "v", "z", "sm")])
def test_monomial_product_matches_double_loop(variables):
    rng = random.Random(len(variables))
    for _ in range(200):
        p = random_general(rng, variables, rng.randint(0, 6))
        m = random_general(rng, variables, 1)
        for left, right in ((p, m), (m, p)):
            assert structure(left * right) == structure(naive_mul(left, right))
    # integral products of Fractions come out as ints
    half = LaurentPoly(variables, {(1,) * len(variables): Fraction(1, 2),
                                   (0,) * len(variables): Fraction(3, 2)})
    two = LaurentPoly.const(2, variables)
    assert structure(half * two) == structure(naive_mul(half, two))
    assert all(type(c) is int for c in (half * two).terms.values())
    assert structure(half * -two) == structure(naive_mul(half, -two))


def test_product_by_one_returns_the_other_operand():
    p = LaurentPoly(("v", "z", "lam"), {(1, 2, 3): Fraction(1, 3), (0, -1, 0): 2})
    one = LaurentPoly.const(1, ("v", "z", "lam"))
    assert p * one is p and one * p is p
    # over fewer variables the other operand is first padded, as the general path does
    assert structure(p * LaurentPoly.const(1)) == structure(p)
    assert structure(LaurentPoly.const(1, ("v",)) * LaurentPoly.var("z")) == \
        structure(LaurentPoly(("v", "z"), {(0, 1): 1}))
