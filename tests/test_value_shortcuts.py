"""The exact shortcuts of the engine value layer, against generic references.

``LaurentPoly.__mul__`` multiplies by a one-term operand as a shift;
``DubVal`` skips every (s - 1/s) division that cannot succeed; and
``DubVal.ratfunc`` takes its GCD in closed form.  Each is checked here
against a test-local generic version: a plain double loop over terms, the
old DubVal operations (align by powers of s - 1/s, then divide by it with
``rings.exact_divide`` for as long as that succeeds) and
``RatFunc(num, (s - 1/s)^k)`` with ``poly_gcd``.
"""

import random
from fractions import Fraction

import pytest

from skeinpoly import kauffman
from skeinpoly.diagrams import braid_closure, parse_diagram
from skeinpoly.kauffman import _S_MINUS, DubVal, KauffmanEngine, _s_minus_pow
from skeinpoly.rings import GCD_DEGREE_BOUND, LaurentPoly, RatFunc, exact_divide

SA = ("s", "a")


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
S_LESS_1 = LaurentPoly(SA, {(1, 0): 1, (0, 0): -1})
S_PLUS_1 = LaurentPoly(SA, {(1, 0): 1, (0, 0): 1})


# ---- the old generic DubVal operations ------------------------------------

def ref_reduce(num, k):
    if num.is_zero():
        return num, 0
    while k > 0:
        q = exact_divide(num, S)
        if q is None:
            break
        num, k = q, k - 1
    return num, k


def ref_add(x, y, sign=1):
    k = max(x.k, y.k)
    a = naive_mul(x.num, naive_pow(S, k - x.k))
    b = naive_mul(y.num, naive_pow(S, k - y.k))
    return ref_reduce(a + b if sign == 1 else a - b, k)


def ref_mul(x, y):
    if isinstance(y, DubVal):
        return ref_reduce(naive_mul(x.num, y.num), x.k + y.k)
    return ref_reduce(naive_mul(x.num, y), x.k)


def assert_reduced(v):
    assert v.k >= 0
    assert v.k == 0 or exact_divide(v.num, S) is None, v
    if v.num.is_zero():
        assert v.k == 0


def assert_same(v, ref):
    num, k = ref
    assert (v.k, structure(v.num.with_vars(SA))) == (k, structure(num.with_vars(SA)))
    assert_reduced(v)


def random_poly(rng, terms=4, span=3):
    out = {}
    for _ in range(rng.randint(1, terms)):
        e = (rng.randint(-span, span), rng.randint(-span, span))
        out[e] = rng.choice([-3, -2, -1, 1, 2, 5])
    return LaurentPoly(SA, out)


def random_value(rng):
    """A reduced DubVal whose numerator often has the factors s - 1 and s + 1."""
    num = random_poly(rng)
    num = naive_mul(num, naive_pow(S_LESS_1, rng.choice([0, 0, 1, 2])))
    num = naive_mul(num, naive_pow(S_PLUS_1, rng.choice([0, 0, 1, 2])))
    num, k = ref_reduce(num, rng.randint(0, 4))
    value = DubVal(num, k, reduce=False)
    assert_reduced(value)
    return value


def test_dubval_ops_match_generic_reference():
    rng = random.Random(20261019)
    for _ in range(250):
        x, y = random_value(rng), random_value(rng)
        assert_same(x + y, ref_add(x, y))
        assert_same(x - y, ref_add(x, y, -1))
        assert_same(x - x, (LaurentPoly(SA, {}), 0))
        assert_same(x * y, ref_mul(x, y))
        assert_same(x * _S_MINUS, ref_mul(x, S))
        mono = LaurentPoly(SA, {(rng.randint(-2, 2), rng.randint(-2, 2)): rng.choice([-2, 1, 3])})
        assert_same(x * mono, ref_mul(x, mono))
        assert_same(x * DubVal(mono, 0), ref_mul(x, DubVal(mono, 0)))
        assert_same(DubVal(mono, 0) * x, ref_mul(DubVal(mono, 0), x))
        poly = random_poly(rng)
        assert_same(x * poly, ref_mul(x, poly))
        # the constructor reduces whatever it is given
        num = naive_mul(random_poly(rng), naive_pow(S, rng.randint(0, 3)))
        k = rng.randint(0, 4)
        assert_same(DubVal(num, k), ref_reduce(num, k))


def test_sums_that_cancel_a_factor_are_reduced():
    # equal k: the sum may gain the factor s - 1/s, and the constructor must divide it out
    x = DubVal(S_LESS_1 + 1, 2)                       # s / (s - 1/s)^2
    y = DubVal(LaurentPoly(SA, {(-1, 0): -1}), 2)     # -1/s / (s - 1/s)^2
    assert_same(x + y, ref_add(x, y))
    assert (x + y).k == 1 and (x + y).num == LaurentPoly.const(1, SA)
    # a product of values each carrying one of s - 1, s + 1
    p = DubVal(S_LESS_1, 1)
    q = DubVal(S_PLUS_1, 1)
    assert_same(p * q, ref_mul(p, q))
    assert (p * q).k == 1


def test_loops_are_reduced_and_cached():
    for n in range(7):
        value = DubVal.loops(n)
        delta_num = S + LaurentPoly(SA, {(0, 1): 1, (0, -1): -1})
        assert_same(value, ref_reduce(naive_pow(delta_num, n), n))
        assert DubVal.loops(n) is value


def test_engine_never_tries_a_futile_division(monkeypatch):
    results = []
    divide = kauffman._div_s_minus

    def counted(p):
        q = divide(p)
        results.append(q)
        return q

    monkeypatch.setattr(kauffman, "_div_s_minus", counted)
    engine = KauffmanEngine()
    for text in ("braid:2:[1,1,1]", "braid:3:[1,-2,1,-2]", "braid:3:[1,1,2,-1,2,2]",
                 "braid:4:[1,2,-3,2,1,2,3]"):
        engine.value(braid_closure(parse_diagram(text))).ratfunc()
    assert None not in results
    assert DubVal(naive_mul(S, S), 1).k == 0 and results[-1] is not None    # the wrapper is live


# ---- DubVal.ratfunc against RatFunc(num, (s - 1/s)^k) ----------------------

def ratfunc_structure(r):
    return structure(r.num), structure(r.den), r.to_text()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_ratfunc_matches_poly_gcd(k):
    rng = random.Random(k)
    for root, other in ((S_LESS_1, S_PLUS_1), (S_PLUS_1, S_LESS_1)):
        for mult in range(k + 2):
            for _ in range(3):
                num = naive_mul(random_poly(rng), naive_pow(root, mult))
                for value in (DubVal(num, k), DubVal(num, k, reduce=False),
                              DubVal(naive_mul(num, naive_pow(other, rng.randint(0, 2))), k, reduce=False)):
                    expected = RatFunc(value.num, _s_minus_pow(value.k))
                    assert ratfunc_structure(value.ratfunc()) == ratfunc_structure(expected)


def test_ratfunc_above_the_degree_bound_keeps_its_factor():
    # above GCD_DEGREE_BOUND neither path takes a GCD, so s - 1 stays in both parts
    big = naive_mul(LaurentPoly(SA, {(GCD_DEGREE_BOUND, 1): 1, (0, 0): 3}), S_LESS_1)
    value = DubVal(big, 2)
    assert value.k == 2
    got = value.ratfunc()
    expected = RatFunc(value.num, _s_minus_pow(2))
    assert ratfunc_structure(got) == ratfunc_structure(expected)
    assert exact_divide(got.den, S_LESS_1) is not None
    assert exact_divide(got.num, S_LESS_1) is not None


def test_engine_values_print_as_before():
    engine = KauffmanEngine()
    for word in ([1, 1, 1], [1, -2, 1, -2], [1, 1, 2, -1, 2, 2], [1, 2, 1, 2, 1, 2, 1]):
        value = engine.value(braid_closure(parse_diagram(f"braid:3:{word}")))
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
