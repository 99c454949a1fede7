import json
import random
from fractions import Fraction

import pytest

from skeinpoly.errors import (
    DivisionByZero,
    OrderTooLow,
    ParseError,
    PoleAtOne,
    ValidationError,
)
from skeinpoly.rings import (
    ALPHABET,
    DeltaSeries,
    LaurentPoly,
    RatFunc,
    align,
    exact_div_linear,
    exact_divide,
    limit_order2_at_v1,
    poly_from_json,
    poly_gcd,
    poly_to_json,
    poly_to_text,
    psi_series,
    ratfunc_from_json,
    series_exp_v,
    series_from_json,
    sigma_swap,
    specialize,
    substitute_equal,
    validate_sigma_poly,
    _sorted_exps,
    _term_sort_key,
)

V = LaurentPoly.var


def sp_sm(expr_terms):
    return LaurentPoly(("sp", "sm"), expr_terms)


def rand_poly(rng, variables, nterms=4, span=3, denom=False):
    terms = {}
    for _ in range(nterms):
        exps = tuple(rng.randint(-span, span) for _ in variables)
        c = rng.randint(-6, 6)
        if denom and rng.random() < 0.4:
            c = Fraction(c, rng.choice([1, 2, 4]))
        if c:
            terms[exps] = terms.get(exps, 0) + c
    return LaurentPoly(variables, terms)


# ---------------------------------------------------------------------------
# Laurent polynomial ring axioms (seeded randomized)
# ---------------------------------------------------------------------------

def test_ring_axioms_random():
    rng = random.Random(20240811)
    for _ in range(60):
        a = rand_poly(rng, ("v", "z"))
        b = rand_poly(rng, ("v", "z"))
        c = rand_poly(rng, ("z",), denom=True)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + LaurentPoly.const(0) == a
        assert a * LaurentPoly.const(1) == a
        assert a - a == LaurentPoly.const(0)


def test_ratfunc_field_axioms_random():
    rng = random.Random(7)
    for _ in range(25):
        a = RatFunc(rand_poly(rng, ("a", "s"), 3, 2), rand_poly(rng, ("s",), 2, 2) + 1)
        b = RatFunc(rand_poly(rng, ("a", "s"), 3, 2), rand_poly(rng, ("a",), 2, 2) + 3)
        assert a + b == b + a
        assert a * b == b * a
        assert a - a == RatFunc(0)
        assert 1 - a == RatFunc(1) - a
        if not b.is_zero():
            assert (a / b) * b == a


def test_equal_ratfuncs_hash_equal():
    s, a = V("s"), V("a")
    f = s ** 30 + a                  # above GCD_DEGREE_BOUND: no GCD cancels s + 1
    x, y = RatFunc(f * (s + 1), (s + 2) * (s + 1)), RatFunc(f, s + 2)
    assert x == y and hash(x) == hash(y) and len({x, y}) == 1
    # over different variables, and zero however it is written
    assert hash(RatFunc(s * a, a)) == hash(RatFunc(s))
    assert hash(RatFunc(LaurentPoly(("s", "a"), {}), s + 1)) == hash(RatFunc(0))
    rng = random.Random(12)
    for _ in range(40):
        num = rand_poly(rng, ("s", "a"), 3, 2)
        den = rand_poly(rng, ("a", "v"), 2, 2) + 3
        common = rand_poly(rng, ("s", "a", "v"), 3, 9) + 1
        x = RatFunc(num, den)
        unreduced = align(num * common, den * common)
        y = RatFunc._trusted(*unreduced) if rng.random() < 0.5 else RatFunc(*unreduced)
        assert x == y and hash(x) == hash(y)


@pytest.mark.parametrize("make", [
    lambda: (LaurentPoly.const(5), 5),
    lambda: (RatFunc(5), 5),
    lambda: (RatFunc(V("s")), V("s")),
    lambda: (LaurentPoly.const(Fraction(1, 2)), Fraction(1, 2)),
    lambda: (DeltaSeries.const(5), 5),
], ids=["poly-const-int", "ratfunc-int", "ratfunc-poly", "poly-const-fraction", "series-int"])
def test_equal_values_hash_equal_across_types(make):
    x, y = make()
    assert x == y and y == x
    assert hash(x) == hash(y) and len({x, y}) == 1


def test_monomial_negative_power():
    m = LaurentPoly(("v", "z"), {(2, -1): Fraction(3, 2)})
    inv = m ** -1
    assert m * inv == LaurentPoly.const(1)
    with pytest.raises(ValidationError):
        (V("v") + 1) ** -1


def test_exact_divide():
    v, z = V("v"), V("z")
    p = (v - 1) * (v - 1) * (z ** 2 + v)
    assert exact_divide(p, (v - 1) * (v - 1)) == z ** 2 + v
    assert exact_divide(p, v + 1) is None
    # Laurent divisibility: monomials are units
    assert exact_divide(v ** -1 * (v - 1), v - 1) == v ** -1


def test_poly_gcd_small():
    a, s = V("a"), V("s")
    g = (a - s) * (a + s)
    assert poly_gcd((a - s) * (a ** 2 + 1), g) == a - s
    assert poly_gcd(g, g) == g
    assert poly_gcd(a - s, s - a) == a - s
    assert poly_gcd(LaurentPoly.const(4), LaurentPoly.const(6)).const_value() == 2
    # a fractional constant is a unit
    assert poly_gcd(LaurentPoly.const(Fraction(1, 2)), LaurentPoly.const(4)).const_value() == 1
    # a zero operand on either side leaves the other, made primitive
    zero = LaurentPoly(("a",), {})
    assert poly_gcd(zero, 2 * a - 2 * s) == poly_gcd(2 * s - 2 * a, zero) == a - s
    assert poly_gcd(zero, zero).is_zero()


# ---------------------------------------------------------------------------
# The sp/sm subring
# ---------------------------------------------------------------------------

def test_sigma_swap():
    p = sp_sm({(1, 0): 1, (0, 1): -1})       # sp - sm
    assert sigma_swap(p) == -p
    two = 2 * p                               # base values of the two-strand family
    assert sigma_swap(two) == -two
    assert sigma_swap(LaurentPoly.const(5, ("sp", "sm"))).const_value() == 5
    rng = random.Random(3)
    for _ in range(20):
        q = rand_poly(rng, ("sp", "sm"), span=2)
        assert sigma_swap(sigma_swap(q)) == q


def test_specialize_kauffman_phi():
    s = V("s")
    phi = {"sp": RatFunc(2 * s ** -2 + s ** 4), "sm": RatFunc(2 * s ** 2 + s ** -4)}
    assert specialize(sp_sm({(1, 0): 1}), phi) == RatFunc(2 * s ** -2 + s ** 4)
    assert specialize(sp_sm({(0, 1): 1}), phi) == RatFunc(2 * s ** 2 + s ** -4)
    ident = {"sp": RatFunc(V("sp")), "sm": RatFunc(V("sm"))}
    p = sp_sm({(2, 1): Fraction(1, 2), (0, 0): -3})
    assert specialize(p, ident) == RatFunc(p)


def test_specialize_is_homomorphism_random():
    rng = random.Random(12345)
    s = V("s")
    phi = {"sp": RatFunc(2 * s ** -2 + s ** 4), "sm": RatFunc(2 * s ** 2 + s ** -4)}
    for _ in range(15):
        a = rand_poly(rng, ("sp", "sm"), 3, 2)
        b = rand_poly(rng, ("sp", "sm"), 3, 2)
        a = LaurentPoly(("sp", "sm"), {tuple(abs(e) for e in k): c for k, c in a.terms.items()})
        b = LaurentPoly(("sp", "sm"), {tuple(abs(e) for e in k): c for k, c in b.terms.items()})
        assert specialize(a * b, phi) == specialize(a, phi) * specialize(b, phi)
        assert specialize(a + b, phi) == specialize(a, phi) + specialize(b, phi)


def test_specialize_division_by_zero():
    with pytest.raises(DivisionByZero):
        specialize(V("s") ** -1, {"s": RatFunc(0)})


# ---------------------------------------------------------------------------
# Exact division by (a - s) and the order-2 limit at v = 1
# ---------------------------------------------------------------------------

def test_exact_div_linear():
    a, s = V("a"), V("s")
    q, ok = exact_div_linear(RatFunc(a ** 2 - s ** 2))
    assert ok and q == RatFunc(a + s)
    q, ok = exact_div_linear(RatFunc((a - s) * (a - s)))
    assert ok and q == RatFunc(a - s)
    witness, ok = exact_div_linear(RatFunc(a - 2 * s))
    assert not ok and witness == RatFunc(-s)
    # reconstruction: quotient * (a - s) equals the input when exact
    p = RatFunc((a - s) * (a ** 3 + s), s ** 2 + 1)
    q, ok = exact_div_linear(p)
    assert ok and q * RatFunc(a - s) == p
    # parts past GCD_DEGREE_BOUND keep their common factor (a - s) through
    # normalisation, and the division must cancel it first
    p = RatFunc((a ** 2 - s ** 2) * (a - s) * (s ** 30 + a), (a - s) * (s ** 30 + a))
    assert exact_divide(p.den, a - s) is not None
    assert exact_div_linear(p) == (RatFunc(a + s), True)


def test_limit_order2_at_v1():
    v, z = V("v"), V("z")
    vv = RatFunc(v) - RatFunc(v) ** -1
    assert limit_order2_at_v1(RatFunc(1) + vv * vv) == RatFunc(1)
    inner = RatFunc(v + 4, v + 1) + RatFunc((v ** 2 + 4) * z ** 2 + z ** 4)
    value = limit_order2_at_v1(RatFunc(1) + vv * vv * inner)
    assert value == RatFunc(Fraction(5, 2) + 5 * z ** 2 + z ** 4)
    # (v - 1) survives normalisation of parts past GCD_DEGREE_BOUND; the
    # limit cancels it, else the denominator would vanish at v = 1
    big = (v - 1) * (z ** 30 + v)
    p = RatFunc((1 + (v - v ** -1) ** 2 * (z ** 2 + 1)) * big, big)
    assert exact_divide(p.den, v - 1) is not None
    assert limit_order2_at_v1(p) == RatFunc(1 + z ** 2)
    with pytest.raises(OrderTooLow):
        limit_order2_at_v1(RatFunc(v))


# ---------------------------------------------------------------------------
# Truncated series
# ---------------------------------------------------------------------------

def test_psi_series_examples():
    z2 = V("z") ** 2
    diff = sp_sm({(1, 0): 1, (0, 1): -1})
    assert psi_series(diff) == DeltaSeries(2, {1: -z2})
    assert psi_series(LaurentPoly.const(3, ("sp", "sm"))) == DeltaSeries(2, {0: 3})


def test_series_exp_v_basics():
    v = RatFunc(V("v"))
    assert series_exp_v(v, 3) == DeltaSeries(
        3, {0: 1, 1: Fraction(-1, 2), 2: Fraction(1, 8)})
    assert series_exp_v(v - 1 / v, 3) == DeltaSeries(3, {1: -1})
    with pytest.raises(PoleAtOne):
        series_exp_v(RatFunc(1, V("v") - 1), 3)


def test_series_exp_v_multiplicative_random():
    rng = random.Random(2718)
    for _ in range(10):
        na = rand_poly(rng, ("v", "z"), 3, 2)
        nb = rand_poly(rng, ("v", "z"), 3, 2)
        a = RatFunc(na, V("v") + 1)
        b = RatFunc(nb, 2 + V("v") ** 2)
        assert series_exp_v(a * b, 4) == series_exp_v(a, 4) * series_exp_v(b, 4)


def test_delta_series_arithmetic():
    z = V("z").with_vars(("z",))
    s1 = DeltaSeries(3, {0: 1, 1: z, 2: 2})
    s2 = DeltaSeries(3, {0: 2, 2: z ** 2})
    assert (s1 + s2).coefficient(0) == LaurentPoly.const(3, ("z",))
    assert (s1 * s2).coefficient(1) == 2 * z
    assert (s1 * s2).coefficient(2) == LaurentPoly.const(4, ("z",)) + z ** 2
    assert s1 - s2 == DeltaSeries(3, {0: -1, 1: z, 2: 2 - z ** 2})
    assert -s1 == DeltaSeries(3, {0: -1, 1: -z, 2: -2})
    assert 1 - s1 == DeltaSeries(3, {1: -z, 2: -2})
    assert (s1 - s1).to_text() == "0 + O(d^3)" and DeltaSeries(2).to_text() == "0 + O(d^2)"
    # a coefficient at or above the order is dropped
    assert DeltaSeries(2, {0: 1, 2: z, 5: 3}).coeffs == {0: LaurentPoly.const(1, ("z",))}


def test_equal_series_hash_equal():
    # equality compares up to the lower order, so only coefficient 0 is always compared
    z = V("z").with_vars(("z",))
    pairs = ((DeltaSeries(3, {0: 1, 2: 5}), DeltaSeries(2, {0: 1})),
             (DeltaSeries(1, {0: z}), DeltaSeries(4, {0: z, 1: 2, 3: z})),
             (DeltaSeries(2, {0: 0, 1: z}), DeltaSeries(2, {1: z})))
    for x, y in pairs:
        assert x == y and hash(x) == hash(y)


# ---------------------------------------------------------------------------
# Canonical text and JSON forms
# ---------------------------------------------------------------------------

def test_poly_text_canonical():
    p = sp_sm({(0, 0): 3, (1, 0): -2, (0, 1): 2, (1, 1): -1, (0, 2): 1})
    assert poly_to_text(p) == "3 - 2*sp + 2*sm - sp*sm + sm^2"
    assert poly_to_text(LaurentPoly(("z",), {})) == "0"
    assert poly_to_text(LaurentPoly(("z",), {(-2,): Fraction(1, 2)})) == "1/2*z^-2"


def _reference_order(terms):
    return sorted(terms, key=lambda e: (sum(e), tuple(-x for x in e)))


def _reference_text(p):
    """The canonical text form, written out independently of rings."""
    p = p.drop_trivial_vars()
    pieces = []
    for exps in _reference_order(p.terms):
        c = Fraction(p.terms[exps])
        mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(p.vars, exps) if e)
        mag = abs(c)
        num = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
        body = mono if mono and mag == 1 else (f"{num}*{mono}" if mono else num)
        pieces.append(("-" if c < 0 else "+", body))
    if not pieces:
        return "0"
    head = ("-" if pieces[0][0] == "-" else "") + pieces[0][1]
    return " ".join([head] + [f"{sign} {body}" for sign, body in pieces[1:]])


def _reference_json(p):
    p = p.drop_trivial_vars()
    terms = []
    for exps in _reference_order(p.terms):
        c = Fraction(p.terms[exps])
        terms.append({"exp": list(exps), "num": str(c.numerator), "den": str(c.denominator)})
    return {"vars": list(p.vars), "terms": terms}


def test_printers_match_reference():
    rng = random.Random(20261018)
    coeffs = [1, -1, 2, -7, 3 ** 40, -(5 ** 33), Fraction(1, 2), Fraction(-9, 4),
              Fraction(7 ** 20, 3 ** 15), Fraction(-1, 11 ** 12)]
    polys = [LaurentPoly((), {}), LaurentPoly((), {(): 5}), LaurentPoly(("sp", "sm"), {}),
             LaurentPoly(("s",), {(0,): Fraction(-3, 2)})]
    for _ in range(600):
        variables = tuple(sorted(rng.sample(ALPHABET, rng.randint(0, 3)), key=ALPHABET.index))
        span = rng.choice([1, 3, 9])
        terms = {}
        for _ in range(rng.choice([0, 1, 2, 5, 20, 60])):
            exps = tuple(rng.randint(-span, span) for _ in variables)
            terms[exps] = rng.choice(coeffs) if rng.random() < 0.6 else rng.randint(-50, 50)
        polys.append(LaurentPoly(variables, terms))
    for p in polys:
        assert poly_to_text(p) == _reference_text(p)
        assert poly_to_json(p) == _reference_json(p)
        assert _sorted_exps(p.terms) == sorted(p.terms, key=_term_sort_key)


def test_bool_coefficients_print_as_int():
    assert poly_to_text(LaurentPoly(("s",), {(0,): True})) == "1"
    assert poly_to_text(LaurentPoly(("s",), {(1,): True, (2,): False})) == "s"
    assert type(LaurentPoly.const(True).const_value()) is int
    assert poly_to_json(LaurentPoly(("s",), {(0,): True})) == poly_to_json(LaurentPoly.const(1, ("s",)))


def test_constructor_checks_outside_input():
    for variables, terms in [
        (("s", "x"), {(0, 0): 1}),              # unknown variable
        (("s", "s"), {(0, 0): 1}),              # repeated variable
        (("s", "a"), {(0,): 1}),                # wrong arity
        (("s",), {(0,): 0.5}),                  # not an exact rational
        (("s",), {(0,): "1"}),
    ] + [((name,), {(1,): 1}) for name in ("q1", "q2", "q3", "d", "h")]:    # not in ALPHABET
        with pytest.raises(ValidationError):
            LaurentPoly(variables, terms)
    p = LaurentPoly(("a", "s"), {(1, 0): Fraction(4, 2), (0, 1): 0})
    assert p.vars == ("s", "a") and p.terms == {(0, 1): 2} and type(p.terms[(0, 1)]) is int
    with pytest.raises(ValidationError):
        p.shifted((1,))


def test_poly_json_rejects_non_integers():
    good = poly_to_json(LaurentPoly(("s", "a"), {(1, -2): Fraction(3, 2)}))
    for key, value in (("exp", [1.5, -2]), ("exp", [True, -2]), ("exp", ["1", -2]),
                       ("num", 3.0), ("num", "1_000"), ("num", " 3"), ("den", 2.5),
                       ("den", "0")):
        bad = json.loads(json.dumps(good))
        bad["terms"][0][key] = value
        with pytest.raises(ParseError):
            poly_from_json(bad)
    assert poly_from_json(good) == LaurentPoly(("s", "a"), {(1, -2): Fraction(3, 2)})
    series = DeltaSeries(2, {1: LaurentPoly.const(1, ("z",))}).to_json()
    with pytest.raises(ParseError):
        series_from_json(dict(series, order=2.0))
    assert series_from_json(series).to_json() == series


def test_series_json_exponents_are_ascii_decimal():
    # int() also takes these keys: other digits, underscores and blanks
    series = DeltaSeries(12, {10: LaurentPoly.const(1, ("z",))}).to_json()
    for key in ("\u0661\u0660", "1_0", " 10", "10.0"):
        with pytest.raises(ParseError):
            series_from_json(dict(series, coeffs={key: series["coeffs"]["10"]}))


def test_poly_json_round_trip():
    rng = random.Random(55)
    for _ in range(20):
        p = rand_poly(rng, ("v", "z"), denom=True)
        blob = json.dumps(poly_to_json(p), sort_keys=True)
        q = poly_from_json(json.loads(blob))
        assert q == p
        assert json.dumps(poly_to_json(q), sort_keys=True) == blob


def test_integers_of_any_length_print_and_round_trip():
    # str() and int() refuse more than 4,300 digits; values print whole
    nines = 10 ** 5000 - 1
    p = LaurentPoly(("v", "z"), {(0, 0): Fraction(-1, nines), (1, 0): nines, (0, 2): -10 ** 5000})
    text = "9" * 5000
    assert poly_to_text(p) == f"-1/{text} + {text}*v - 1{'0' * 5000}*z^2"
    blob = json.dumps(poly_to_json(p), sort_keys=True)
    assert [(t["num"], t["den"]) for t in json.loads(blob)["terms"]] == [
        ("-1", text), (text, "1"), ("-1" + "0" * 5000, "1")]
    q = poly_from_json(json.loads(blob))
    assert q == p and json.dumps(poly_to_json(q), sort_keys=True) == blob
    series = DeltaSeries(2, {1: p.subs_int("v", 1)})
    assert series_from_json(json.loads(json.dumps(series.to_json()))) == series
    assert text in series.to_text()


def test_text_is_stable_across_runs():
    p = sp_sm({(2, 1): Fraction(-7, 4), (0, 0): 1, (1, 2): 3})
    rendering = poly_to_text(p)
    again = poly_to_text(LaurentPoly(("sp", "sm"), dict(reversed(list(p.terms.items())))))
    assert rendering == again


_S, _A, _V, _Z = (LaurentPoly.var(name) for name in "savz")


@pytest.mark.parametrize("build, error, message", [
    pytest.param(lambda: RatFunc(_S, 0), DivisionByZero, "zero denominator",
                 id="ratfunc-zero-denominator"),
    pytest.param(lambda: exact_divide(_S, LaurentPoly.const(0)), DivisionByZero,
                 "zero polynomial", id="exact-divide-by-zero"),
    pytest.param(lambda: (_S ** -1).subs_int("s", 0), DivisionByZero, "substituting 0",
                 id="subs-zero-into-negative-power"),
    pytest.param(lambda: validate_sigma_poly(sp_sm({(-1, 0): 1})), ValidationError,
                 "negative exponent", id="sigma-negative-exponent"),
    pytest.param(lambda: validate_sigma_poly(sp_sm({(1, 0): Fraction(1, 3)})), ValidationError,
                 "not dyadic", id="sigma-third"),
    pytest.param(lambda: substitute_equal(RatFunc(_S, _A - _S), "a", "s"), DivisionByZero,
                 "vanishes identically", id="substitute-equal-zero-denominator"),
    pytest.param(lambda: limit_order2_at_v1(RatFunc(_V, _V - 1)), OrderTooLow,
                 "vanishes at v=1", id="limit-pole-at-v1"),
    pytest.param(lambda: series_exp_v(RatFunc(_V), 0), ValidationError, "order must be",
                 id="exp-series-order-zero"),
    pytest.param(lambda: series_exp_v(RatFunc(_V, _Z + 1)), ValidationError, "not a unit",
                 id="exp-series-non-unit-denominator"),
    pytest.param(lambda: DeltaSeries(0), ValidationError, "order must be",
                 id="series-order-zero"),
    pytest.param(lambda: DeltaSeries(2, {-1: 1}), ValidationError, "negative series exponent",
                 id="series-negative-exponent"),
    pytest.param(lambda: specialize(RatFunc(_S, _A), {"s": 1, "a": 0}), DivisionByZero,
                 "specializes to zero", id="specialize-zero-denominator"),
    pytest.param(lambda: ratfunc_from_json([]), ParseError, "rational-function JSON",
                 id="ratfunc-json-list"),
    pytest.param(lambda: ratfunc_from_json(None), ParseError, "rational-function JSON",
                 id="ratfunc-json-null"),
    pytest.param(lambda: series_from_json({"order": 2, "coeffs": []}), ParseError,
                 "series JSON", id="series-json-coeffs-list"),
    pytest.param(lambda: RatFunc(1) / RatFunc(0), DivisionByZero, "zero rational function",
                 id="ratfunc-divide-by-zero"),
    pytest.param(lambda: RatFunc(0) ** -1, DivisionByZero, "negative power of zero",
                 id="ratfunc-zero-to-negative-power"),
    pytest.param(lambda: RatFunc(1, _S - 2).subs_int("s", 2), DivisionByZero,
                 "denominator vanishes at s=2", id="ratfunc-subs-pole"),
    pytest.param(lambda: _S.const_value(), ValidationError, "is not constant",
                 id="const-value-of-variable"),
    pytest.param(lambda: _V.with_vars(("s",)), ValidationError, "do not contain v",
                 id="with-vars-missing"),
    pytest.param(lambda: _V.with_vars(("v", "q")), ValidationError, "unknown variable",
                 id="with-vars-unknown"),
    pytest.param(lambda: _V.with_vars(("v", "v")), ValidationError, "repeated variable",
                 id="with-vars-repeated"),
])
def test_documented_rejections(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_substitution_edge_cases():
    # a variable absent from p: nothing changes
    assert (_S + 1).subs_int("v", 2) == _S + 1
    assert substitute_equal(RatFunc(_S + 1), "a", "s") == RatFunc(_S + 1)
    # a variable put in place of itself: nothing changes
    assert substitute_equal(RatFunc(_A ** 2 - _S), "a", "a") == RatFunc(_A ** 2 - _S)
    # the target variable absent from p: a's exponents move onto s
    collapsed = substitute_equal(RatFunc(_A ** 2 * _V - _V), "a", "s")
    assert collapsed.num.vars == ("s", "v") and collapsed == RatFunc(_S ** 2 * _V - _V)
    assert substitute_equal(RatFunc(_V, _A), "a", "s").to_text() == "(v) / (s)"
    # a - s collapses to 0 on the locus, and its quotient is 1
    assert substitute_equal(RatFunc(_A - _S), "a", "s").is_zero()
    assert exact_div_linear(RatFunc(_A - _S)) == (RatFunc(1), True)
    witness, ok = exact_div_linear(RatFunc(_A, _A - _S))
    assert not ok and witness == RatFunc(_S)
    # negative exponents: a non-integral number image, and a variable image,
    # whose coefficients stay exact ints
    assert (_S ** -3 + _S).subs_int("s", Fraction(2, 3)) == Fraction(27, 8) + Fraction(2, 3)
    assert (_S ** -2 * _V).subs_int("s", Fraction(1, 2)).terms == {(1,): 4}
    moved = substitute_equal(RatFunc(3 * _A ** -2 * _S), "a", "s")
    assert moved == RatFunc(3 * _S ** -1)
    assert all(type(c) is int for c in [*moved.num.terms.values(), *moved.den.terms.values()])


def test_specialize_missing_assignment():
    with pytest.raises(ValidationError):
        specialize(sp_sm({(1, 1): 1}), {"sp": RatFunc(1)})


def test_order_too_low_carries_survivor():
    v = V("v")
    try:
        limit_order2_at_v1(RatFunc(v + 1))
    except OrderTooLow as exc:
        assert exc.surviving is not None
    else:
        raise AssertionError("expected OrderTooLow")
