import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from skeinpoly import dskein
from skeinpoly.dskein import (
    MAX_FAMILY_DEPTH,
    T3_VECTOR,
    ConnSum,
    FramingShift,
    Torus2,
    _half,
    bounded_qtilde,
    conj_integrality_check,
    family_to_text,
    i_value,
    parse_family,
    qtilde,
    torus_value,
)
from skeinpoly.errors import ParseError, ValidationError
from skeinpoly.rings import LaurentPoly, poly_to_text, sigma_swap


def sigma(terms):
    return LaurentPoly(("sp", "sm"), terms)


def test_torus_step_matches_printed_recursion():
    # T(m) = T(m-2) + (-1)^(m-1) - I(m-1) - (I(m-2) + I(m))/2, forward for
    # m > 1 and solved for T(m) for m < 0, where the values are mirror
    # images; LaurentPoly operators only
    half = Fraction(1, 2)
    for m in range(-30, 31):
        unit = 1 if m % 2 else -1               # (-1)^(m-1) = (-1)^(m+1)
        if m > 1:
            expected = torus_value(m - 2) + unit - i_value(m - 1) \
                - half * (i_value(m - 2) + i_value(m))
        elif m < 0:
            expected = torus_value(m + 2) - unit + i_value(m + 1) \
                + half * (i_value(m) + i_value(m + 2))
        else:
            continue
        assert torus_value(m) == expected, m
    # the halving is exact: an odd coefficient stays a Fraction, an even one an int
    halved = half * (i_value(3) + sigma({(0, 0): 2, (1, 0): 1}))
    assert halved.terms == {(0, 0): Fraction(1, 2), (1, 0): Fraction(1, 2), (1, 1): 1,
                            (0, 2): -1}
    assert type(halved.terms[(1, 1)]) is int
    summed = i_value(3) + sigma({(0, 0): 2, (1, 0): 1})
    assert {e: _half(c) for e, c in summed.terms.items()} == halved.terms
    odd = {e: _half(c) for e, c in sigma({(0, 0): 3, (1, 0): -4, (0, 1): Fraction(5, 3)}).terms.items()}
    assert odd == {(0, 0): Fraction(3, 2), (1, 0): -2, (0, 1): Fraction(5, 6)}
    assert type(odd[(1, 0)]) is int
    assert type(_half(Fraction(4, 1))) is int           # twice a half-integer, halved


def test_negative_i_values_meet_the_printed_backward_step():
    # I(n-2) = I(n+3) - T3[0] - sum_k T3[k+3] I(n+k), k = -1..2: the printed
    # step solved for I(n-2), for I(-70..2); negative indices are computed as
    # mirror images, never by this step; LaurentPoly operators only
    t3 = T3_VECTOR
    for n in range(-68, 5):
        expected = i_value(n + 3) - t3[0] - t3[2] * i_value(n - 1) - t3[3] * i_value(n) \
            - t3[4] * i_value(n + 1) - t3[5] * i_value(n + 2)
        assert i_value(n - 2) == expected, n - 2


def test_mirror_pattern():
    for n in range(-10, 11):
        assert i_value(-n) == sigma_swap(i_value(n))
        assert torus_value(-n) == -sigma_swap(torus_value(n))
    assert torus_value(-2) == torus_value(2)


def test_qtilde_family():
    assert qtilde(FramingShift(Torus2(1), -1)).is_zero()      # the 0-framed unknot
    assert qtilde(ConnSum(Torus2(3), Torus2(3))) == 2 * torus_value(3)
    assert qtilde(FramingShift(Torus2(3), -3)) == torus_value(3) - 3


def test_framing_slope_random_trees():
    rng = random.Random(1234)

    def random_tree(depth=0):
        roll = rng.random()
        if depth > 3 or roll < 0.5:
            return Torus2(rng.randint(-6, 6))
        if roll < 0.75:
            return FramingShift(random_tree(depth + 1), rng.randint(-4, 4))
        return ConnSum(random_tree(depth + 1), random_tree(depth + 1))

    for _ in range(30):
        tree = random_tree()
        k = rng.randint(-5, 5)
        shifted = FramingShift(tree, k)
        assert qtilde(shifted) - qtilde(tree) == LaurentPoly.const(k, ("sp", "sm"))


def test_integrality():
    bad = LaurentPoly(("sp", "sm"), {(1, 0): Fraction(1, 2)})
    ok, witness = conj_integrality_check(bad)
    assert not ok and witness == (((1, 0), Fraction(1, 2)),)
    ok, witness = conj_integrality_check(LaurentPoly(("sp", "sm"), {}))
    assert ok and witness == ()


@pytest.mark.parametrize("build, error, message", [
    pytest.param(lambda: parse_family("frame(,1)"), ParseError, "expected a family expression",
                 id="frame-without-child"),
    pytest.param(lambda: parse_family("torus2(3))"), ParseError, "trailing input",
                 id="trailing-input"),
    pytest.param(lambda: qtilde(3), ValidationError, "not a family link", id="qtilde-of-int"),
    pytest.param(lambda: family_to_text("x"), ValidationError, "not a family link",
                 id="text-of-str"),
    pytest.param(lambda: family_to_text(FramingShift("x", 1)), ValidationError,
                 "not a family link", id="text-of-str-child"),
    pytest.param(lambda: qtilde(ConnSum(Torus2(1), None)), ValidationError,
                 "not a family link", id="qtilde-of-none-child"),
    pytest.param(lambda: parse_family("torus2()"), ParseError, "expected an integer",
                 id="torus-without-index"),
    # a torus index or framing shift must be an int, as LinkDiagram's fields must
    pytest.param(lambda: qtilde(FramingShift(Torus2(1), 1.5)), ValidationError,
                 "not a family link", id="qtilde-of-float-shift"),
    pytest.param(lambda: qtilde(FramingShift(Torus2(1), True)), ValidationError,
                 "not a family link", id="qtilde-of-bool-shift"),
    pytest.param(lambda: qtilde(FramingShift(Torus2(1), "x")), ValidationError,
                 "not a family link", id="qtilde-of-str-shift"),
    pytest.param(lambda: family_to_text(FramingShift(Torus2(1), "x")), ValidationError,
                 "not a family link", id="text-of-str-shift"),
    pytest.param(lambda: qtilde(Torus2(True)), ValidationError, "not a family link",
                 id="qtilde-of-bool-index"),
    pytest.param(lambda: qtilde(Torus2(1.5)), ValidationError, "not a family link",
                 id="qtilde-of-float-index"),
    pytest.param(lambda: qtilde(Torus2(3.0)), ValidationError, "not a family link",
                 id="qtilde-of-integral-float-index"),
    pytest.param(lambda: bounded_qtilde(ConnSum(Torus2(3), Torus2(3.0)), 10 ** 6),
                 ValidationError, "not a family link", id="bounded-qtilde-of-float-index"),
    pytest.param(lambda: family_to_text(Torus2(1.5)), ValidationError, "not a family link",
                 id="text-of-float-index"),
])
def test_documented_rejections(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_family_parser():
    text = "connsum(frame(torus2(3),-3),torus2(-2))"
    tree = parse_family(text)
    assert tree == ConnSum(FramingShift(Torus2(3), -3), Torus2(-2))
    assert family_to_text(tree) == text
    assert parse_family(" torus2( 5 ) ") == Torus2(5)
    with pytest.raises(ParseError):
        parse_family("torus(3)")
    with pytest.raises(ParseError):
        parse_family("torus2(3) extra")
    with pytest.raises(ParseError):
        parse_family("frame(torus2(1)")


def test_family_nesting_limit():
    # MAX_FAMILY_DEPTH levels parse, print and evaluate; one more is a ParseError
    depth = MAX_FAMILY_DEPTH
    text = "connsum(torus2(1)," * depth + "torus2(1)" + ")" * depth
    tree = parse_family(text)
    assert family_to_text(tree) == text
    assert qtilde(tree) == LaurentPoly.const(depth + 1, ("sp", "sm"))
    assert qtilde(parse_family("frame(" * depth + "torus2(1)" + ",1)" * depth)) \
        == LaurentPoly.const(depth + 1, ("sp", "sm"))
    for deeper in ("frame(" * (depth + 1) + "torus2(1)" + ",1)" * (depth + 1),
                   "connsum(torus2(1)," * (depth + 1) + "torus2(1)" + ")" * (depth + 1)):
        with pytest.raises(ParseError, match=f"nested deeper than {depth}"):
            parse_family(deeper)


def test_trees_deeper_than_the_stack():
    # built through the API, past parse_family's depth limit; qtilde,
    # bounded_qtilde and family_to_text walk them without recursion
    depth = 5000
    one = LaurentPoly.const(1, ("sp", "sm"))
    right, left, framed = Torus2(1), Torus2(1), Torus2(1)
    for _ in range(depth):
        right, left = ConnSum(Torus2(1), right), ConnSum(left, Torus2(1))
        framed = FramingShift(framed, 1)
    for tree in (right, left, framed):
        assert qtilde(tree) == (depth + 1) * one
        assert bounded_qtilde(tree, 0) == (depth + 1) * one      # T(2, 1) is a base value
    assert family_to_text(right) == "connsum(torus2(1)," * depth + "torus2(1)" + ")" * depth
    assert family_to_text(left) == "connsum(" * depth + "torus2(1)" + ",torus2(1))" * depth
    assert family_to_text(framed) == "frame(" * depth + "torus2(1)" + ",1)" * depth
    mixed = ConnSum(FramingShift(Torus2(-3), 2), ConnSum(Torus2(4), framed))
    assert qtilde(mixed) == torus_value(-3) + torus_value(4) + (depth + 3) * one


def test_deep_trees_compare_hash_and_print():
    # ==, hash and repr walk the tree without recursion, with the
    # dataclass semantics: fields compare by ==, node types exactly
    def chain(leaf, depth=5000):
        for _ in range(depth):
            leaf = FramingShift(leaf, 1)
        return leaf

    a, b = chain(Torus2(1)), chain(Torus2(True))
    assert a == b and hash(a) == hash(b)
    assert a != chain(Torus2(2)) and a != chain(Torus2(1), 4999)
    assert ConnSum(a, Torus2(1)) == ConnSum(b, Torus2(1.0))
    assert ConnSum(a, Torus2(1)) != ConnSum(Torus2(1), a)
    assert repr(a) == "FramingShift(child=" * 5000 + "Torus2(m=1)" + ", k=1)" * 5000
    assert repr(chain(Torus2("x"), 2)) == \
        "FramingShift(child=FramingShift(child=Torus2(m='x'), k=1), k=1)"
    assert repr(ConnSum(Torus2, None)) == f"ConnSum(left={Torus2!r}, right=None)"
    assert Torus2(1) != ConnSum(Torus2(1), Torus2(1)) and Torus2(1) != 1
    assert len({a, b, chain(Torus2(2))}) == 2


def test_deep_tree_with_a_bad_field_is_rejected():
    # the error names the bad node's type and field type; it does not repr
    # the tree below it
    chain = Torus2(1)
    for _ in range(5000):
        chain = FramingShift(chain, 1)
    with pytest.raises(ValidationError, match="FramingShift with k of type float"):
        qtilde(FramingShift(chain, 1.5))
    with pytest.raises(ValidationError, match="Torus2 with m of type FramingShift"):
        family_to_text(ConnSum(Torus2(chain), chain))
    with pytest.raises(ValidationError, match="not a family link"):
        bounded_qtilde(ConnSum(chain, FramingShift(chain, True)), 10)


def test_bounded_qtilde_charges_mirror_images_without_building_them(monkeypatch):
    # a value and its mirror image have the same number of terms, so the
    # charge walk reads the positive index's memo; only the value itself is
    # a sigma copy
    bounded_qtilde(Torus2(-70), 10 ** 9)                  # warm the memos
    calls = []
    real = dskein.sigma_swap
    monkeypatch.setattr(dskein, "sigma_swap", lambda p: calls.append(p) or real(p))
    value = bounded_qtilde(Torus2(-70), 10 ** 9)
    assert len(calls) == 1
    assert value == -sigma_swap(torus_value(70))


# With the recursion limit a few dozen frames above the starting depth,
# a recursive I(n) or T(2, m) would raise RecursionError well before
# index 60; the iterative fill must not.  A fresh interpreter starts with
# a cold memo.
_SHALLOW_STACK = """
import sys
from skeinpoly import dskein
from skeinpoly.rings import poly_to_text
depth, frame = 0, sys._getframe()
while frame is not None:
    depth, frame = depth + 1, frame.f_back
sys.setrecursionlimit(depth + 30)
for n in (60, -60):
    print(poly_to_text(dskein.i_value(n)))
    print(poly_to_text(dskein.torus_value(n)))
"""


def test_deep_indices_need_no_deep_stack():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", _SHALLOW_STACK], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    expected = [poly_to_text(f(n)) for n in (60, -60) for f in (i_value, torus_value)]
    assert out.stdout.splitlines() == expected
