import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from skeinpoly.dskein import (
    MAX_FAMILY_DEPTH,
    ConnSum,
    FramingShift,
    Torus2,
    _half,
    conj_integrality_check,
    family_to_text,
    i_value,
    parse_family,
    qtilde,
    torus_value,
)
from skeinpoly.errors import ParseError
from skeinpoly.rings import LaurentPoly, poly_to_text, sigma_swap


def sigma(terms):
    return LaurentPoly(("sp", "sm"), terms)


def test_torus_step_matches_printed_recursion():
    # T(m) = T(m-2) + (-1)^(m-1) - I(m-1) - (I(m-2) + I(m))/2, forward for
    # m > 1 and solved for T(m) when the fill runs backward (m < 0); LaurentPoly
    # operators only
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


@pytest.mark.parametrize("text, message", [
    pytest.param("frame(,1)", "expected a family expression", id="frame-without-child"),
    pytest.param("torus2(3))", "trailing input", id="trailing-input"),
])
def test_documented_rejections(text, message):
    with pytest.raises(ParseError, match=message):
        parse_family(text)


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
