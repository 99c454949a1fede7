import json

from skeinpoly.cli import main
from skeinpoly.diagrams import BraidWord, braid_closure
from skeinpoly.homfly import homfly_p
from skeinpoly.rings import (
    RatFunc,
    poly_from_json,
    ratfunc_from_json,
    series_exp_v,
    series_from_json,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_invariant_qtilde(capsys):
    code, out, _ = run(capsys, "invariant", "qtilde", "torus2(3)")
    assert code == 0
    assert out.strip() == "3 - 2*sp + 2*sm - sp*sm + sm^2"


def test_invariant_homfly_trefoil(capsys):
    code, out, _ = run(capsys, "invariant", "homfly", "braid:2:[1,1,1]")
    assert code == 0
    assert out.strip() == "2*v^2 - v^4 + v^2*z^2"


def test_invariant_v2(capsys):
    code, out, _ = run(capsys, "invariant", "v2", "braid:2:[1,1,1]")
    assert code == 0
    assert out.strip() == "1"


def test_invariant_json_round_trips(capsys):
    code, out, _ = run(capsys, "invariant", "homfly", "braid:2:[1,1]", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["format"] == "skeinpoly-value/1"
    poly = poly_from_json(blob["value"])
    assert poly == poly_from_json(json.loads(out)["value"])
    code, out, _ = run(capsys, "invariant", "kauffman-ad", "O:1", "--json")
    value = ratfunc_from_json(json.loads(out)["value"])
    assert value.subs_int("s", 2).subs_int("a", 3).num.const_value() * 81 == \
        value.subs_int("s", 2).subs_int("a", 3).den.const_value() * 176


def test_invariant_series_truncate(capsys):
    code, out, _ = run(capsys, "invariant", "homfly", "braid:2:[1,1,1]", "--truncate", "2")
    assert code == 0
    assert out.strip().endswith("O(d^2)")
    code, _, err = run(capsys, "invariant", "qtilde", "torus2(1)", "--truncate", "2")
    assert code == 2


def test_series_json_round_trips(capsys):
    code, out, _ = run(capsys, "invariant", "homfly", "braid:2:[1,1,1]", "--truncate", "3",
                       "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["type"] == "series"
    trefoil = braid_closure(BraidWord(2, (1, 1, 1)))
    parsed = series_from_json(blob["value"])
    assert parsed.order == 3 and parsed == series_exp_v(RatFunc(homfly_p(trefoil)), 3)


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "invariant", "homfly", "X[1,2,3,4]")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "invariant", "qtilde", "torus(3)")
    assert code == 2


def test_budget_exit_code(capsys):
    code, _, err = run(capsys, "invariant", "homfly", "braid:2:[1,1,1,-1,1]",
                       "--budget", "2", "--memo", "off")
    assert code == 3
    # the budget bounds the whole call: the three projector terms of this
    # adjoint value take 274 + 625 + 1 nodes, each under the budget alone
    code, _, err = run(capsys, "invariant", "kauffman-ad", "braid:2:[1,1,1]", "--budget", "700")
    assert code == 3 and "node budget 700 exceeded" in err


def test_table(capsys):
    code, out, _ = run(capsys, "table", "i-values", "-3..3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7
    assert lines[0] == "-3\t-1 - 2*sp^2 + 2*sp*sm"
    assert lines[-1] == "3\t-1 + 2*sp*sm - 2*sm^2"
    # the form with an explicit "--" before a negative range prints the same
    assert run(capsys, "table", "i-values", "--", "-3..3") == (0, out, "")
    code, out, _ = run(capsys, "table", "qtilde-torus", "0..5")
    assert "5\t" in out
    code, out, _ = run(capsys, "table", "qtilde-torus", "3..2")
    assert code == 0 and out == ""


def test_determinism(capsys):
    first = run(capsys, "invariant", "kauffman-ad", "braid:2:[1,1]", "--json")
    second = run(capsys, "invariant", "kauffman-ad", "braid:2:[1,1]", "--json")
    assert first == second


def test_verify_qtilde(capsys):
    code, out, _ = run(capsys, "verify", "qtilde")
    assert code == 0
    assert "FAIL" not in out
    assert "qtilde/torus(3)" in out


def test_verify_homfly(capsys):
    code, out, _ = run(capsys, "verify", "homfly")
    assert code == 0
    assert out.count("PASS") == 6


def test_verify_json_shape(capsys):
    code, out, _ = run(capsys, "verify", "qtilde", "--json")
    blob = json.loads(out)
    assert blob["format"] == "skeinpoly-report/1"
    assert all(row["status"] in ("pass", "fail", "skip") for row in blob["checks"])
    names = [row["name"] for row in blob["checks"]]
    assert names == sorted(names)
