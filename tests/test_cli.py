import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from skeinpoly.cli import checks, main
from skeinpoly.diagrams import BraidWord, braid_closure, diagram_from_json
from skeinpoly.dskein import FramingShift, Torus2, qtilde
from skeinpoly.errors import ValidationError
from skeinpoly.homfly import homfly_p
from skeinpoly.rings import (
    RatFunc,
    poly_from_json,
    poly_to_text,
    ratfunc_from_json,
    series_exp_v,
    series_from_json,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _fresh_env():
    """The environment of a new interpreter that imports this checkout's src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))


def run_fresh(*argv, timeout):
    """The CLI in a new interpreter: (exit code, stdout, stderr)."""
    done = subprocess.run([sys.executable, "-m", "skeinpoly.cli", *argv], env=_fresh_env(),
                          capture_output=True, text=True, timeout=timeout)
    return done.returncode, done.stdout, done.stderr


def test_closed_stdout_ends_quietly():
    # a reader that quits early (head) ends the command with status 141 =
    # 128 + SIGPIPE and nothing on stderr, not even at interpreter exit
    for argv, lines in ((["table", "i-values", "--", "-70..70"], 1),
                        (["invariant", "kauffman", "O:150"], 0)):
        with subprocess.Popen([sys.executable, "-m", "skeinpoly.cli", *argv], env=_fresh_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            first = [proc.stdout.readline() for _ in range(lines)]
            proc.stdout.close()
            err = proc.stderr.read()
            assert (proc.wait(timeout=120), err) == (141, b""), argv
        assert all(line.startswith(b"-70\t-70*sp + 70*sm") for line in first)
    # an in-memory stdout, as perfbench/worker.py passes, is unaffected
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["table", "i-values", "0..1"]) == 0
    assert buf.getvalue() == "0\t0\n1\t-1\n"


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


def test_invariant_v2_json_is_rational(capsys):
    code, out, _ = run(capsys, "invariant", "v2", "braid:2:[1,1,1]", "--json")
    blob = json.loads(out)
    assert code == 0
    assert (blob["type"], blob["value"]) == ("rational", {"num": "1", "den": "1"})


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


def test_non_planar_pd_exits_2(capsys):
    # two crossings glued into 2 faces, where a planar diagram needs 4
    for kind, text in (("kauffman", "X[1,2,3,4];X[3,4,1,2]"),
                       ("homfly", "X+[1,2,3,4];X+[3,4,1,2]")):
        code, out, err = run(capsys, "invariant", kind, text)
        assert (code, out) == (2, "")
        assert "not planar" in err


@pytest.mark.parametrize("text, message", [
    ("X+[0,1,2,3];X+[3,4,5,0];X+[2,1,4,5]", "edge 3 flows into two crossing slots"),
    ("X+[0,1,2,3];X-[1,4,5,2];X+[4,0,3,5]", "edge 2 flows out of two crossing slots"),
], ids=["into", "out-of"])
def test_inconsistent_orientation_exits_2(capsys, text, message):
    code, out, err = run(capsys, "invariant", "homfly", text)
    assert (code, out) == (2, "") and err == f"error: {message}\n"
    # diagram JSON is checked by the same constructor; "X+[0,1,2,3]" has sign +1
    crossings = [{"edges": json.loads(item[2:]), "sign": 1 if item[1] == "+" else -1}
                 for item in text.split(";")]
    blob = {"format": "skeinpoly-diagram/1", "crossings": crossings, "free_loops": 0}
    with pytest.raises(ValidationError, match=message):
        diagram_from_json(blob)


def test_invariant_series_truncate(capsys):
    code, out, _ = run(capsys, "invariant", "homfly", "braid:2:[1,1,1]", "--truncate", "2")
    assert code == 0
    assert out.strip().endswith("O(d^2)")
    code, _, err = run(capsys, "invariant", "qtilde", "torus2(1)", "--truncate", "2")
    assert code == 2


def test_truncate_checked_before_evaluating(capsys):
    # a one-node budget would end any evaluation with exit 3, so exit 2 here
    # shows that the flag is refused before an engine runs
    for kind, text in (("kauffman", "braid:2:[1,1,1]"), ("kauffman-ad", "braid:3:[1,1,1,2]"),
                       ("v2", "braid:2:[1,1,1]"), ("qtilde", "torus2(3000)")):
        code, out, err = run(capsys, "invariant", kind, text, "--truncate", "2", "--budget", "1")
        assert (code, out) == (2, "") and "--truncate applies to the homfly kinds only" in err
    for order in ("0", "-1", "two", "1.5"):
        with pytest.raises(SystemExit) as exc:
            main(["invariant", "homfly", "braid:2:[1,1,1]", f"--truncate={order}", "--budget", "1"])
        assert exc.value.code == 2
        assert "series order must be an integer >= 1" in capsys.readouterr().err
    code, out, _ = run(capsys, "invariant", "homfly", "braid:2:[1,1,1]", "--truncate", "1")
    assert code == 0 and out.strip().endswith("O(d^1)")


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
    code, _, err = run(capsys, "invariant", "homfly", "braid:2:[1,1,1,-1,1]", "--budget", "2")
    assert code == 3
    # the budget bounds the whole call: the three projector terms of this
    # adjoint value take 265 + 229 + 1 nodes, each under the budget alone
    code, _, err = run(capsys, "invariant", "kauffman-ad", "braid:2:[1,1,1]", "--budget", "400")
    assert code == 3 and "node budget 400 exceeded" in err
    # 1e3 still means 1000 nodes
    code, _, err = run(capsys, "invariant", "kauffman-ad", "braid:2:[1,1,1]", "--budget", "1e3")
    assert code == 0


@pytest.mark.parametrize("argv, expected", [
    # delta^L for L free loops: no node count bounded building it
    (["homfly", "O:" + "9" * 20, "--budget", "1000"], 3),
    (["kauffman", "O:" + "9" * 20, "--budget", "1000"], 3),
    # one list entry per strand ran out of memory
    (["homfly", "braid:99999999999999:[1]"], 3),
    # 3^12 and 2^40 cable terms, all built before the first node
    (["kauffman-ad", "O:12", "--budget", "1000"], 3),
    (["homfly-ad", "O:40", "--budget", "1000"], 3),
    # RecursionError in the family parser
    (["qtilde", "frame(" * 1200 + "torus2(1)" + ",1)" * 1200], 2),
    (["qtilde", "connsum(torus2(1)," * 1200 + "torus2(1)" + ")" * 1200], 2),
], ids=["homfly-loops", "kauffman-loops", "braid-strands", "kauffman-ad-terms",
        "homfly-ad-terms", "nested-frames", "nested-sums"])
def test_every_call_bounded_and_without_traceback(argv, expected):
    code, out, err = run_fresh("invariant", *argv, timeout=20)
    assert (code, out) == (expected, "")
    assert err.startswith("error:") and "Traceback" not in err


def _nines(template, digits):
    return [arg.format("9" * digits) for arg in template]


@pytest.mark.parametrize("template, at_limit, code_at_limit", [
    (["invariant", "homfly", "O:{}"], ["invariant", "homfly", "O:{}", "--budget", "1000"], 3),
    (["invariant", "homfly", "braid:{}:[1]"], ["invariant", "homfly", "braid:{}:[1]"], 3),
    (["invariant", "homfly", "X[{},1,2,3]"], ["invariant", "homfly", "X[{},1,2,3]"], 2),
    (["invariant", "qtilde", "torus2({})"], ["invariant", "qtilde", "torus2({})", "--budget", "1000"], 3),
    (["table", "i-values", "0..{}"], ["table", "i-values", "{}..0"], 0),
], ids=["loops", "strands", "edge", "family", "range"])
def test_text_integers_longer_than_4300_digits_exit_2(capsys, template, at_limit, code_at_limit):
    # int() refuses such text with a ValueError, which used to end in a traceback
    code, out, err = run_fresh(*_nines(template, 5000), timeout=60)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "more than 4300 digits" in err and "Traceback" not in err
    # 4,300 digits still parse: the same input goes on to its budget or its own check
    code, _, err = run(capsys, *_nines(at_limit, 4300))
    assert code == code_at_limit and "digits" not in err


@pytest.mark.parametrize("flag, value", [
    ("--truncate", "\u0663"), ("--truncate", "1_0"),
    ("--budget", "\u0661\u0660\u0660\u0660"), ("--budget", "1_000"),
], ids=["truncate-arabic-indic", "truncate-underscore", "budget-arabic-indic", "budget-underscore"])
def test_flag_numbers_are_ascii(capsys, flag, value):
    # int() and float() also take non-ASCII digits and underscores
    with pytest.raises(SystemExit) as exc:
        main(["invariant", "homfly", "braid:2:[1,1,1]", f"{flag}={value}"])
    assert exc.value.code == 2
    assert ("series order must be" if flag == "--truncate" else "budget must be") in capsys.readouterr().err


def test_budget_must_be_finite_and_not_negative(capsys):
    for budget in ("1e400", "inf", "-inf", "nan", "-3", "ten"):
        with pytest.raises(SystemExit) as exc:
            main(["invariant", "homfly", "O:1", f"--budget={budget}"])
        assert exc.value.code == 2
        assert "budget must be a finite number >= 0" in capsys.readouterr().err


def test_qtilde_budget(capsys):
    # the qtilde charge is the term count of every I(j) and T(k) on the fill
    # path: I(3..5) have 3, 6 and 7 terms, T(3) and T(5) 5 and 11, so 32 in
    # all, whether or not an earlier call already computed them
    five = ("5 - 6*sp + 6*sm + 2*sp^2 - 6*sp*sm + 4*sm^2 + 2*sp^2*sm - 4*sp*sm^2"
            " + 2*sm^3 - sp*sm^3 + sm^4\n")
    for _ in range(2):
        assert run(capsys, "invariant", "qtilde", "torus2(5)") == (0, five, "")
        assert run(capsys, "invariant", "qtilde", "torus2(5)", "--budget", "32") == (0, five, "")
        code, out, err = run(capsys, "invariant", "qtilde", "torus2(5)", "--budget", "31")
        assert (code, out) == (3, "") and "term budget 31 exceeded" in err
    # each torus closure is charged on its own: T(-1), I(-3) and T(-3) add 1 + 3 + 5
    link = "connsum(torus2(5),torus2(-3))"
    assert run(capsys, "invariant", "qtilde", link, "--budget", "41")[0] == 0
    assert run(capsys, "invariant", "qtilde", link, "--budget", "40")[0] == 3
    # cold I(n) costs about |n|^3, so torus2(3000) would run for hours; the
    # budget stops it near n = 100
    code, _, err = run(capsys, "invariant", "qtilde", "torus2(3000)", "--budget", "100000")
    assert code == 3 and "term budget 100000 exceeded" in err
    # a framing shift is charged as its torus closure, and T(0) and T(1)
    # are base values that cost nothing
    framed = poly_to_text(qtilde(FramingShift(Torus2(3), -3))) + "\n"
    assert run(capsys, "invariant", "qtilde", "frame(torus2(3),-3)", "--budget", "1000") \
        == (0, framed, "")
    code, _, err = run(capsys, "invariant", "qtilde", "frame(torus2(3000),-3)",
                       "--budget", "100000")
    assert code == 3 and "term budget 100000 exceeded" in err
    assert run(capsys, "invariant", "qtilde", "connsum(torus2(0),torus2(1))", "--budget", "0") \
        == (0, "1\n", "")


def test_table(capsys):
    code, out, _ = run(capsys, "table", "i-values", "-3..3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7
    assert lines[0] == "-3\t-1 - 2*sp^2 + 2*sp*sm"
    assert lines[-1] == "3\t-1 + 2*sp*sm - 2*sm^2"
    # the form with an explicit "--" before a negative range prints the same
    assert run(capsys, "table", "i-values", "--", "-3..3") == (0, out, "")
    # a flag after a negative range still parses as a flag
    code, out, _ = run(capsys, "table", "i-values", "-3..3", "--json")
    assert code == 0 and json.loads(out)["format"] == "skeinpoly-table/1"
    assert run(capsys, "table", "i-values", "--json", "-3..3") == (0, out, "")
    code, out, _ = run(capsys, "table", "qtilde-torus", "0..5")
    assert "5\t" in out
    code, out, _ = run(capsys, "table", "qtilde-torus", "3..2")
    assert code == 0 and out == ""


def test_integers_are_ascii_decimal(capsys):
    # int() and \d also take underscores and non-ASCII digits; no format documents them
    for text in ("1_0..1_1", "\u0663..\u0664", "-\u0663..3", "3..\u0664", "1..2..3", "+-1..2",
                 "..3", "1 0..11", "0x1..2"):
        for argv in (["table", "i-values", text], ["table", "i-values", "--", text]):
            if text.startswith("-") and "--" not in argv:
                continue
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "") and "bad range" in err, argv
    for family in ("torus2(\u0663)", "frame(torus2(3),\u0661)", "torus2(1_0)"):
        code, out, err = run(capsys, "invariant", "qtilde", family)
        assert (code, out) == (2, "") and "error" in err, family
    # the documented spellings keep working
    for text, first, rows in (("-3..3", -3, 7), (" 2 .. 3 ", 2, 2), ("+1..2", 1, 2)):
        code, out, _ = run(capsys, "table", "i-values", "--", text)
        lines = out.splitlines()
        assert code == 0 and len(lines) == rows and lines[0].startswith(f"{first}\t")


def test_blanks_are_ascii(capsys):
    # str.strip() and \s also take Unicode spaces (em space, ideographic space)
    for text in ("2\u2003..3", "2..\u20033", "\u20032..3"):
        code, out, err = run(capsys, "table", "i-values", text)
        assert (code, out) == (2, "") and "bad range" in err, text
    for family in ("torus2(\u30003)", "torus2(3)\u3000", "\u2003torus2(3)",
                   "connsum(torus2(3),\u3000torus2(3))"):
        code, out, err = run(capsys, "invariant", "qtilde", family)
        assert (code, out) == (2, "") and "error" in err, family
    # ASCII blanks keep working
    assert run(capsys, "table", "i-values", "\t2 ..\n3 ")[:2] == run(capsys, "table", "i-values", "2..3")[:2]
    code, out, _ = run(capsys, "invariant", "qtilde", " connsum( torus2(3) ,\ttorus2(3) ) \n")
    assert code == 0 and out == run(capsys, "invariant", "qtilde", "connsum(torus2(3),torus2(3))")[1]


def test_diagram_text_is_ascii(capsys):
    # \d, \s and str.strip() also take Arabic-Indic digits and Unicode spaces
    for kind, text in (("homfly", "braid:\u0662:[1,1,1]"),
                       ("kauffman", "X[\u0661,5,2,4];X[3,1,4,6];X[5,3,6,2]"),
                       ("kauffman", "O:\u0661"),
                       ("homfly", "braid:2:[1,\u20031,1]"),
                       ("homfly", "\u2003braid:2:[1,1,1]"),
                       ("kauffman", "X[1,5,2,4];\u3000X[3,1,4,6];X[5,3,6,2]")):
        code, out, err = run(capsys, "invariant", kind, text)
        assert (code, out) == (2, "") and "error" in err, text
    # ASCII blanks keep working
    for kind, text, spaced in (
            ("homfly", "braid:2:[1,1,1]", " braid:2:[ 1,\t1 ,1\n]\r"),
            ("kauffman", "X[1,5,2,4];X[3,1,4,6];X[5,3,6,2]",
             "\tX[1,5,2,4] ; X[3,1,4,6];\vX[5,3,6,2]\f"),
            ("kauffman", "O:2", " O:2\n")):
        code, out, _ = run(capsys, "invariant", kind, spaced)
        assert code == 0 and out == run(capsys, "invariant", kind, text)[1], spaced


def test_parser_reuse_prints_fresh_bytes(capsys):
    # main() builds its parser once per process; an argparse error must leave nothing behind
    with pytest.raises(SystemExit) as exc:
        main(["table", "i-values", "0..2", "--budget", "1"])
    assert exc.value.code == 2
    capsys.readouterr()
    argv = ["table", "qtilde-torus", "-2..2", "--json"]
    code, out, err = run(capsys, *argv)
    fresh = run_fresh(*argv, timeout=120)
    assert (code, out, err) == fresh == (0, fresh[1], "")


def test_flags_only_where_read(capsys):
    # table reads only --json; verify never reads --truncate; no subcommand
    # takes --memo, since the engines always memoize
    for argv in (["table", "i-values", "0..2", "--truncate", "3"],
                 ["table", "i-values", "0..2", "--memo", "off"],
                 ["invariant", "qtilde", "torus2(5)", "--memo", "off"],
                 ["invariant", "homfly", "braid:2:[1,1,1]", "--memo", "on"],
                 ["verify", "qtilde", "--memo", "on"],
                 ["table", "i-values", "0..2", "--budget", "1"],
                 ["verify", "qtilde", "--truncate", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


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


def test_verify_qtilde_rejects_budget(capsys):
    # the qtilde suite runs no skein engine, so a budget there would be ignored
    for argv in (["verify", "qtilde", "--budget", "0"], ["verify", "qtilde", "--budget=1e9", "--json"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: --budget applies to the suites that run a skein engine\n"
    # without the flag, and in "all", the engine suites keep the budget
    assert run(capsys, "verify", "qtilde")[0] == 0
    code, out, _ = run(capsys, "verify", "all", "--budget", "0")
    lines = out.splitlines()
    assert code == 3 and all(line.startswith(("PASS qtilde/", "SKIP ")) for line in lines)
    assert any(line.startswith("PASS qtilde/") for line in lines)


def test_verify_budget_skips_every_check(capsys):
    code, out, _ = run(capsys, "verify", "homfly", "--budget", "1")
    lines = out.splitlines()
    assert code == 3 and len(lines) == 6 and all(line.startswith("SKIP homfly/") for line in lines)
    code, out, _ = run(capsys, "verify", "homfly", "--budget", "1", "--json")
    rows = json.loads(out)["checks"]
    assert code == 3 and len(rows) == 6
    assert all(row["status"] == "skip" and row["expected"] == "(budget exceeded)" for row in rows)


def test_verify_json_shape(capsys):
    code, out, _ = run(capsys, "verify", "qtilde", "--json")
    blob = json.loads(out)
    assert blob["format"] == "skeinpoly-report/1"
    assert all(row["status"] in ("pass", "fail", "skip") for row in blob["checks"])
    names = [row["name"] for row in blob["checks"]]
    assert names == sorted(names)


def test_verify_conjecture(capsys):
    code, out, _ = run(capsys, "verify", "conjecture", "--json")
    assert code == 1
    statuses = {row["name"]: row["status"] for row in json.loads(out)["checks"]}
    assert statuses == {
        "conjecture/stated-rhs-k3": "pass",
        "conjecture/zero-framed-k3 (stated form; known inconsistent)": "fail",
    }
    names = [c.name for c in checks("all", 1)]
    assert len(names) == len(set(names))
