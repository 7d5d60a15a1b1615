import json

import pytest

from slinf.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dominates_true_false_error(capsys):
    code, out, err = run(capsys, "dominates", "[2,1,0]", "[1,0]")
    assert (code, out.strip(), err) == (0, "true", "")
    code, out, err = run(capsys, "dominates", "[1,0]", "[2,0]")
    assert (code, out.strip(), err) == (1, "false", "")
    code, out, err = run(capsys, "dominates", "[2,1]", "not json")
    assert code == 2 and out == "" and err


def test_dominates_methods_agree(capsys):
    for method in ("oracle", "interlace"):
        code, out, _ = run(capsys, "dominates", "[1,1,0]", "[1,0]", "--method", method)
        assert (code, out.strip()) == (0, "true")
    # criterion4x needs the wider partition first
    code, _, err = run(capsys, "dominates", "[1,0]", "[1,0,0]", "--method", "criterion4x")
    assert code == 2 and "need" in err


def test_criterion4x_refuses_below_quadruple_width(capsys):
    # [2,0] does not dominate [1,0]; the gap criterion alone would say it does
    code, out, err = run(capsys, "dominates", "[2,0]", "[1,0]", "--method", "criterion4x")
    assert (code, out) == (2, "") and "4 times as wide" in err
    assert run(capsys, "dominates", "[2,0]", "[1,0]")[:2] == (1, "false\n")
    wide = "[3,3,2,2,1,1,0,0]"
    for narrow, answer in (("[1,0]", (0, "true\n")), ("[4,0]", (1, "false\n"))):
        assert run(capsys, "dominates", wide, narrow, "--method", "criterion4x")[:2] == answer
        assert run(capsys, "dominates", wide, narrow)[:2] == answer


def test_unexpected_exceptions_exit_2(capsys):
    # "yl": null reaches the library as None and raises TypeError there
    code, out, err = run(capsys, "ideal", "include", '{"x":1,"yl":null}', '{"x":1}')
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "TypeError" in err


def test_qvee_and_qlambda(capsys):
    assert run(capsys, "qvee", "[1,0]", "[2,0]")[0] == 0
    assert run(capsys, "qvee", "[1,0]", "[1,0]")[0] == 1
    assert run(capsys, "qlambda", "[1,0]", "[0,0,0,0,0,0,0,0]")[0] == 0
    assert run(capsys, "qlambda", "[1,0]", "[1,1,1,1,0,0,0,0]")[0] == 1
    assert run(capsys, "qlambda", "[3]", "[1,0]")[0] == 2


def test_window_checks(capsys):
    code, out, _ = run(
        capsys, "plscheck", "[1,0]", "--system", "qvee", "--widths", "2..5", "--bound", "3"
    )
    assert (code, out.strip()) == (0, "true")
    code, out, _ = run(
        capsys, "clscheck", "[1,0]", "--system", "qvee",
        "--widths", "2..3", "--bound", "2", "--slack", "2",
    )
    assert (code, out.strip()) == (1, "false")
    code, out, _ = run(
        capsys, "clscheck", "[1,0]", "--system", "qlambda",
        "--widths", "8..10", "--bound", "2", "--slack", "1",
    )
    assert (code, out.strip()) == (0, "true")
    code, out, _ = run(
        capsys, "plscheck", "[1,0]", "[2,0]", "--system", "forbidden",
        "--widths", "8..9", "--bound", "2",
    )
    assert (code, out.strip()) == (0, "true")
    # qvee takes exactly one partition
    assert run(capsys, "plscheck", "[1,0]", "[2,0]", "--widths", "2..3", "--bound", "2")[0] == 2


def test_cls_include(capsys):
    zero = json.dumps({"p": {"inf": 0, "head": [], "tail": 0}, "q": {"inf": 0, "head": [], "tail": 0}})
    one = json.dumps({"p": {"inf": 0, "head": [], "tail": 1}, "q": {"inf": 0, "head": [], "tail": 1}})
    assert run(capsys, "cls", "include", zero, one)[0] == 0
    assert run(capsys, "cls", "include", one, zero)[0] == 1
    assert run(capsys, "cls", "include", "{}", one)[0] == 2


def test_ideal_include(capsys):
    aug = '{"x":0,"y":0,"yl":[],"yr":[]}'
    assert run(capsys, "ideal", "include", '{"x":0,"y":1,"yl":[],"yr":[]}', aug)[0] == 0
    assert run(capsys, "ideal", "include", aug, '{"x":0,"y":1,"yl":[],"yr":[]}')[0] == 1
    assert run(capsys, "ideal", "include", '{"zero":true}', aug)[0] == 0


def test_ideal_cls_and_weight(capsys):
    code, out, _ = run(capsys, "ideal", "cls", '{"x":1,"y":0,"yl":[],"yr":[]}')
    assert code == 0
    codes = json.loads(out)
    assert codes == [
        {"p": {"inf": 0, "head": [], "tail": 0}, "q": {"inf": 1, "head": [], "tail": 0}},
        {"p": {"inf": 1, "head": [], "tail": 0}, "q": {"inf": 0, "head": [], "tail": 0}},
    ]
    code, out, _ = run(capsys, "ideal", "weight", '{"x":0,"y":0,"yl":[2],"yr":[1]}')
    assert code == 0
    assert json.loads(out) == {"explicit": {"1": [2, 0], "2": [1, 0]}, "odd_tail": 0}
    # code-based verbs reject the zero ideal
    assert run(capsys, "ideal", "cls", '{"zero":true}')[0] == 2


def test_ideal_upset(capsys):
    code, out, _ = run(capsys, "ideal", "upset", '{"x":0,"y":0,"yl":[1],"yr":[]}', "--cap", "4")
    assert code == 0
    assert json.loads(out) == [
        {"x": 0, "y": 0, "yl": [], "yr": []},
        {"x": 0, "y": 0, "yl": [1], "yr": []},
    ]


def test_ideal_hasse_dot_and_json(capsys):
    code, out, _ = run(
        capsys, "ideal", "hasse", "--max-x", "0", "--max-y", "0",
        "--max-cols", "1", "--max-len", "1",
    )
    assert code == 0
    assert out.startswith("digraph ideal_inclusions {")
    assert out.count("->") == 4
    code, out2, _ = run(
        capsys, "ideal", "hasse", "--max-x", "0", "--max-y", "0",
        "--max-cols", "1", "--max-len", "1",
    )
    assert out2 == out  # byte-identical on identical invocations
    code, out, _ = run(
        capsys, "ideal", "hasse", "--max-x", "0", "--max-y", "0",
        "--max-cols", "1", "--max-len", "1", "--format", "json",
    )
    assert code == 0
    graph = json.loads(out)
    assert len(graph["nodes"]) == 4
    assert sum(len(row) for row in graph["adjacency"]) == 4


def test_verify_cli(capsys, tmp_path):
    code, out, _ = run(capsys, "verify", "interlace")
    assert code == 0
    report = json.loads(out)
    assert report["failed"] == 0 and report["checked"] == 11126
    assert run(capsys, "verify", "interlace")[1] == out  # byte-identical rerun

    code, _, err = run(capsys, "verify", "nosuch")
    assert code == 2 and "unknown suite" in err

    small = tmp_path / "grids.json"
    small.write_text(json.dumps({
        "version": 0,
        "ceiling": 100,
        "suites": {"interlace": {"max_width": 2, "bound": 1}},
    }))
    code, out, _ = run(capsys, "verify", "interlace", "--grid-file", str(small))
    assert code == 0
    assert json.loads(out)["checked"] == 7

    toobig = tmp_path / "toobig.json"
    toobig.write_text(json.dumps({
        "version": 0,
        "suites": {"lgts2": {
            "lam_width": 2, "lam_bound": 3, "mu_widths": [30], "mu_bound": 30,
        }},
    }))
    code, _, err = run(capsys, "verify", "lgts2", "--grid-file", str(toobig))
    assert code == 2 and "ceiling" in err

    # a grid that enumerates nothing must not pass
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"suites": {"interlace": {"max_width": 0, "bound": -1}}}))
    code, out, err = run(capsys, "verify", "interlace", "--grid-file", str(empty))
    assert (code, out) == (2, "") and "checked nothing" in err


def test_non_integers_are_refused_not_coerced(capsys):
    # each of these used to answer: 1.9 and 1.7 were truncated to 1, true read as 1
    ideal = '{"x":1.9,"y":0,"yl":[],"yr":[]}'
    code, out, err = run(capsys, "ideal", "include", ideal, '{"x":1,"y":0,"yl":[],"yr":[]}')
    assert (code, out) == (2, "") and "1.9" in err
    code, out, err = run(capsys, "dominates", "[true,0]", "[1,0]")
    assert (code, out) == (2, "") and "True" in err
    seq = {"inf": 0, "head": [], "tail": 1.7}
    cls_code = json.dumps({"p": seq, "q": seq})
    code, out, err = run(capsys, "cls", "include", cls_code, cls_code)
    assert (code, out) == (2, "") and "1.7" in err
    for bad in ('{"x":0,"y":"1"}', '{"x":0,"yl":[1.0]}', '{"x":0,"yl":[false]}'):
        assert run(capsys, "ideal", "cls", bad)[:2] == (2, "")
    zero = {"inf": 0, "head": [], "tail": 0}
    for half in ({"inf": True, "head": [], "tail": 0}, {"inf": 0, "head": [True], "tail": 0}):
        cls_code = json.dumps({"p": half, "q": zero})
        assert run(capsys, "cls", "include", cls_code, cls_code)[:2] == (2, "")


def test_window_checks_refuse_oversized_windows_before_enumerating(capsys, monkeypatch):
    def forbidden(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr("slinf.local_systems.enumerate_classes", forbidden)
    monkeypatch.setattr("slinf.local_systems._children", forbidden)
    for argv in (
        ["plscheck", "[3,1,0]", "--widths", "3..60", "--bound", "5"],
        ["plscheck", "[1,0]", "--widths", "2..100000000", "--bound", "100000000"],
        ["clscheck", "[3,1,0]", "--system", "qlambda", "--widths", "3..12", "--bound", "5",
         "--slack", "60"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and "may generate more than 10000000" in err, err


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "bogus-verb")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "--help")[0] == 0
