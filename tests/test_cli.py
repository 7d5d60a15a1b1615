import contextlib
import hashlib
import io
import json
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from slinf import cli, ideals, verify
from slinf.cli import main
from slinf.ideals import Ideal, containing_ideals, enumerate_ideals, highest_weight, make_weight
from slinf.partitions import enumerate_classes
from slinf.verify import load_grid_config, suite_names
from test_ideals import LATTICE_UPSETS

GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_HELP = GOLDEN / "help"


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


def test_unexpected_exceptions_exit_2(capsys, monkeypatch):
    # "yl": null used to reach the library as None and raise TypeError there;
    # the decoder now refuses it as an ordinary error
    code, out, err = run(capsys, "ideal", "include", '{"x":1,"yl":null}', '{"x":1}')
    assert (code, out) == (2, "") and "yl must be an array" in err and "unexpected" not in err

    def broken(*args):
        raise TypeError("a library fault\nover two lines")

    monkeypatch.setattr("slinf.cli.is_contained", broken)
    code, out, err = run(capsys, "ideal", "include", '{"x":1}', '{"x":1}')
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


def test_weight_and_ideal_cls_answers_are_unchanged(capsys):
    # one sha256 over the frozen family: each highest weight's JSON and text, and what `ideal cls` prints
    digest = hashlib.sha256()
    for ideal in enumerate_ideals(2, 2, 2, 2):
        weight = highest_weight(ideal)
        code, out, err = run(capsys, "ideal", "cls", json.dumps(ideal.to_json()))
        assert (code, err) == (0, "")
        digest.update(f"{json.dumps(weight.to_json(), sort_keys=True)}\n{weight}\n{out}".encode())
    assert digest.hexdigest() == (GOLDEN / "ideal-answers.sha256").read_text(encoding="utf-8").strip()


def test_ideal_upset(capsys):
    code, out, _ = run(capsys, "ideal", "upset", '{"x":0,"y":0,"yl":[1],"yr":[]}', "--cap", "4")
    assert code == 0
    assert json.loads(out) == [
        {"x": 0, "y": 0, "yl": [], "yr": []},
        {"x": 0, "y": 0, "yl": [1], "yr": []},
    ]


def upset_json(ideal, cap):
    """What `ideal upset` prints, by definition: the JSON list of containing_ideals, keys sorted."""
    return json.dumps([found.to_json() for found in containing_ideals(ideal, cap)], sort_keys=True) + "\n"


def test_ideal_upset_prints_the_upset_json_byte_for_byte(capsys):
    for ideal in enumerate_ideals(1, 1, 2, 1):
        for cap in range(4):
            argv = ["ideal", "upset", json.dumps(ideal.to_json()), "--cap", str(cap)]
            assert run(capsys, *argv) == (0, upset_json(ideal, cap), ""), argv


def test_lattice_upset_answers_are_unchanged(capsys, monkeypatch):
    # the benchmark's four upsets: byte for byte by definition, and one sha256 over their output
    expected = [upset_json(ideal, 4) for ideal in LATTICE_UPSETS]

    def forbidden(*args):
        raise AssertionError("an Ideal was built for an answer")

    # the command writes the answers from the decision's rows, with no Ideal per answer
    monkeypatch.setattr(Ideal, "_trusted", forbidden)
    digest = hashlib.sha256()
    for ideal, text in zip(LATTICE_UPSETS, expected):
        code, out, err = run(capsys, "ideal", "upset", json.dumps(ideal.to_json()), "--cap", "4")
        assert (code, out, err) == (0, text, "")
        digest.update(out.encode())
    assert digest.hexdigest() == (GOLDEN / "lattice-upsets.sha256").read_text(encoding="utf-8").strip()


def test_wide_upsets_print_the_upset_json_byte_for_byte(capsys):
    # x = 3 and y = 3 at small caps: rows holding several answers are joined into one
    # item, and candidate rows holding none are skipped without a separator
    joined = skipped = 0
    for ideal in (Ideal(3, 3, (3, 2), (3, 1)), Ideal(3, 0, (2,), (1, 1)), Ideal(0, 3, (1,), (2, 2)), Ideal(3, 3)):
        max_l, _ = ideals._longest_columns(ideal)
        for cap in range(3):
            argv = ["ideal", "upset", json.dumps(ideal.to_json()), "--cap", str(cap)]
            assert run(capsys, *argv) == (0, upset_json(ideal, cap), ""), argv
            _, rows = ideals._upset_rows(ideal, cap)
            masks = [mask for *_, mask in rows]
            joined += sum(mask.bit_count() > 1 for mask in masks)
            skipped += (ideal.x + 1) * (ideal.y + 1) * len(ideals.enumerate_diagrams(cap, max_l)) - len(masks)
    assert joined > 0 and skipped > 0


LATTICE_HASSE = [
    ["--max-x", "2", "--max-y", "2", "--max-cols", "2", "--max-len", "2", "--format", "dot"],
    ["--max-x", "2", "--max-y", "1", "--max-cols", "2", "--max-len", "2", "--format", "json"],
    ["--max-x", "0", "--max-y", "500", "--format", "json"],
    ["--max-x", "1", "--max-y", "60", "--max-cols", "1", "--max-len", "1"],
]


def test_lattice_hasse_outputs_are_unchanged(capsys):
    # the benchmark's two Hasse diagrams and two wide-y families: one sha256 over what they print
    digest = hashlib.sha256()
    for argv in LATTICE_HASSE:
        code, out, err = run(capsys, "ideal", "hasse", *argv)
        assert (code, err) == (0, ""), argv
        digest.update(out.encode())
    assert digest.hexdigest() == (GOLDEN / "lattice-hasse.sha256").read_text(encoding="utf-8").strip()


def window_commands():
    """plscheck/clscheck x qvee/qlambda x every lam of widths 2-3 at bound 3 x three windows x two bounds,
    then two forbidden systems and a refused one: 339 commands."""
    argvs = []
    for check in ("plscheck", "clscheck"):
        for system in ("qvee", "qlambda"):
            for lam in enumerate_classes(2, 3) + enumerate_classes(3, 3):
                for widths in ("2..5", "3..6", "8..9"):
                    for bound in (2, 4):
                        argv = [check, json.dumps(list(lam), separators=(",", ":")), "--system", system,
                                "--widths", widths, "--bound", str(bound)]
                        argvs.append(argv + ["--slack", "1"] if check == "clscheck" else argv)
    return argvs + [
        ["plscheck", "[1,0]", "[2,1,0]", "--system", "forbidden", "--widths", "8..10", "--bound", "3"],
        ["clscheck", "[2,0]", "[3,1,0]", "--system", "forbidden", "--widths", "8..10", "--bound", "3", "--slack", "1"],
        ["plscheck", "[1,0]", "[2,0]", "--system", "qvee", "--widths", "2..4", "--bound", "2"],
    ]


def test_window_answers_are_unchanged(capsys):
    # one sha256 over each window command's argv, exit code, stdout and stderr
    digest = hashlib.sha256()
    codes = []
    for argv in window_commands():
        code, out, err = run(capsys, *argv)
        codes.append(code)
        digest.update((json.dumps([argv, code, out, err]) + "\n").encode())
    # both answers and the refusal occur, so the digest pins more than one outcome
    assert [codes.count(code) for code in (0, 1, 2)] == [304, 34, 1]
    assert digest.hexdigest() == (GOLDEN / "window-answers.sha256").read_text(encoding="utf-8").strip()


def test_ideal_weight_prints_the_weight_json_byte_for_byte(capsys):
    # sort_keys orders the position keys as strings, "1", "10", "100", "101", ..., "2";
    # x from 9 to 123 makes 1-, 2- and 3-digit keys meet
    wide = [Ideal(x, y, yl, yr) for x in (9, 10, 11, 99, 100, 123) for y, yl, yr in ((0, (), ()), (2, (3, 1), (2, 2, 1)))]
    for ideal in enumerate_ideals(2, 2, 2, 2) + wide:
        expected = json.dumps(highest_weight(ideal).to_json(), sort_keys=True) + "\n"
        assert run(capsys, "ideal", "weight", json.dumps(ideal.to_json())) == (0, expected, ""), ideal


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


def test_malformed_grid_files_refuse_cleanly(capsys, tmp_path):
    # each of these used to crash with an unexpected exception, except null and
    # true: null ran the packaged grids and true was read as 1
    interlace = {"max_width": 2, "bound": 1}
    for suite, config in (
        ("interlace", []), ("interlace", None), ("interlace", {"suites": []}),
        ("interlace", {"suites": {"interlace": 3}}), ("interlace", {"ceiling": None, "suites": {}}),
        ("interlace", {"suites": {"interlace": {**interlace, "max_width": "a"}}}),
        ("interlace", {"suites": {"interlace": {**interlace, "max_width": 2.5}}}),
        ("interlace", {"suites": {"interlace": {**interlace, "max_width": True}}}),
        ("lgts2", {"suites": {"lgts2": {"lam_width": 2, "lam_bound": 1, "mu_widths": 3, "mu_bound": 1}}}),
        ("acc", {"suites": {"acc": {"max_x": 0, "max_y": 0, "max_cols": 0, "max_len": 0, "seed": [1]}}}),
    ):
        path = tmp_path / "grids.json"
        path.write_text(json.dumps(config))
        code, out, err = run(capsys, "verify", suite, "--grid-file", str(path))
        assert (code, out) == (2, "") and err.startswith("error: ") and "unexpected" not in err, (config, err)


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
    monkeypatch.setattr("slinf.local_systems._iter_children", forbidden)
    for argv in (
        ["plscheck", "[3,1,0]", "--widths", "3..60", "--bound", "5"],
        ["plscheck", "[1,0]", "--widths", "2..100000000", "--bound", "100000000"],
        ["clscheck", "[3,1,0]", "--system", "qlambda", "--widths", "3..12", "--bound", "5",
         "--slack", "60"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and "may generate more than 10000000" in err, err


def test_upset_and_hasse_refuse_oversized_requests_before_enumerating(capsys, monkeypatch):
    def forbidden(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr("slinf.ideals.enumerate_diagrams", forbidden)
    for argv in (
        # each of these used to allocate until MemoryError
        ["ideal", "upset", '{"x":2,"y":2,"yl":[2,2],"yr":[2,1]}', "--cap", "60"],
        ["ideal", "upset", '{"x":0,"y":0,"yl":[40],"yr":[]}', "--cap", "40"],
        ["ideal", "hasse", "--max-x", "0", "--max-y", "0", "--max-cols", "40", "--max-len", "40"],
        ["ideal", "hasse", "--max-x", "2", "--max-y", "2", "--max-cols", "4", "--max-len", "4"],
        # 3 001 ideals, but 4.5 * 10**6 group ANDs reading up to 47 words each
        ["ideal", "hasse", "--max-x", "3000", "--max-y", "0", "--max-cols", "0", "--max-len", "0"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and "more than 10000000 inclusion checks" in err, err


def test_hasse_guard_accepts_the_benchmarked_and_wide_spread_families(capsys, monkeypatch):
    # the guard counts the words of the group ANDs and the rows, and lets these through
    monkeypatch.setattr("slinf.hasse.family_hasse", lambda *bounds: "drawn\n")
    for x, y, cols, length in (
        ("2", "2", "2", "2"), ("2", "1", "2", "2"), ("0", "500", "0", "0"), ("0", "1500", "0", "0"),
        ("1", "60", "1", "1"), ("0", "12", "1", "12"), ("2", "20", "2", "2"),
    ):
        argv = ["ideal", "hasse", "--max-x", x, "--max-y", y, "--max-cols", cols, "--max-len", length]
        assert run(capsys, *argv) == (0, "drawn\n", ""), argv


def test_hasse_guard_counts_the_row_work_not_the_codes(capsys, monkeypatch):
    # bounds 3: 6 400 ideals, 40 960 000 pairs, but 2 196 000 counted words; the
    # sha256 is that of family_hasse(3, 3, 3, 3, "json") before the cover walk
    code, out, err = run(capsys, "ideal", "hasse", "--max-x", "3", "--max-y", "3", "--max-cols", "3",
                         "--max-len", "3", "--format", "json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a5d2fd70225e113c74f1a83312a10c993a4c7839576f746803595b75b5c3f3d2"
    )
    assert sum(map(len, json.loads(out)["adjacency"])) == 28800
    monkeypatch.setattr("slinf.ideals.enumerate_diagrams", lambda *args: pytest.fail("enumeration started"))
    # (0, 1500, 0, 0) counts 9 989 037 and draws; one more y counts 10 008 201
    code, out, err = run(capsys, "ideal", "hasse", "--max-x", "0", "--max-y", "1501")
    assert (code, out) == (2, "") and "more than 10000000 inclusion checks" in err, err


def test_verify_ceiling_estimate_is_bounded(capsys, tmp_path):
    # math.comb(2 * 10**6, 10**6) alone takes about 45 s; the estimate must not compute it
    huge = 3_000_000
    grids = tmp_path / "huge.json"
    grids.write_text(json.dumps({"suites": {
        "interlace": {"max_width": huge, "bound": huge},
        "lgts2": {"lam_width": huge, "lam_bound": huge, "mu_widths": [huge], "mu_bound": huge},
        "ideal-order": {"max_x": 0, "max_y": 0, "max_cols": huge, "max_len": huge},
        # this one used to enumerate every class before its guard, until MemoryError
        "lemmas": {"lam_max_width": 14, "mu_max_width": 14, "bound": 14},
    }}))
    for suite in ("interlace", "lgts2", "ideal-order", "lemmas"):
        start = time.process_time()
        code, out, err = run(capsys, "verify", suite, "--grid-file", str(grids))
        assert (code, out) == (2, "") and "above the ceiling" in err, err
        assert time.process_time() - start < 5


def test_verify_guards_count_code_rows_before_enumerating(capsys, monkeypatch, tmp_path):
    # 3 001 ideals pass as pairs (acc projects 3 001**2 + 1 000 checks, under the
    # ceiling), but the guard also counts the work of inclusion_rows on them:
    # 79 462 212 words, almost all of them the ANDs of the 4.5 * 10**6 (x, dx) pairs
    def forbidden(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr("slinf.verify.enumerate_ideals", forbidden)
    bounds = {"max_x": 3000, "max_y": 0, "max_cols": 0, "max_len": 0}
    suites = ("acc", "split-consistency", "ideal-order", "tord-discrepancy")
    grids = tmp_path / "wide_x.json"
    grids.write_text(json.dumps({"suites": {suite: bounds for suite in suites}}))
    for suite in suites:
        code, out, err = run(capsys, "verify", suite, "--grid-file", str(grids))
        assert (code, out) == (2, "") and "above the ceiling" in err, (suite, err)


def test_ideal_suite_guards_count_the_column_route(monkeypatch):
    # (300, 0, 0, 0) has 301 ideals and 45 451 codes; the code route, which
    # no suite's rows take, counted 32 278 021 checks for them and refused
    # the family, while inclusion_rows does 162 629 words of work
    chain = {"max_x": 300, "max_y": 0, "max_cols": 0, "max_len": 0}
    assert ideals.inclusion_rows_checks(*chain.values(), verify.DEFAULT_CEILING) == 162_629
    report = verify.run_suite("ideal-order", chain)
    assert report.failed == 0 and report.checked == 301 * 301 + 301 + 301 * 300 // 2
    # split-consistency's full-union reference orders those codes, so it stays refused
    with pytest.raises(verify.GridTooLargeError, match="32278021"):
        verify.run_suite("split-consistency", chain)
    # (4, 358, 0, 0): 1 795 ideals project 6 445 845 checks, but the column
    # work is 10 046 727 words, refused before enumerating; (4, 357, 0, 0) counts 9 965 825
    assert verify.run_suite("ideal-order", {**chain, "max_x": 4, "max_y": 357}).failed == 0
    monkeypatch.setattr("slinf.verify.enumerate_ideals", lambda *args: pytest.fail("enumeration started"))
    with pytest.raises(verify.GridTooLargeError, match="10046727"):
        verify.run_suite("ideal-order", {**chain, "max_x": 4, "max_y": 358})


def test_verify_refusals_print_one_error_line(capsys, tmp_path):
    # run_suite's own refusals reach main's error path like every other ValueError
    grids = tmp_path / "wide_x.json"
    grids.write_text(json.dumps({"suites": {"acc": {"max_x": 3000, "max_y": 0, "max_cols": 0, "max_len": 0}}}))
    cases = [
        (["verify", "nosuch"], "error: unknown suite 'nosuch'; known suites: acc, "),
        (["verify", "acc", "--grid-file", str(grids)], "above the ceiling of 10000000"),
    ]
    # -1 000 000 chains used to exit 0 on "checked": -895024, and -104 976, the
    # 324**2 pairs acc did check, to be refused as "checked nothing"
    for chains in (-1_000_000, -104_976):
        path = tmp_path / f"chains{chains}.json"
        path.write_text(json.dumps({"suites": {"acc": {**DEFAULT_GRIDS["acc"], "chains": chains}}}))
        cases.append((["verify", "acc", "--grid-file", str(path)], f"grid value 'chains' must be >= 0, got {chains}\n"))
    for argv, reason in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert reason in err, err


@pytest.mark.parametrize(
    "command",
    [["qvee"], ["qlambda"], ["plscheck"], ["clscheck"], ["cls", "include"], ["ideal", "include"],
     # past the decision commands, every other parser of the tree
     [], ["dominates"], ["cls"], ["ideal"], ["ideal", "cls"], ["ideal", "weight"], ["ideal", "upset"],
     ["ideal", "hasse"], ["verify"]],
)
def test_decision_command_help_is_unchanged(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    code, out, err = run(capsys, *command, "--help")
    assert (code, err) == (0, "")
    assert out == (GOLDEN_HELP / f"{'-'.join(command) or 'slinf'}.txt").read_text(encoding="utf-8")


def test_usage_answers_are_unchanged(capsys, monkeypatch):
    # usage errors and help requests in odd places, exit code, stdout and stderr byte for byte:
    # empty, unknown, abbreviated and misplaced commands, "-h" and "--" before a command,
    # bad and extra arguments at every level
    monkeypatch.setenv("COLUMNS", "80")
    corpus = json.loads((GOLDEN / "usage-errors.json").read_text(encoding="utf-8"))
    assert len(corpus) == 38
    for case in corpus:
        assert run(capsys, *case["argv"]) == (case["exit"], case["stdout"], case["stderr"]), case["argv"]


def test_ideal_cls_and_weight_refuse_long_answers_before_building(capsys, monkeypatch):
    def forbidden(*args):
        raise AssertionError("the answer was built")

    monkeypatch.setattr("slinf.cli.split_code", forbidden)
    monkeypatch.setattr("slinf.cli.highest_weight", forbidden)
    for verb in ("cls", "weight"):
        start = time.process_time()
        code, out, err = run(capsys, "ideal", verb, json.dumps({"x": 10**8}))
        assert (code, out) == (2, "") and err.count("\n") == 1, err
        assert err.startswith("error: ") and "more than 10000000 printed integers" in err, err
        assert time.process_time() - start < 1
    # the largest accepted x with empty diagrams: 4 (x + 1) and 3 x + 1 integers
    # both write their answers as they are made, so a writer that takes none builds none
    monkeypatch.setattr("slinf.cli._emit_each", lambda *args: None)
    monkeypatch.setattr("slinf.cli.highest_weight", lambda ideal: make_weight({}, 0))
    for verb, largest in (("cls", 2_499_999), ("weight", 3_333_333)):
        assert run(capsys, "ideal", verb, json.dumps({"x": largest}))[0] == 0
        assert run(capsys, "ideal", verb, json.dumps({"x": largest + 1}))[0] == 2


def test_usage_errors_exit_2(capsys):
    # argparse's refusals, in subcommands too, are one error line like every other refusal
    for argv in (
        ["bogus-verb"], [], ["ideal"], ["ideal", "hasse", "--max-x", "q"], ["dominates", "[1,0]"],
        ["plscheck", "[1,0]", "--widths=0", "--bound="],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    # a malformed window names the form it takes, not the function that parses it
    for widths in ("3..", "..4", "3..4..5", "x"):
        code, out, err = run(capsys, "plscheck", "[3,1,0]", "--widths", widths, "--bound", "2")
        assert (code, out) == (2, "") and err == (
            f"error: argument --widths: expected widths A..B or one width A, with integers A and B, got {widths!r}\n"
        )
    code, out, err = run(capsys, "--help")
    assert (code, err) == (0, "") and out.startswith("usage: slinf")
    code, out, err = run(capsys, "ideal", "hasse", "--help")
    assert (code, err) == (0, "") and out.startswith("usage: slinf ideal hasse")


def test_a_command_builds_only_its_own_parsers(capsys, monkeypatch):
    # a command named in full builds its branch of the tree; any other argv, help listings and
    # invalid choices included, builds all fifteen parsers
    built = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    cli.build_parser()
    assert len(built) == 15
    for argv, progs in (
        (["plscheck", "[2,1,0]", "--widths", "3..4", "--bound", "2"], ["slinf", "slinf plscheck"]),
        (["ideal", "upset", '{"x":1,"y":1}', "--cap", "1"], ["slinf", "slinf ideal", "slinf ideal upset"]),
        (["cls", "include", "{}", "{}"], ["slinf", "slinf cls", "slinf cls include"]),
    ):
        built.clear()
        run(capsys, *argv)
        assert built == progs, argv
    for argv, count in (
        (["ideal", "bogus"], 7), (["--help"], 15), ([], 15), (["-h", "plscheck"], 15), (["--", "plscheck"], 15),
        (["plsch"], 15),
    ):
        built.clear()
        run(capsys, *argv)
        assert len(built) == count, argv


def test_wide_inputs_refuse_cleanly(capsys):
    # the chain search recursed once per width step and died in RecursionError;
    # only the oracle route runs it, and it refuses past its depth limit
    wide = json.dumps([1] * 750 + [0] * 750)
    code, out, err = run(capsys, "dominates", wide, "[1,0]", "--method", "oracle")
    assert (code, out) == (2, "") and "unexpected" not in err, err
    assert "MAX_CHAIN_DEPTH" in err and "--method interlace" in err, err
    # the default routes decide by interlacing at any width
    for argv in (["dominates", wide, "[1,0]"], ["dominates", wide, "[1,0]", "--method", "interlace"]):
        assert run(capsys, *argv) == (0, "true\n", "")
    assert run(capsys, "qvee", "[1,0]", wide) == (1, "false\n", "")


def test_upset_guard_counts_work_not_candidates(capsys):
    # 5 001 candidates, but about 1.25 * 10**7 slack comparisons: refused before deciding any
    start = time.process_time()
    code, out, err = run(capsys, "ideal", "upset", '{"x":5000}', "--cap", "0")
    assert (code, out) == (2, "") and "more than 10000000 inclusion checks" in err, err
    assert time.process_time() - start < 5
    # about 4.5 * 10**6 of them, so it is answered: the augmentation ideal and every I(x', 0)
    code, out, err = run(capsys, "ideal", "upset", '{"x":3000}', "--cap", "0")
    assert (code, err) == (0, "") and len(json.loads(out)) == 3001


def test_decoders_refuse_unknown_keys_and_malformed_zero(capsys):
    # each of these used to decode to some ideal or code and get an answer
    ideal, seq = '{"x":0}', '{"tail":0}'
    refused = [
        ["ideal", "include", bad, ideal]
        for bad in ('{"zero":"no","x":3}', '{"X":3}', '{"zero":1}', '{"zero":true,"x":2}', '{"zero":false}')
    ] + [
        ["cls", "include", bad, f'{{"p":{seq},"q":{seq}}}']
        for bad in (f'{{"p":{{"tail":0,"Inf":2}},"q":{seq}}}', f'{{"p":{seq},"q":{seq},"r":0}}')
    ]
    for argv in refused:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("error: ") and "unexpected" not in err, (argv, err)
    assert run(capsys, "ideal", "include", '{"zero":true}', ideal)[0] == 0
    assert run(capsys, "cls", "include", f'{{"p":{seq},"q":{seq}}}', f'{{"p":{seq},"q":{seq}}}')[0] == 0


json_scalars = st.one_of(
    st.integers(-4, 4), st.floats(allow_nan=False, allow_infinity=False), st.booleans(),
    st.text(max_size=2), st.none(),
)
partitions = st.lists(st.integers(-4, 4), min_size=1, max_size=8).map(
    lambda xs: sorted(xs, reverse=True)
)
json_arrays = st.one_of(  # about half of the pairs are valid partitions
    partitions, partitions, partitions, partitions, partitions,
    st.lists(st.integers(-4, 4), max_size=8),
    st.lists(st.one_of(json_scalars, st.lists(st.integers(0, 2), max_size=2)), max_size=4),
)


def assert_exit_contract(argv, codes):
    """The exit code is in codes, an error (exit 2) is clean, and any other exit prints JSON; returns it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in codes
    assert "Traceback" not in err.getvalue() and "unexpected" not in err.getvalue(), err.getvalue()
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
        return code, None
    return code, json.loads(out.getvalue())


def assert_bool_contract(argv):
    code, answer = assert_exit_contract(argv, (0, 1, 2))
    if code != 2:
        assert answer is (code == 0)


@given(st.sampled_from(["dominates", "qvee", "qlambda"]), json_arrays, json_arrays)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_membership_commands_fuzz(command, lam, mu):
    assert_bool_contract([command, json.dumps(lam), json.dumps(mu)])


json_values = st.one_of(json_scalars, st.lists(st.integers(-1, 3), max_size=3))
# top-level arguments that are not objects; one starting with "-" would be read as an option
non_objects = st.one_of(st.lists(st.integers(0, 3), max_size=2), st.text(max_size=2), st.booleans(), st.none())


def malformed(valid, keys):
    """A valid object with one field set to any JSON value, or an object of any values under those keys."""
    return st.one_of(
        st.builds(lambda obj, key, value: {**obj, key: value}, valid, st.sampled_from(keys), json_values),
        st.dictionaries(st.sampled_from(keys), json_values, max_size=len(keys)),
    )


diagrams = st.lists(st.integers(1, 3), max_size=3).map(lambda cols: sorted(cols, reverse=True))
valid_ideals = st.fixed_dictionaries(
    {"x": st.integers(0, 4), "y": st.integers(0, 3), "yl": diagrams, "yr": diagrams}
)
ideal_args = st.one_of(
    valid_ideals, st.just({"zero": True}), non_objects,
    malformed(valid_ideals, ["x", "y", "yl", "yr", "zero"]),
)


def sequences(tail):
    return st.builds(
        lambda inf, head: {"inf": inf, "head": sorted((tail + h for h in head), reverse=True), "tail": tail},
        st.integers(0, 2), st.lists(st.integers(1, 3), max_size=2),
    )


valid_sequences = st.integers(0, 2).flatmap(sequences)
valid_codes = st.integers(0, 2).flatmap(lambda m: st.fixed_dictionaries({"p": sequences(m), "q": sequences(m)}))
code_args = st.one_of(
    valid_codes, non_objects,
    malformed(valid_codes, ["p", "q"]),
    st.fixed_dictionaries({
        "p": st.one_of(valid_sequences, malformed(valid_sequences, ["inf", "head", "tail"])),
        "q": st.one_of(valid_sequences, malformed(valid_sequences, ["inf", "head", "tail"])),
    }),
)


@given(st.sampled_from(["ideal", "cls"]), st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_include_commands_fuzz(family, data):
    valid, anything = (valid_ideals, ideal_args) if family == "ideal" else (valid_codes, code_args)
    pair = data.draw(st.one_of(st.tuples(valid, valid), st.tuples(anything, anything)))  # half answerable
    assert_bool_contract([family, "include", *map(json.dumps, pair)])


ideal_verbs = [["cls"], ["weight"]] + [["upset", "--cap", str(cap)] for cap in range(3)]


@given(st.sampled_from(ideal_verbs), ideal_args)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_ideal_queries_fuzz(verb, ideal):
    # ideal cls, weight and upset answer JSON (exit 0) or refuse cleanly (exit 2)
    assert_exit_contract(["ideal", verb[0], json.dumps(ideal), *verb[1:]], (0, 2))


# window options that parse: mostly windows inside 2..5, else ranges that may be
# reversed, empty or below width 2; bounds and slacks may be negative
window_widths = st.integers(0, 3).flatmap(lambda k: st.one_of(
    st.builds(lambda lo, hi: f"{lo}..{hi}", st.integers(-1, 5), st.integers(-1, 5)),
    st.builds(str, st.integers(-1, 5)),
) if k == 0 else st.integers(2, 4).flatmap(lambda lo: st.integers(lo, 5).map(lambda hi: f"{lo}..{hi}")))
# mostly one or two partitions, else up to three arrays of any kind
system_args = st.integers(0, 3).flatmap(
    lambda k: st.lists(json_arrays, min_size=1, max_size=3) if k == 0
    else st.lists(partitions, min_size=1, max_size=2)
)


@given(
    st.sampled_from(["plscheck", "clscheck"]), system_args,
    st.sampled_from(["qvee", "qlambda", "forbidden"]), window_widths, st.integers(-1, 3), st.integers(-1, 2),
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_window_commands_fuzz(command, parts, system, widths, bound, slack):
    argv = [command, *map(json.dumps, parts), "--system", system, f"--widths={widths}", f"--bound={bound}"]
    if command == "clscheck":
        argv.append(f"--slack={slack}")
    assert_bool_contract(argv)


# any text for the numeric options, mostly text that does not parse
option_text = st.one_of(st.text(max_size=8), window_widths, st.integers(-2, 4).map(str))


@given(st.sampled_from(["plscheck", "clscheck", "upset"]), option_text, option_text, option_text)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_option_text_fuzz(command, first, second, third):
    if command == "upset":
        assert_exit_contract(["ideal", "upset", '{"x":1,"y":1,"yl":[1],"yr":[]}', f"--cap={first}"], (0, 2))
        return
    argv = [command, "[2,1,0]", f"--widths={first}", f"--bound={second}"]
    if command == "clscheck":
        argv.append(f"--slack={third}")
    assert_bool_contract(argv)


DEFAULT_GRIDS = load_grid_config()["suites"]


def fuzzed_grids(suite):
    """Grids over the suite's keys: small values, one replaced by any value, any values, or a non-object."""
    keys = list(DEFAULT_GRIDS[suite])
    small = st.fixed_dictionaries({
        key: st.lists(st.integers(-1, 4), max_size=2) if key == "mu_widths" else st.integers(-1, 3) for key in keys
    })
    values = st.one_of(st.integers(-2, 4), st.lists(st.integers(-1, 4), max_size=2), json_values)
    return st.one_of(
        small,
        st.builds(
            lambda grid, key, value: {**grid, key: value}, small, st.sampled_from([*keys, "ceiling"]), values
        ),
        st.dictionaries(st.sampled_from([*keys, "ceiling"]), values, max_size=len(keys) + 1),
        non_objects,
    )


def fuzzed_configs(suite):
    """Mostly a grid of the suite under a small top-level ceiling, which keeps every run short."""
    config = st.fixed_dictionaries({
        "ceiling": st.one_of(st.just(20_000), st.integers(-1, 20_000)),
        "suites": st.fixed_dictionaries({suite: fuzzed_grids(suite)}),
    })
    malformed_config = st.fixed_dictionaries({
        "ceiling": st.one_of(st.integers(-1, 20_000), json_values), "suites": st.one_of(non_objects, json_values),
    })
    return st.integers(0, 5).flatmap(lambda k: config if k < 4 else malformed_config if k < 5 else non_objects)


grid_configs = st.sampled_from(suite_names()).flatmap(
    lambda suite: st.tuples(st.just(suite), fuzzed_configs(suite))
)


@given(grid_configs)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_verify_grid_file_fuzz(suite_and_config):
    suite, config = suite_and_config
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "grids.json"
        path.write_text(json.dumps(config))
        assert_exit_contract(["verify", suite, "--grid-file", str(path)], (0, 1, 2))
