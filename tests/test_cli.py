"""Command-line parsing, rendering, dispatch, and exit codes."""

import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amalg.matgroup as matgroup
from amalg import SIDE_A, Mat2, NormalForm
from amalg.cli import (
    ParseError,
    _Scanner,
    integer,
    parse_amalgam_word,
    parse_action_spec,
    parse_gen_map,
    parse_group_spec,
    parse_letter_word,
    parse_matrix,
    render_letter_word,
    render_matrix,
    run,
)
from amalg import check_group_axioms, make_cyclic, make_dihedral

GOOD_GROUP = """\
group K order 2
identity 0
row 0: 0 1
row 1: 1 0
generators: 1
"""

# Parses fine but is not a group: left projection has no identity.
BROKEN_GROUP = """\
group P order 2
identity 0
row 0: 0 0
row 1: 1 1
generators: 1
"""

TRIVIAL_ACTION_Z2_ON_Z4 = """\
action Z2 on Z4
c 0: 0 1 2 3
c 1: 0 1 2 3
"""


def test_parse_matrix_accepts_whitespace_and_negatives():
    assert parse_matrix("[[2, -3],[1, -1]]") == Mat2(2, -3, 1, -1)
    assert parse_matrix(" [ [ 0,1 ] , [ 1,0 ] ] ") == Mat2(0, 1, 1, 0)
    # Non-unimodular matrices are accepted at parse time.
    assert parse_matrix("[[2,0],[0,1]]") == Mat2(2, 0, 0, 1)


def test_parse_matrix_reports_offsets():
    with pytest.raises(ParseError) as err:
        parse_matrix("[[1,2],[3,4]")
    assert "offset 12" in str(err.value)
    with pytest.raises(ParseError):
        parse_matrix("[[1,x],[3,4]]")


def test_parse_matrix_render_round_trip():
    m = Mat2(-5, 3, 2, -1)
    assert parse_matrix(render_matrix(m)) == m


def test_parse_letter_word_folds_adjacent_letters():
    assert parse_letter_word("").letters == ()
    assert parse_letter_word("s^2 * s^2").letters == (("s", 4),)
    assert parse_letter_word("s * s^-1").letters == ()
    assert parse_letter_word("s^3 * u^2 * j").letters == (("s", 3), ("u", 2), ("j", 1))


def test_parse_letter_word_errors():
    with pytest.raises(ParseError, match="offset 4: unknown letter 'q'"):
        parse_letter_word("s * q")
    with pytest.raises(ParseError, match="zero exponent"):
        parse_letter_word("s^0")
    with pytest.raises(ParseError, match="expected a term after"):
        parse_letter_word("s *")


def test_render_letter_word_omits_unit_exponent():
    w = parse_letter_word("s^-1 * u * j^1")
    assert render_letter_word(w) == "s^-1 * u * j"


def test_parse_amalgam_word_folds_exponents(small_spec):
    w = parse_amalgam_word("a:1 * b:2 * a:1^-1", small_spec)
    assert w == (("a", 1), ("b", 2), ("a", 3))
    assert parse_amalgam_word("", small_spec) == ()


def test_parse_amalgam_word_errors(small_spec):
    with pytest.raises(ParseError, match="out of range"):
        parse_amalgam_word("a:7", small_spec)
    with pytest.raises(ParseError, match="unknown side"):
        parse_amalgam_word("c:1", small_spec)
    with pytest.raises(ParseError, match="zero exponent"):
        parse_amalgam_word("a:1^0", small_spec)


def test_parse_gen_map():
    assert parse_gen_map("1:2") == {1: 2}
    assert parse_gen_map("1:2,3:4") == {1: 2, 3: 4}
    with pytest.raises(ValueError, match="generator map"):
        parse_gen_map("12")


def test_parse_group_spec_round_trip():
    g = parse_group_spec(GOOD_GROUP)
    assert g.label == "K"
    assert g.order == 2
    assert g.mul == ((0, 1), (1, 0))
    assert g.generators == (1,)


def test_parse_group_spec_reads_two_sided_inverses():
    # D3 relabelled by x -> 5 - x, so the identity is element 5.
    d3 = make_dihedral(3)
    rows = "".join(
        f"row {5 - x}: " + " ".join(str(5 - d3.mul[x][y]) for y in reversed(range(6))) + "\n"
        for x in range(6)
    )
    g = parse_group_spec(f"group R order 6\nidentity 5\n{rows}generators: 4 2\n")
    assert check_group_axioms(g).ok
    for x in g.elements():
        assert g.mul[x][g.inv[x]] == g.identity == g.mul[g.inv[x]][x]


def test_parse_group_spec_errors():
    with pytest.raises(ValueError, match="line 1"):
        parse_group_spec("grp K order 2")
    with pytest.raises(ValueError, match="entries in range"):
        parse_group_spec("group K order 2\nidentity 0\nrow 0: 0 5\nrow 1: 1 0\ngenerators: 1")
    with pytest.raises(ValueError, match="generators"):
        parse_group_spec("group K order 1\nidentity 0\nrow 0: 0\nnope: 0")


@pytest.mark.parametrize("text, message", [
    ("group K order 0\n", "group spec line 1: order must be positive"),
    ("group K order 2\n", "group spec: missing 'identity' line"),
    ("group K order 2\nidentity 9\n", "group spec line 2: identity index 9 out of range"),
    (GOOD_GROUP.replace("row 1:", "foo 1:"), "group spec line 4: expected 'row <i>: ...'"),
    (GOOD_GROUP.replace("row 1:", "row 0:"), "group spec line 4: bad or repeated row index 0"),
    (GOOD_GROUP.replace("generators: 1", "generators: 2"),
     "group spec line 5: generator index out of range"),
])
def test_parse_group_spec_error_lines(text, message):
    with pytest.raises(ValueError) as err:
        parse_group_spec(text)
    assert str(err.value) == message


def test_parse_action_spec_rejects_a_repeated_actor_row():
    z2 = make_cyclic(2)
    with pytest.raises(ValueError) as err:
        parse_action_spec("action Z2 on Z2\nc 1: 0 1\nc 1: 0 1\n", z2, z2)
    assert str(err.value) == "action spec line 3: bad or repeated actor index 1"


def test_parse_matrix_rejects_trailing_input():
    with pytest.raises(ParseError) as err:
        parse_matrix("[[1,0],[0,1]] x")
    assert err.value.offset == 14
    assert str(err.value) == "parse error at offset 14: unexpected trailing input 'x'"


def test_parse_action_spec_verifies_the_action():
    z2, z4 = make_cyclic(2), make_cyclic(4)
    act = parse_action_spec("action Z2 on Z4\nc 0: 0 1 2 3\nc 1: 0 3 2 1", z2, z4)
    assert act(1, 1) == 3
    with pytest.raises(ValueError, match="expected 4 entries"):
        parse_action_spec("action Z2 on Z4\nc 0: 0 1\nc 1: 0 1", z2, z4)
    with pytest.raises(ValueError, match="action invariant violation"):
        parse_action_spec("action Z2 on Z4\nc 0: 0 1 2 3\nc 1: 1 0 2 3", z2, z4)


def test_spec_files_report_the_line_of_a_bad_integer():
    with pytest.raises(ValueError, match="group spec line 2: bad identity 'x'"):
        parse_group_spec("group K order 2\nidentity x\nrow 0: 0 1\nrow 1: 1 0\ngenerators: 1")
    z2, z4 = make_cyclic(2), make_cyclic(4)
    with pytest.raises(ValueError, match="action spec line 3: bad actor index 'one'"):
        parse_action_spec("action Z2 on Z4\nc 0: 0 1 2 3\nc one: 0 3 2 1", z2, z4)
    with pytest.raises(ValueError, match="action spec line 2: permutation entries"):
        parse_action_spec("action Z2 on Z4\nc 0: 0 1 2 z\nc 1: 0 3 2 1", z2, z4)


def test_bad_integers_in_spec_files_exit_2_with_the_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(GOOD_GROUP.replace("identity 0", "identity e")))
    assert run(["axioms", "-"]) == 2
    assert capsys.readouterr().err == "error: group spec line 2: bad identity 'e'\n"
    act_file = tmp_path / "bad.act"
    act_file.write_text(TRIVIAL_ACTION_Z2_ON_Z4.replace("c 1: 0 1 2 3", "c 1: 0 1 2 3.0"))
    args = [
        "iso-check", "--A", "Z4", "--B", "Z4", "--D", "Z4", "--C", "Z2",
        "--iotaA", "1:1", "--iotaB", "1:1",
        "--actA", "inv", "--actB", "inv", "--actD", str(act_file),
    ]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err == "error: action spec line 3: permutation entries must be integers\n"


# Closed, with identity 0 and inverses, but (1 * 2) * 2 = 0 while 1 * (2 * 2) = 1.
NON_ASSOCIATIVE_GROUP = """\
group N order 3
identity 0
row 0: 0 1 2
row 1: 1 0 2
row 2: 2 2 0
generators: 1 2
"""


@pytest.mark.parametrize("flag", ["--A", "--B", "--D"])
def test_nf_rejects_a_group_file_that_fails_the_axioms(tmp_path, capsys, flag):
    path = tmp_path / "bad.grp"
    path.write_text(NON_ASSOCIATIVE_GROUP)
    groups = {"--A": "Z4", "--B": "Z6", "--D": "Z2", flag: str(path)}
    args = ["nf"] + [x for f, g in groups.items() for x in (f, g)]
    assert run(args + ["--iotaA", "1:2", "--iotaB", "1:3", "a:1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: group file {path}: associativity fails: (x, y, z) = (1, 2, 2)\n"


def test_iso_check_rejects_an_actor_file_that_fails_the_axioms(tmp_path, capsys):
    path = tmp_path / "proj.grp"
    path.write_text(BROKEN_GROUP)
    args = [
        "iso-check", "--A", "Z4", "--B", "Z6", "--D", "Z2", "--C", str(path),
        "--iotaA", "1:2", "--iotaB", "1:3", "--actA", "inv", "--actB", "inv", "--actD", "inv",
    ]
    assert run(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: group file {path}: identity fails: x = 1\n"


def test_nf_accepts_a_valid_group_file(tmp_path, capsys):
    path = tmp_path / "klein.grp"
    path.write_text(GOOD_GROUP)
    assert run(["nf", "--A", str(path), "--B", "Z4", "--D", "Z2",
                "--iotaA", "1:1", "--iotaB", "1:2", "a:1 * b:2"]) == 0
    assert capsys.readouterr().out == "\n"


def test_nf_subcommand_normalizes(capsys):
    code = run([
        "nf", "--A", "Z4", "--B", "Z6", "--D", "Z2",
        "--iotaA", "1:2", "--iotaB", "1:3", "a:1^2",
    ])
    assert code == 0
    assert capsys.readouterr().out.strip() == "a:2"


def test_nf_subcommand_json_lines(capsys):
    code = run([
        "nf", "--A", "Z4", "--B", "Z6", "--D", "Z2",
        "--iotaA", "1:2", "--iotaB", "1:3", "--format", "json-lines",
        "a:1 * a:3",
    ])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record == {"check": "nf", "instance": "a:1 * a:3", "result": "", "status": "pass"}


def test_iso_check_passes_and_reports(capsys):
    args = [
        "iso-check", "--A", "Z4", "--B", "Z6", "--D", "Z2", "--C", "Z2",
        "--iotaA", "1:2", "--iotaB", "1:3",
        "--actA", "inv", "--actB", "inv", "--actD", "inv",
        "--bound", "2", "--samples", "50",
    ]
    assert run(args) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 10
    assert all(line.startswith("PASS") for line in lines)


def test_iso_check_inverts_under_an_actor_file_whose_identity_is_not_element_zero(
    tmp_path, capsys
):
    path = tmp_path / "z2r.grp"
    path.write_text("group Z2r order 2\nidentity 1\nrow 0: 1 0\nrow 1: 0 1\ngenerators: 0\n")
    args = [
        "iso-check", "--A", "Z4", "--B", "Z6", "--D", "Z2", "--C", str(path),
        "--iotaA", "1:2", "--iotaB", "1:3",
        "--actA", "inv", "--actB", "inv", "--actD", "inv",
    ]
    assert run(args) == 0
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.strip().splitlines()
    assert len(lines) == 10
    assert all(line.startswith("PASS") for line in lines)


def test_iso_check_json_lines_is_deterministic(capsys):
    args = [
        "iso-check", "--A", "Z4", "--B", "Z6", "--D", "Z2", "--C", "Z2",
        "--iotaA", "1:2", "--iotaB", "1:3",
        "--actA", "inv", "--actB", "inv", "--actD", "inv",
        "--bound", "2", "--samples", "25", "--seed", "9",
        "--format", "json-lines",
    ]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    second = capsys.readouterr().out
    assert first == second
    for line in first.strip().splitlines():
        record = json.loads(line)
        assert record["status"] == "pass"
        assert list(record) == sorted(record)


def test_iso_check_incompatible_instance_fails(tmp_path, capsys):
    act_file = tmp_path / "trivial.act"
    act_file.write_text(TRIVIAL_ACTION_Z2_ON_Z4)
    args = [
        "iso-check", "--A", "Z4", "--B", "Z4", "--D", "Z4", "--C", "Z2",
        "--iotaA", "1:1", "--iotaB", "1:1",
        "--actA", "inv", "--actB", "inv", "--actD", str(act_file),
        "--bound", "2", "--samples", "10",
    ]
    assert run(args) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL instance-construction")
    assert "compatibility violation" in out


def test_functor_check_passes(capsys):
    assert run(["functor-check", "--format", "json-lines"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 18
    assert all(json.loads(line)["status"] == "pass" for line in lines)


def test_gl2_decompose_eval_round_trip(capsys):
    assert run(["gl2", "decompose", "[[2,3],[1,2]]"]) == 0
    word = capsys.readouterr().out.strip()
    assert run(["gl2", "eval", word]) == 0
    assert capsys.readouterr().out.strip() == "[[2,3],[1,2]]"


def test_a_failed_evaluation_check_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(matgroup, "_fold_runs", lambda spec, runs: (NormalForm(((SIDE_A, 1),), 0), []))
    assert run(["gl2", "decompose", "[[0,-1],[1,1]]"]) == 1
    assert capsys.readouterr().err == (
        "assertion failed: decomposition of Mat2(a=0, b=-1, c=1, d=1) failed its evaluation check\n"
    )


def test_gl2_decompose_identity_gives_empty_word(capsys):
    assert run(["gl2", "decompose", "[[1,0],[0,1]]"]) == 0
    assert capsys.readouterr().out.strip() == ""
    assert run(["gl2", "eval", ""]) == 0
    assert capsys.readouterr().out.strip() == "[[1,0],[0,1]]"


def test_gl2_eval_unknown_letter_is_a_usage_error(capsys):
    assert run(["gl2", "eval", "s * q"]) == 2
    err = capsys.readouterr().err
    assert "parse error at offset 4: unknown letter 'q'" in err


def test_gl2_decompose_rejects_non_unimodular(capsys):
    assert run(["gl2", "decompose", "[[2,0],[0,1]]"]) == 2
    assert "determinant" in capsys.readouterr().err


def test_sl2_decompose_subcommand(capsys):
    assert run(["sl2", "decompose", "[[1,1],[0,1]]"]) == 0
    assert capsys.readouterr().out.strip() == "s * u * s^2"
    assert run(["sl2", "decompose", "[[0,1],[1,0]]"]) == 2
    assert "determinant" in capsys.readouterr().err


def test_axioms_subcommand_on_builtin(capsys):
    assert run(["axioms", "D4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.split()[1] for line in lines] == [
        "associativity", "identity", "inverses", "generation",
    ]


def test_axioms_unknown_group_is_a_usage_error(capsys):
    assert run(["axioms", "Z5"]) == 2
    assert "unknown group" in capsys.readouterr().err


def test_axioms_on_group_file(tmp_path, capsys):
    path = tmp_path / "klein.grp"
    path.write_text(GOOD_GROUP)
    assert run(["axioms", str(path)]) == 0
    capsys.readouterr()


def test_axioms_broken_group_file_is_a_math_failure(tmp_path, capsys):
    path = tmp_path / "proj.grp"
    path.write_text(BROKEN_GROUP)
    assert run(["axioms", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_axioms_reads_group_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(GOOD_GROUP))
    assert run(["axioms", "-"]) == 0
    capsys.readouterr()


def test_matrix_argument_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("[[2,3],[1,2]]"))
    assert run(["gl2", "decompose", "-"]) == 0
    word = capsys.readouterr().out.strip()
    assert run(["gl2", "eval", word]) == 0
    assert capsys.readouterr().out.strip() == "[[2,3],[1,2]]"


def test_missing_required_flag_is_a_usage_error(capsys):
    assert run(["nf", "a:1"]) == 2
    capsys.readouterr()


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "amalg", "axioms", "Z4"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.count("PASS") == 4


def test_unreadable_spec_files_exit_2(tmp_path, capsys):
    folder = str(tmp_path)
    assert run(["axioms", folder]) == 2
    assert capsys.readouterr().err == f"error: cannot read group file {folder!r}: Is a directory\n"
    assert run(["nf", "--A", folder, "--B", "Z6", "--D", "Z2",
                "--iotaA", "1:2", "--iotaB", "1:3", "a:1"]) == 2
    assert capsys.readouterr().err == f"error: cannot read group file {folder!r}: Is a directory\n"
    args = [
        "iso-check", "--A", "Z4", "--B", "Z6", "--D", "Z2", "--C", "Z2",
        "--iotaA", "1:2", "--iotaB", "1:3",
        "--actA", folder, "--actB", "inv", "--actD", "inv",
    ]
    assert run(args) == 2
    assert capsys.readouterr().err == f"error: cannot read action file {folder!r}: Is a directory\n"


def iso_check_args(c: str = "Z2", act_a: str = "inv") -> list[str]:
    return ["iso-check", "--A", "Z4", "--B", "Z6", "--D", "Z2", "--C", c, "--iotaA", "1:2",
            "--iotaB", "1:3", "--actA", act_a, "--actB", "inv", "--actD", "inv"]


@pytest.mark.parametrize("kind, args", [
    ("group", lambda name: ["axioms", name]),
    ("group", lambda name: iso_check_args(c=name)),
    ("action", lambda name: iso_check_args(act_a=name)),
], ids=["axioms", "iso-check-C", "iso-check-actA"])
def test_spec_file_names_the_os_refuses_exit_2(capsys, kind, args):
    # Too long for the OS to stat or open: one error line, no traceback.
    name = "x" * 5000
    assert run(args(name)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {kind} file {name!r}: ") and err.count("\n") == 1
    assert "Traceback" not in err
    # The empty name is no file either, not the current directory.
    assert run(args("")) == 2
    builtins = "a builtin" if kind == "group" else "'inv'"
    assert capsys.readouterr().err == f"error: unknown {kind} '': not {builtins} and not a file\n"


@pytest.mark.parametrize("n, rows", [(10**20, "row 0: 0\n"), (3, "row 0: 0 1 2\n")])
def test_group_spec_order_beyond_the_rows_given_exits_2(monkeypatch, capsys, n, rows):
    text = f"group K order {n}\nidentity 0\n{rows}generators: 1\n"
    with pytest.raises(ValueError, match=f"group spec line 1: order {n} needs {n} rows"):
        parse_group_spec(text)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert run(["axioms", "-"]) == 2
    assert capsys.readouterr().err == (
        f"error: group spec line 1: order {n} needs {n} rows and a generators line, "
        "found 2 lines\n"
    )


def test_repeated_generator_map_entry_is_rejected(capsys):
    with pytest.raises(ValueError, match="repeated generator map entry '1:2'"):
        parse_gen_map("1:3,1:2")
    assert run(["nf", "--A", "Z4", "--B", "Z6", "--D", "Z2",
                "--iotaA", "1:3,1:2", "--iotaB", "1:3", "a:1"]) == 2
    assert capsys.readouterr().err == "error: repeated generator map entry '1:2'\n"


def test_group_spec_line_after_the_generators_exits_2(monkeypatch, capsys):
    text = GOOD_GROUP + "\nrow 7: junk\n"
    with pytest.raises(ValueError, match="group spec line 7: "):
        parse_group_spec(text)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert run(["axioms", "-"]) == 2
    assert capsys.readouterr().err == (
        "error: group spec line 7: unexpected line after the generators line\n"
    )


def test_a_bad_entry_in_the_last_row_of_an_order_128_group_names_its_line(monkeypatch, capsys):
    g = make_dihedral(64)
    rows = [f"row {i}: " + " ".join(map(str, row)) for i, row in enumerate(g.mul)]
    rows[-1] = rows[-1][: rows[-1].rindex(" ")] + " x"
    text = "\n".join([f"group D64 order {g.order}", f"identity {g.identity}", *rows,
                      "generators: " + " ".join(map(str, g.generators))]) + "\n"
    assert len(rows) == 128
    with pytest.raises(ValueError) as err:
        parse_group_spec(text)
    assert str(err.value) == "group spec line 130: row entries must be integers"
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert run(["axioms", "-"]) == 2
    assert capsys.readouterr() == (
        "", "error: group spec line 130: row entries must be integers\n")


# Integers in spec files and generator maps follow the word grammar: an
# optional '-', then ASCII digits.  int() alone would accept each of these.
@pytest.mark.parametrize("text, message", [
    (GOOD_GROUP.replace("row 1: 1 0", "row 1: 1 0_0"),
     "group spec line 4: row entries must be integers"),
    (GOOD_GROUP.replace("generators: 1", "generators: ١"),
     "group spec line 5: generator indices must be integers"),
    (GOOD_GROUP.replace("order 2", "order +2"), "group spec line 1: bad order '+2'"),
    (GOOD_GROUP.replace("identity 0", "identity ٠"),
     "group spec line 2: bad identity '٠'"),
    (GOOD_GROUP.replace("row 1:", "row +1:"), "group spec line 4: expected 'row <i>: ...'"),
], ids=["underscore", "arabic-indic", "plus", "arabic-indic-zero", "plus-row"])
def test_group_spec_integers_are_ascii_digits(text, message):
    with pytest.raises(ValueError) as err:
        parse_group_spec(text)
    assert str(err.value) == message


@pytest.mark.parametrize("old, new, message", [
    ("c 1:", "c +1:", "action spec line 3: bad actor index '+1'"),
    ("c 1: 0 1 2 3", "c 1: 0 1 2 ٣", "action spec line 3: permutation entries must be integers"),
    ("c 1: 0 1 2 3", "c 1: 0 1 2 0_3", "action spec line 3: permutation entries must be integers"),
], ids=["plus", "arabic-indic", "underscore"])
def test_action_spec_integers_are_ascii_digits(old, new, message):
    with pytest.raises(ValueError) as err:
        parse_action_spec(TRIVIAL_ACTION_Z2_ON_Z4.replace(old, new), make_cyclic(2), make_cyclic(4))
    assert str(err.value) == message


@pytest.mark.parametrize("value", ["1:+2", "1:٣", "1_0:2"],
                         ids=["plus", "arabic-indic", "underscore"])
def test_generator_map_integers_are_ascii_digits(value):
    with pytest.raises(ValueError) as err:
        parse_gen_map(value)
    assert str(err.value) == f"bad generator map entry {value!r}"


@pytest.mark.parametrize("flag, value", [
    ("--iotaA", "1:+2"), ("--iotaB", "1:٣"), ("--iotaA", "1_0:2"),
    ("--bound", "+2"), ("--samples", "1_0"), ("--seed", "٣"),
], ids=["iotaA-plus", "iotaB-arabic-indic", "iotaA-underscore", "bound-plus",
        "samples-underscore", "seed-arabic-indic"])
def test_iso_check_integers_are_ascii_digits(capsys, flag, value):
    args = ["iso-check", "--A", "Z4", "--B", "Z6", "--D", "Z2", "--C", "Z2", "--iotaA", "1:2",
            "--iotaB", "1:3", "--actA", "inv", "--actB", "inv", "--actD", "inv",
            "--bound", "1", "--samples", "1", "--seed", "0"]
    args[args.index(flag) + 1] = value
    assert run(args) == 2
    assert repr(value) in capsys.readouterr().err


def scanned(text):
    """``text`` read by the word grammar's scanner as one integer and nothing else."""
    s = _Scanner(text)
    value = s.integer()
    s.end()
    return value


# One integer grammar: integer() reads what the scanner reads, and blanks
# that the scanner skips may surround it.
@pytest.mark.parametrize("text, expected", [
    ("0", 0), ("-17", -17), (" 42 ", 42), ("\t1", 1), ("\x0b1", 1), ("\x1c1", 1),
    ("\x1d1", 1), ("\x1e1", 1), ("\x1f1", 1), ("\xa01", 1), ("1\xa0", 1),
    ("+1", None), ("1_0", None), ("٣", None), ("", None), ("-", None), ("--1", None),
    ("1 2", None), ("- 1", None), ("9" * 5000, None),
])
def test_integer_reads_as_the_scanner_reads(int_digit_limit, text, expected):
    for read in (integer, scanned):
        if expected is None:
            with pytest.raises(ValueError):
                read(text)
        else:
            assert read(text) == expected


def read_or_error(read, text):
    """``read(text)``, or the repr of the ValueError it raises."""
    try:
        return read(text)
    except ValueError as e:
        return repr(e)


# Text over ASCII digits, the signs and digits that int() reads beyond the
# grammar, and blanks that str.isspace holds for.
@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(st.text(alphabet="0123456789-+_²٣ \t\x0b\x1c\x1f\xa0\u2003", max_size=8))
def test_integer_and_the_scanner_agree_on_generated_text(text):
    assert read_or_error(integer, text) == read_or_error(scanned, text)


def test_iso_check_seed_may_have_blanks_the_scanner_skips(capsys):
    args = ["iso-check", "--A", "Z4", "--B", "Z6", "--D", "Z2", "--C", "Z2", "--iotaA", "1:2",
            "--iotaB", "1:3", "--actA", "inv", "--actB", "inv", "--actD", "inv",
            "--bound", "1", "--samples", "3", "--seed", "1"]
    assert run(args) == 0
    expected = capsys.readouterr()
    args[-1] = "\x1c1"
    assert run(args) == 0
    assert capsys.readouterr() == expected


@pytest.mark.parametrize("flag, value", [("--samples", "-5"), ("--bound", "-3")])
def test_iso_check_rejects_a_negative_sample_count_or_bound(capsys, flag, value):
    args = ["iso-check", "--A", "Z4", "--B", "Z6", "--D", "Z2", "--C", "Z2", "--iotaA", "1:2",
            "--iotaB", "1:3", "--actA", "inv", "--actB", "inv", "--actD", "inv",
            "--bound", "1", "--samples", "1"]
    args[args.index(flag) + 1] = value
    assert run(args) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {flag[2:]} must be non-negative, got {value}\n")


# Inputs shaped like spec lines and generator maps, with integers that may
# hold what int() accepts beyond the word grammar.
SPEC_INTEGERS = st.text(alphabet="-+_0123 ²٣", max_size=3)
SPEC_LINES = st.tuples(
    st.sampled_from(["group K order ", "identity ", "row ", "generators: ", "action Z2 on ",
                     "c ", ""]),
    SPEC_INTEGERS,
    st.sampled_from([": ", " ", ""]),
    st.lists(SPEC_INTEGERS, max_size=3).map(" ".join),
).map("".join)
SPEC_TEXTS = st.one_of(st.lists(SPEC_LINES, max_size=7).map("\n".join), st.text(max_size=24))
GEN_MAPS = st.one_of(
    st.lists(st.tuples(SPEC_INTEGERS, st.sampled_from([":", ""]), SPEC_INTEGERS).map("".join),
             min_size=1, max_size=3).map(",".join),
    st.text(max_size=8),
)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(SPEC_TEXTS, GEN_MAPS)
def test_spec_parsers_parse_or_raise_value_error(text, gen_map):
    z2 = make_cyclic(2)
    for parse in (parse_group_spec, lambda t: parse_action_spec(t, z2, z2)):
        try:
            parse(text)
        except ValueError:
            pass
    try:
        parse_gen_map(gen_map)
    except ValueError:
        pass


@pytest.fixture
def int_digit_limit():
    """The interpreter's default limit on int() digits, restored afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no limit on int() digits")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("text, offset", [("s^" + "1" * 5000, 2), ("[[1,-" + "9" * 5000, 4)],
                         ids=["letter-word", "matrix"])
def test_integer_too_long_for_int_is_a_parse_error(int_digit_limit, text, offset):
    parse = parse_matrix if text.startswith("[") else parse_letter_word
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.offset == offset


@pytest.mark.parametrize("fmt", ["text", "json-lines"])
def test_amalg_command_reads_integers_of_any_length(fmt):
    result = subprocess.run(
        [sys.executable, "-m", "amalg", "gl2", "eval", "--format", fmt, "s^" + "1" * 5000 + " * u"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    out = result.stdout.strip()
    assert (json.loads(out)["result"] if fmt == "json-lines" else out) == "[[1,1],[0,1]]"


# N > sys.maxsize: the word has 2N syllables, which no list can hold.  Any N
# between about 10^7 and sys.maxsize would really be allocated.
@pytest.mark.parametrize("args", [
    ["sl2", "decompose", "[[1,10000000000000000000000],[0,1]]"],
    ["sl2", "decompose", "[[10000000000000000000001,10000000000000000000000],[1,1]]"],
    ["gl2", "decompose", "[[10000000000000000000000,1],[1,0]]"],
], ids=["upper-unipotent", "quotient", "determinant-minus-one"])
def test_unipotent_too_long_for_a_list_exits_2(capsys, args):
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: T^") and err.endswith("syllables, more than a list can hold\n")


@pytest.mark.parametrize("args", [
    ["gl2", "eval", "--bound", "5", "--seed", "9", "s * u"],
    ["gl2", "decompose", "--samples", "5", "[[1,0],[0,1]]"],
    ["sl2", "decompose", "--seed", "1", "[[1,0],[0,1]]"],
    ["axioms", "--bound", "2", "Z4"],
    ["functor-check", "--samples", "3"],
    ["nf", "--A", "Z4", "--B", "Z6", "--D", "Z2", "--iotaA", "1:2", "--iotaB", "1:3",
     "--seed", "2", "a:1"],
], ids=lambda args: " ".join(args[:2]))
def test_options_only_iso_check_reads_are_usage_errors(capsys, args):
    assert run(args) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_sl2_decompose_of_a_huge_lower_unipotent_exits_2_at_once():
    result = subprocess.run(
        [sys.executable, "-m", "amalg", "sl2", "decompose", "[[1,0],[-10000000000000000000000,1]]"],
        capture_output=True, text=True, timeout=10,
    )
    assert result.returncode == 2, result.stderr
    assert "more than a list can hold" in result.stderr


def test_blank_generator_map_is_empty():
    assert parse_gen_map("") == {}
    assert parse_gen_map("  ") == {}


# Z1 has no generators, so its embeddings are given by empty maps.
Z1_AMALGAM = ["--A", "Z4", "--B", "Z6", "--D", "Z1", "--iotaA", "", "--iotaB", ""]


def test_nf_over_the_trivial_subgroup(capsys):
    assert run(["nf", *Z1_AMALGAM, "a:1"]) == 0
    assert capsys.readouterr() == ("a:1\n", "")


def test_iso_check_over_the_trivial_subgroup(capsys):
    args = ["iso-check", *Z1_AMALGAM, "--C", "Z2", "--actA", "inv", "--actB", "inv",
            "--actD", "inv", "--bound", "2", "--samples", "20"]
    assert run(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10
    assert all(line.startswith("PASS ") for line in lines)


# Z2 with its identity at element 1; row 1 of each action is trivial, row 0 inverts.
SHIFTED_IDENTITY_Z2 = """\
group Z2r order 2
identity 1
row 0: 1 0
row 1: 0 1
generators: 0
"""


def test_iso_check_with_an_actor_whose_identity_is_not_element_zero(tmp_path, capsys):
    args = ["iso-check", "--A", "Z4", "--B", "Z6", "--D", "Z2", "--iotaA", "1:2", "--iotaB", "1:3",
            "--C", str(tmp_path / "z2r.grp"), "--bound", "2", "--samples", "30"]
    (tmp_path / "z2r.grp").write_text(SHIFTED_IDENTITY_Z2)
    for flag, n in (("--actA", 4), ("--actB", 6), ("--actD", 2)):
        path = tmp_path / f"{flag[2:]}.act"
        inverse = " ".join(str(-x % n) for x in range(n))
        path.write_text(f"action Z2r on Z{n}\nc 0: {inverse}\nc 1: {' '.join(map(str, range(n)))}\n")
        args += [flag, str(path)]
    assert run(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10
    assert all(line.startswith("PASS ") for line in lines)


# An empty PYTHONUNBUFFERED counts as unset.
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_141_quietly(unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    try:
        result = subprocess.run([sys.executable, "-m", "amalg", "axioms", "Z4"],
                                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (141, b"")
