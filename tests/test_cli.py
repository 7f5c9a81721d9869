"""End-to-end command-line runs against temporary system files."""

import json
import time

import pytest

from weylclosure import cli
from weylclosure.cli import main
from weylclosure.formatting import format_operator

EULER = """\
# second-order equation with polynomial solutions x and x^2
field: real
vars: 1
unknowns: 1
row: x^2*D^2 - 2*x*D + 2
"""

GRADIENT = """\
vars: 2
row: D1
row: D2
"""

VECTOR = """\
vars: 1
unknowns: 2
row: D [u1]
row: 1 [u2]
"""


@pytest.fixture
def euler_file(tmp_path):
    path = tmp_path / "euler.sys"
    path.write_text(EULER)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


# -- riquier ---------------------------------------------------------------

def test_riquier_euler(euler_file, capsys):
    code, doc = run(capsys, ["riquier", euler_file, "--s", "3"])
    assert code == 0
    assert doc["basis"] == ["D^2 - (2/x)*D + 2/x^2"]
    assert doc["s0"] == 2
    assert doc["parametric"] == ["1", "D"]


def test_riquier_gradient(tmp_path, capsys):
    path = tmp_path / "grad.sys"
    path.write_text(GRADIENT)
    code, doc = run(capsys, ["riquier", str(path), "--s", "1"])
    assert code == 0
    assert sorted(doc["basis"]) == ["D1", "D2"]
    assert doc["parametric"] == ["1"]


def test_riquier_rejects_a_negative_s(euler_file, capsys):
    code = main(["riquier", euler_file, "--s", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: order s must be nonnegative, got -1\n"


# -- member ----------------------------------------------------------------

def test_member_true_emits_witness(euler_file, capsys):
    code, doc = run(capsys, ["member", euler_file, "--q", "D^3"])
    assert code == 0
    assert doc["member"] is True
    assert doc["witness"] == {"w": "x^2", "cofactors": ["D"]}


def test_member_false_exit_code(tmp_path, capsys):
    path = tmp_path / "herm.sys"
    path.write_text("vars: 1\nrow: (-D + x)*(D + x)\nq: D + x\n")
    code, doc = run(capsys, ["member", str(path)])
    assert code == 1
    assert doc["member"] is False
    assert doc["witness"] is None



def test_riquier_prints_a_polynomial_order_0_coefficient_as_a_summand(tmp_path, capsys):
    # (-D + x)*(D + x) = -(D^2 - x^2 + 1), whose monic basis element is D^2 - x^2 + 1
    path = tmp_path / "herm.sys"
    path.write_text("vars: 1\nrow: (-D + x)*(D + x)\n")
    code, doc = run(capsys, ["riquier", str(path)])
    assert code == 0
    assert doc["basis"] == ["D^2 - x^2 + 1"]

def test_member_cross_check_agrees(euler_file, capsys):
    code, doc = run(capsys, ["member", euler_file, "--q", "D^3", "--cross-check"])
    assert code == 0
    assert doc["lemma1_member"] is True
    assert doc["euclidean_member"] is True


def test_member_cross_check_completes_once(euler_file, capsys, monkeypatch):
    import weylclosure.cli
    import weylclosure.closure

    calls = []
    original = weylclosure.closure.complete_to_riquier_basis

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(weylclosure.closure, "complete_to_riquier_basis", counting)
    monkeypatch.setattr(weylclosure.cli, "complete_to_riquier_basis", counting)
    for q, member in (("D^3", True), ("D^2", False)):
        calls.clear()
        code, doc = run(capsys, ["member", euler_file, "--q", q, "--cross-check"])
        assert code == (0 if member else 1)
        assert doc["lemma1_member"] is member
        assert len(calls) == 1


def test_member_vector_system(tmp_path, capsys):
    path = tmp_path / "vec.sys"
    path.write_text(VECTOR)
    code, doc = run(capsys, ["member", str(path), "--q", "D^2 [u1] + x [u2]"])
    assert code == 0 and doc["member"] is True


def test_member_missing_candidate(euler_file, capsys):
    code = main(["member", euler_file])
    assert code == 2


# -- solve -----------------------------------------------------------------

def test_solve_exponential(tmp_path, capsys):
    path = tmp_path / "exp.sys"
    path.write_text("vars: 1\nrow: D - 1\n")
    code, doc = run(capsys, ["solve", str(path), "--point", "0",
                             "--init", "1=1", "--order", "5"])
    assert code == 0
    assert doc["point"] == ["0"]
    assert doc["derivative_values"]["u1"] == {str(k): "1" for k in range(6)}


def test_solve_uses_file_defaults(tmp_path, capsys):
    path = tmp_path / "exp.sys"
    path.write_text("vars: 1\nrow: D - 1\npoint: 0\nT: 3\n")
    code, doc = run(capsys, ["solve", str(path), "--init", "1=2"])
    assert code == 0
    assert doc["order"] == 3
    assert doc["derivative_values"]["u1"]["3"] == "2"


def test_solve_rejects_principal_initial_value(tmp_path, capsys):
    path = tmp_path / "d2.sys"
    path.write_text("vars: 1\nrow: D^2\n")
    code = main(["solve", str(path), "--point", "0",
                 "--init", "1=1, D^2=5", "--order", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "principal derivative D^2" in captured.err


def test_solve_rejects_initial_value_above_the_order(tmp_path, capsys):
    path = tmp_path / "d1.sys"
    path.write_text("vars: 2\nrow: D1\n")
    code = main(["solve", str(path), "--point", "0,0",
                 "--init", "1=1, D2^5=7", "--order", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: initial value given for D2^5 above the truncation order 2\n"


@pytest.mark.parametrize("init", ["1=1, 1=5", "1=1, D=2, 1*1=7"])
def test_solve_rejects_a_repeated_initial_value(tmp_path, capsys, init):
    path = tmp_path / "osc.sys"
    path.write_text("vars: 1\nrow: D^2 + 1\n")
    code = main(["solve", str(path), "--point", "0", "--init", init, "--order", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: initial value given twice for 1\n"


def test_solve_at_singular_point_is_an_input_error(euler_file, capsys):
    code = main(["solve", euler_file, "--point", "0",
                 "--init", "1=1, D=1", "--order", "4"])
    assert code == 2
    assert capsys.readouterr().err == "error: denominator vanishes at 0\n"


def test_solve_picks_regular_point_automatically(euler_file, capsys):
    # the monic basis has denominators vanishing at 0, so 0 must be avoided
    code, doc = run(capsys, ["solve", euler_file, "--init", "1=1, D=1",
                             "--order", "4"])
    assert code == 0
    assert doc["point"] != ["0"]


def test_solve_picks_a_point_past_51_poles_in_one_coordinate(tmp_path, capsys):
    # the basis denominator x2 * prod (x2^2 - k^2) vanishes at x2 = 0, +-1, ..., +-25
    product = "*".join(["x2"] + [f"(x2^2 - {k * k})" for k in range(1, 26)])
    path = tmp_path / "poles.sys"
    path.write_text(f"vars: 2\nrow: ({product})*D1 - 1\n")
    code, doc = run(capsys, ["solve", str(path)])
    assert code == 0
    assert doc["point"] == ["0", "26"]


# -- prop1 -----------------------------------------------------------------

def test_prop1_counts(euler_file, capsys):
    code, doc = run(capsys, ["prop1", euler_file, "--point", "1", "--s", "4"])
    assert code == 0
    assert doc["columns"] == 5
    assert doc["rows"] == 3
    assert doc["nullity"] == 2
    assert doc["parametric_count"] == 2


def test_prop1_rejects_an_empty_coordinate(tmp_path, capsys):
    path = tmp_path / "g.sys"
    path.write_text("vars: 2\nrow: D1\n")
    code = main(["prop1", str(path), "--point", "1,,2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: empty coordinate in point '1,,2'\n"


def test_point_line_with_an_empty_coordinate_exits_2(tmp_path, capsys):
    path = tmp_path / "g.sys"
    path.write_text("vars: 2\nrow: D1\npoint: 1,,2\n")
    code = main(["prop1", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: empty coordinate in point '1,,2'\n"


def test_prop1_singular_point_is_an_input_error(euler_file, capsys):
    code = main(["prop1", euler_file, "--point", "0", "--s", "2"])
    assert code == 2
    assert capsys.readouterr().err == "error: denominator vanishes at 0\n"


def test_prop1_pole_message_names_a_gaussian_point(tmp_path, capsys):
    # (1 + i)^2 = 2*i, so the monic coefficient 1/(x^2 - 2*i) has a pole there
    path = tmp_path / "cplx.sys"
    path.write_text("field: complex\nvars: 1\nrow: (x^2 - 2*i)*D + 1\n")
    code = main(["prop1", str(path), "--point", "1 + i", "--s", "2"])
    assert code == 2
    assert capsys.readouterr().err == "error: denominator vanishes at 1 + i\n"


@pytest.mark.parametrize("argv, message", [
    (["solve", "--point", "0, 0", "--order", "3000"],
     "error: order 3000 has 4504501 derivatives in 2 variable(s) and 1 unknown(s), "
     "more than the limit of 100000\n"),
    (["prop1", "--point", "0, 0", "--s", "400"],
     "error: the constraint matrix of order 400 has 80200 rows and 80601 columns, "
     "6464200200 entries, more than the limit of 100000\n"),
])
def test_oversized_jet_request_exits_2_before_allocating(tmp_path, capsys, argv, message):
    # without the size guard both calls fill memory until MemoryError
    path = tmp_path / "d1.sys"
    path.write_text("vars: 2\nrow: D1\n")
    start = time.perf_counter()
    code = main(argv[:1] + [str(path)] + argv[1:])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == message
    assert elapsed < 5


# -- verify-witness --------------------------------------------------------

def test_verify_witness_valid(euler_file, capsys):
    code, doc = run(capsys, ["verify-witness", euler_file, "--q", "D^3",
                             "--w", "x^2", "--h", "D"])
    assert code == 0 and doc["valid"] is True


def test_verify_witness_invalid(euler_file, capsys):
    code, doc = run(capsys, ["verify-witness", euler_file, "--q", "D^3",
                             "--w", "x", "--h", "D"])
    assert code == 1 and doc["valid"] is False


def test_verify_witness_rejects_rational_w(euler_file, capsys):
    code = main(["verify-witness", euler_file, "--q", "D^3",
                 "--w", "1/x", "--h", "D"])
    assert code == 2


def test_verify_witness_refuses_a_system_that_member_refuses(tmp_path, capsys):
    # a row with a rational coefficient is outside A_m(F)^n: both commands
    # report it as an input error rather than a verdict
    path = tmp_path / "rational.sys"
    path.write_text("vars: 1\nrow: (1/x)*D - 1\n")
    message = "error: generator 0 has non-polynomial coefficients\n"
    assert main(["member", str(path), "--q", "D"]) == 2
    assert capsys.readouterr() == ("", message)
    assert main(["verify-witness", str(path), "--q", "D", "--w", "1", "--h", "x"]) == 2
    assert capsys.readouterr() == ("", message)


def test_repeated_calls_share_one_parser_but_no_values(euler_file, capsys, monkeypatch):
    built = []
    build_parser = cli.build_parser

    def counting():
        built.append(True)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    seen = []

    def record(witness, q, generators):
        seen.append([format_operator(h) for h in witness.cofactors])
        return True

    monkeypatch.setattr(cli, "verify_witness", record)
    base = ["verify-witness", euler_file, "--q", "D^3", "--w", "x^2"]
    assert main(base + ["--h", "D"]) == 0
    assert main(base + ["--h", "x", "--h", "1"]) == 0
    assert main(base) == 0
    capsys.readouterr()
    assert seen == [["D"], ["x", "1"], []]
    assert built == [True]


# -- input errors ----------------------------------------------------------

def test_missing_file_is_an_input_error(capsys):
    assert main(["riquier", "/nonexistent/file.sys"]) == 2


def test_malformed_system_file(tmp_path, capsys):
    path = tmp_path / "bad.sys"
    path.write_text("rows: D\n")
    assert main(["riquier", str(path)]) == 2


@pytest.mark.parametrize("text, message", [
    ("row: D\n", "missing 'vars:' line"),
    ("vars: 0\nrow: D\n", "vars and unknowns must be positive"),
    ("field: quaternion\nvars: 1\nrow: D\n", "unknown field mode 'quaternion'"),
    ("vars: 1\nrow D\n", "expected 'key: value'"),
])
def test_system_file_errors_exit_2_with_their_message(tmp_path, capsys, text, message):
    path = tmp_path / "bad.sys"
    path.write_text(text)
    assert main(["riquier", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize("argv, message", [
    (["--init", "D"], "initial condition 'D' is missing '='"),
    (["--init", "D + 1=1"], "left side of 'D + 1=1' must be a single derivative"),
    (["--init", "2*D=1"], "left side of '2*D=1' must have coefficient 1"),
    (["--point", "0, 1"], "expected 1 coordinate(s), got 2"),
    (["--point", "x"], "expected a constant, got 'x'"),
])
def test_solve_argument_errors_exit_2_with_their_message(tmp_path, capsys, argv, message):
    path = tmp_path / "osc.sys"
    path.write_text("vars: 1\nrow: D^2 + 1\n")
    assert main(["solve", str(path), "--order", "2"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_member_cross_check_disagreement_exits_2(euler_file, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_lemma1_decide", lambda q, basis: False)
    code = main(["member", euler_file, "--q", "D^3", "--cross-check"])
    captured = capsys.readouterr()
    assert code == 2
    doc = json.loads(captured.out)
    assert doc["member"] is True and doc["lemma1_member"] is False
    assert captured.err == "cross-check disagreement\n"


def test_syntax_error_in_row(tmp_path, capsys):
    path = tmp_path / "bad.sys"
    path.write_text("vars: 1\nrow: 2x\n")
    assert main(["riquier", str(path)]) == 2


DEEP = "(" * 300 + "D" + ")" * 300


@pytest.mark.parametrize("argv, row", [
    (["member", "{path}", "--q", DEEP], "D"),
    (["member", "{path}", "--q=" + "-" * 1200 + "(" * 101 + "D" + ")" * 101], "D"),
    (["riquier", "{path}"], DEEP),
], ids=["q", "signs-then-parentheses", "row"])
def test_deep_nesting_exits_2_with_a_positioned_message(tmp_path, capsys, argv, row):
    path = tmp_path / "deep.sys"
    path.write_text(f"vars: 1\nrow: {row}\n")
    assert main([arg.format(path=path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: parentheses nested more than 100 deep (at position")


def test_a_long_run_of_minus_signs_is_a_valid_candidate(tmp_path, capsys):
    path = tmp_path / "d.sys"
    path.write_text("vars: 1\nrow: D\n")
    code, doc = run(capsys, ["member", str(path), "--q=" + "-" * 1200 + "D"])
    assert code == 0 and doc["member"] is True


def test_complex_field_mode(tmp_path, capsys):
    path = tmp_path / "cplx.sys"
    path.write_text("field: complex\nvars: 1\nrow: D - i\n")
    code, doc = run(capsys, ["solve", str(path), "--point", "0",
                             "--init", "1=1", "--order", "2"])
    assert code == 0
    assert doc["derivative_values"]["u1"] == {"0": "1", "1": "i", "2": "-1"}


# -- values that start with '-' ----------------------------------------------

def test_values_that_start_with_a_dash_are_taken_as_with_an_equals_sign(euler_file, capsys):
    for argv in (["prop1", euler_file, "--point", "-1/2", "--s", "4"],
                 ["solve", euler_file, "--point", "-1/2", "--init", "1=1, D=0", "--order", "4"],
                 ["member", euler_file, "--q", "-D^2"],
                 ["verify-witness", euler_file, "--q", "D^3", "--w", "x^2", "--h", "-D"],
                 ["verify-witness", euler_file, "--q", "-D^3", "--w", "-x^2", "--h", "D"]):
        attached = []  # the same argv in the --opt=value form
        for arg in argv:
            if arg.startswith("-") and not arg.startswith("--"):
                attached[-1] += "=" + arg
            else:
                attached.append(arg)
        expected = run(capsys, attached)
        assert expected[0] in (0, 1)
        assert run(capsys, argv) == expected, argv


def test_a_dash_value_solves_the_euler_system_at_minus_one_half(euler_file, capsys):
    code, doc = run(capsys, ["prop1", euler_file, "--point", "-1/2", "--s", "4"])
    assert code == 0 and doc["nullity"] == 2 == doc["parametric_count"]
    code, doc = run(capsys, ["solve", euler_file, "--point", "-1/2",
                             "--init", "1=1, D=0", "--order", "4"])
    assert code == 0
    assert doc["derivative_values"]["u1"] == {"0": "1", "1": "0", "2": "-8", "3": "0", "4": "0"}
    code, doc = run(capsys, ["member", euler_file, "--q", "-D^2"])
    assert code == 1 and doc["member"] is False


@pytest.mark.parametrize("argv", [
    ["prop1", "{path}", "--point"],
    ["prop1", "{path}", "--point", "--s", "4"],
    ["member", "{path}", "--q", "--cross-check"],
    ["verify-witness", "{path}", "--w", "1", "--h"],
    ["solve", "{path}", "--order", "-h"],
])
def test_an_option_with_no_value_still_exits_2(euler_file, capsys, argv):
    with pytest.raises(SystemExit) as info:
        main([arg.format(path=euler_file) for arg in argv])
    assert info.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_every_option_that_takes_a_value_accepts_one_that_starts_with_a_dash():
    parser = cli.build_parser()
    subcommands = next(a for a in parser._actions if a.choices and a.dest == "command")
    valued = {option for p in [parser, *subcommands.choices.values()] for a in p._actions
              if a.nargs != 0 for option in a.option_strings}
    assert valued == cli._VALUE_OPTIONS
