"""End-to-end command-line runs against temporary system files."""

import json
import time

import pytest

from weylclosure import cli, systemio
from weylclosure.cli import main
from weylclosure.formatting import format_operator
from weylclosure.riquier import DerivationLog
from conftest import DIGIT_LIMIT

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


def test_member_cross_check_completes_once(euler_file, capsys, monkeypatch, fresh_completion):
    # the lemma1 path asks complete_to_riquier_basis again, and gets the basis
    # weyl_closure_member just made: each completion makes one derivation log
    calls = []
    init = DerivationLog.__init__

    def counting(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(DerivationLog, "__init__", counting)
    for q, member in (("D^3", True), ("D^2", False)):
        calls.clear()
        fresh_completion()
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


@pytest.mark.parametrize("command", ["solve", "prop1"])
def test_an_empty_point_is_rejected_not_picked(tmp_path, capsys, command):
    # an empty --point is a given point with an empty coordinate, not a
    # missing one: the command must not pick a point of its own
    path = tmp_path / "g.sys"
    path.write_text("vars: 1\nrow: D\n")
    code = main([command, str(path), "--point", ""])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: empty coordinate in point ''\n"


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
    # every call reads the one table of subcommands and options, which no call
    # changes, and no value (such as the --h list) leaks into the next call
    def table():
        return [(level, [(name, *(getattr(option, field) for field in option.__slots__))
                         for name, option in lookup.items()])
                for level, lookup in cli._LOOKUP.items()]

    before = table()
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
    assert table() == before


def test_the_commands_on_one_file_parse_it_once(euler_file, capsys, monkeypatch, fresh_load):
    parsed = []
    parse = systemio.parse_operator

    def spy(text, *args):
        parsed.append(text)
        return parse(text, *args)

    monkeypatch.setattr(systemio, "parse_operator", spy)
    calls = [["riquier", euler_file], ["prop1", euler_file, "--point", "1"],
             ["solve", euler_file, "--point", "1"],
             ["member", euler_file, "--q", "D^3", "--cross-check"],
             ["verify-witness", euler_file, "--q", "D^3", "--w", "x^2", "--h", "D"]]
    for argv in calls:
        assert main(argv) == 0
    capsys.readouterr()
    assert parsed == ["x^2*D^2 - 2*x*D + 2"]


def test_each_call_loads_its_system_file_once(euler_file, capsys, monkeypatch):
    loads = []
    load = cli.load_system

    def spy(path, *args):
        loads.append(path)
        return load(path, *args)

    monkeypatch.setattr(cli, "load_system", spy)
    calls = [["riquier", "{}"], ["prop1", "{}", "--point", "1"], ["solve", "{}", "--point", "1"],
             ["member", "{}", "--q", "D^3", "--cross-check"],
             ["verify-witness", "{}", "--q", "D^3", "--w", "x^2", "--h", "D"]]
    for argv in calls:
        loads.clear()
        assert main([arg.format(euler_file) for arg in argv]) == 0
        assert loads == [euler_file]
    capsys.readouterr()
    missing = "/nonexistent/file.sys"
    for argv in calls:
        loads.clear()
        assert main([arg.format(missing) for arg in argv]) == 2
        assert loads == [missing]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno 2] No such file or directory: '{missing}'\n"


# -- one parse per --q text: the last candidate is kept ---------------------------

@pytest.fixture
def q_parses(monkeypatch):
    """The texts cli hands to parse_operator (each --q and --h), in order."""
    seen = []
    parse = cli.parse_operator

    def spy(text, *args):
        seen.append(text)
        return parse(text, *args)

    monkeypatch.setattr(cli, "parse_operator", spy)
    return seen


def test_every_test_starts_with_no_kept_candidate():
    assert cli._last_q is None


def test_verify_witness_after_member_reuses_the_parsed_q(euler_file, capsys, q_parses):
    witness = ["verify-witness", euler_file, "--q", "D^3", "--w", "x^2", "--h", "D"]
    assert main(witness) == 0
    fresh = capsys.readouterr().out
    assert main(["member", euler_file, "--q", "D^3"]) == 0
    capsys.readouterr()
    kept = cli._last_q
    assert main(witness) == 0
    # a hit: the same system and text give the very same q, and only --h is parsed
    assert cli._last_q is kept and kept[0] is systemio._last[1]
    assert q_parses == ["D^3", "D", "D"]
    assert capsys.readouterr().out == fresh


def test_another_q_text_is_parsed_again(euler_file, capsys, q_parses):
    for text in ("D^3", "D^3 + 0", "D^3"):
        assert main(["member", euler_file, "--q", text]) == 0
    capsys.readouterr()
    # one entry: the same operator under another text, and then the first text, parse again
    assert q_parses == ["D^3", "D^3 + 0", "D^3"]
    assert cli._last_q[1] == "D^3"


def test_a_rewritten_file_parses_its_q_again(tmp_path, capsys, q_parses):
    path = tmp_path / "s.sys"
    path.write_text(EULER)
    assert run(capsys, ["member", str(path), "--q", "D1"])[1]["member"] is False
    first = cli._last_q
    path.write_text(GRADIENT)
    # the same text in two variables: the new system's q, a member of it
    assert run(capsys, ["member", str(path), "--q", "D1"])[1]["member"] is True
    assert q_parses == ["D1", "D1"] and cli._last_q[0] is not first[0]
    assert (first[2].m, cli._last_q[2].m) == (1, 2)


def test_a_file_rewritten_between_calls_is_read_again(tmp_path, capsys):
    path = tmp_path / "s.sys"
    path.write_text(EULER)
    assert run(capsys, ["riquier", str(path)])[1]["basis"] == ["D^2 - (2/x)*D + 2/x^2"]
    path.write_text(GRADIENT)
    assert run(capsys, ["riquier", str(path)])[1]["basis"] == ["D2", "D1"]
    path.write_text("vars: 1\nrow D\n")
    assert main(["riquier", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}:2: expected 'key: value'\n"


# -- input errors ----------------------------------------------------------

def test_a_file_that_starts_with_a_byte_order_mark_loads(tmp_path, capsys):
    marked, plain = tmp_path / "marked.sys", tmp_path / "plain.sys"
    marked.write_bytes(b"\xef\xbb\xbfvars: 1\nrow: D\n")
    plain.write_bytes(b"vars: 1\nrow: D\n")
    assert main(["riquier", str(marked)]) == 0
    printed = capsys.readouterr().out
    assert main(["riquier", str(plain)]) == 0
    assert printed == capsys.readouterr().out
    assert json.loads(printed)["basis"] == ["D"]


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


REFUSED = "a power whose work exceeds the limit of 1500000000 digit products"
PRODUCT_REFUSED = "a product whose work exceeds the limit of 1500000000 digit products"


@pytest.mark.parametrize("text, message", [
    # a one-variable value is a dense list: x^100000000 alone would take 800 MB
    ("vars: 1\nrow: x^100000000*D - 1\n", "exponent (100000000,) exceeds the limit of 100000"),
    # sympy's ring in m variables costs m^2: 20,000 ran out of memory
    ("vars: 20000\nrow: D1\n", "20000 variables, more than the limit of 1000"),
    # each power is refused by the meter on its squaring chain, before the product
    # that would pass the limit: (x + 1)^k costs about k^2 products of big integers,
    # and k = 100000 ran past 60 s
    ("vars: 1\nrow: (x + 1)^100000*D - 1\n", REFUSED),
    # 3^30000000 has 47.5 million bits: it took 37.6 s
    ("vars: 1\nrow: 3^30000000*D - 1\n", REFUSED),
    # (3*x)^3785578 is under the work bound: it spent 0.95 s on its coefficient
    ("vars: 1\nrow: (3*x)^3785578*D - 1\n", "exponent (3785578,) exceeds the limit of 100000"),
    # powers of operators: (x*D + x^2 + 1)^400 ran past 60 s in Leibniz products, and
    # (2*D + 1)^2000, a polynomial in D, took 67.5 s
    ("vars: 1\nrow: (x*D + x^2 + 1)^400\n", REFUSED),
    ("vars: 1\nrow: (x*D + 1)^100000\n", REFUSED),
    ("vars: 1\nrow: (2*D + 1)^2000\n", REFUSED),
    # an operator of sparse coefficients, whose sums pass over their dense length:
    # (x^900*D + 1)^80 ran 78 s, though no coefficient has more than 81 terms
    ("vars: 1\nrow: (x^900*D + 1)^80\n", REFUSED),
    # a Leibniz product is metered as a power's are: D^400*x^400 took 10 s, and the
    # work grows as the cube of the order
    ("vars: 1\nrow: D^400*x^400\n", PRODUCT_REFUSED),
    ("vars: 1\nrow: D^2000*x^2000\n", PRODUCT_REFUSED),
], ids=["exponent", "variables", "power", "digits", "power-exponent", "operator-power",
        "operator-exponent", "d-polynomial-power", "sparse-operator-power",
        "leibniz-product", "large-leibniz-product"])
def test_oversized_systems_exit_2_within_seconds(tmp_path, capsys, text, message):
    path = tmp_path / "big.sys"
    path.write_text(text)
    start = time.perf_counter()
    assert main(["riquier", str(path)]) == 2
    assert time.perf_counter() - start < 10
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_an_operator_power_under_the_meter_completes(tmp_path, capsys):
    # (x*D + 1)^100 was refused by the estimate that preceded the meter
    path = tmp_path / "power.sys"
    path.write_text("vars: 1\nrow: (x*D + 1)^100\n")
    start = time.perf_counter()
    assert main(["riquier", str(path)]) == 0
    assert time.perf_counter() - start < 10
    assert json.loads(capsys.readouterr().out)["s0"] == 100


@pytest.mark.skipif(not DIGIT_LIMIT, reason="the interpreter has no digit limit")
@pytest.mark.parametrize("key", ["vars", "unknowns", "s", "T"])
def test_an_integer_key_past_the_digit_limit_names_the_limit(tmp_path, capsys, key):
    digits = "7" * (DIGIT_LIMIT + 700)
    path = tmp_path / "big.sys"
    path.write_text(f"vars: {digits}\nrow: D\n" if key == "vars" else
                    f"vars: 1\n{key}: {digits}\nrow: D\n")
    assert main(["riquier", str(path)]) == 2
    captured = capsys.readouterr()
    line = 1 if key == "vars" else 2
    assert captured.out == "" and captured.err == (
        f"error: {path}:{line}: {key} has more than {DIGIT_LIMIT} digits, the interpreter's "
        "limit on integer string conversion (PYTHONINTMAXSTRDIGITS raises it)\n")


@pytest.mark.skipif(not 0 < DIGIT_LIMIT < 4772, reason="3^10000 prints within the digit limit")
def test_a_coefficient_past_the_digit_limit_exits_2_with_its_message(tmp_path, capsys):
    # the parser takes 3^10000, a power well within its work bound, but its 4,772
    # digits cannot be printed
    path = tmp_path / "big.sys"
    path.write_text("vars: 1\nrow: 3^10000*D - 1\n")
    assert main(["riquier", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        f"error: a number to print has more than {DIGIT_LIMIT} digits, the interpreter's "
        "limit on integer string conversion (PYTHONINTMAXSTRDIGITS raises it)\n")


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
    monkeypatch.setattr(cli, "membership_via_lemma1", lambda q, generators: False)
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


def test_every_option_that_takes_a_value_accepts_one_that_starts_with_a_dash(capsys):
    valued = set()
    for level, lookup in cli._LOOKUP.items():
        for option in {o for o in lookup.values() if o.kind != cli.FLAG}:
            valued.add(option.name)
            dash = "-1" if option.kind == cli.INT else "-1/2"
            argv = ([option.name, dash, "riquier", "f.sys"] if level is None
                    else [level, "f.sys", option.name, dash])
            if level == "verify-witness" and option.name != "--w":
                argv += ["--w", "1"]
            if option.choices:  # taken as the value, and refused as no choice
                with pytest.raises(SystemExit) as info:
                    cli.parse_argv(argv)
                assert info.value.code == 2
                assert f"invalid choice: '{dash}'" in capsys.readouterr().err
                continue
            value = getattr(cli.parse_argv(argv), option.dest)
            assert value == {cli.INT: -1, cli.REPEAT: [dash]}.get(option.kind, dash), argv
    assert valued == {"--field", "--s", "--q", "--point", "--init", "--order", "--w", "--h"}


@pytest.mark.parametrize("text, message", [
    # the second vars: line used to win, so this completed in two variables
    ("vars: 1\nvars: 2\nrow: D1\n", "2: duplicate key 'vars'"),
    ("vars: two\nrow: D\n", "1: vars must be an integer, got 'two'"),
])
def test_a_repeated_or_non_integer_key_exits_2_with_its_line(tmp_path, capsys, text, message):
    path = tmp_path / "bad.sys"
    path.write_text(text)
    assert main(["riquier", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {path}:{message}\n"
