"""Operator grammar, positioned parse errors, and the parse/format round trip."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from weylclosure import (
    Derivative,
    GaussianRational,
    InvalidInput,
    ParseError,
    format_operator,
    format_rational,
    parse_operator,
    parse_rational,
)
from weylclosure.systemio import load_system, parse_initial_conditions, parse_point
from conftest import random_operator


def op(text, m=1, n=1, field="real"):
    return parse_operator(text, m, n, field)


# -- grammar examples ------------------------------------------------------

def test_parse_polynomial_coefficients():
    p = op("x^2*D^2 - 2*x*D + 2")
    assert p.degree() == 2
    assert p.coefficient(Derivative(1, (0,))) == parse_rational("2", 1)


def test_parse_noncommutative_product():
    assert op("D*x") == op("x*D + 1")
    assert op("x*D") != op("D*x")


def test_parse_mandatory_star():
    with pytest.raises(ParseError):
        op("2x")


def test_parse_aliases_two_variables():
    assert op("Dx + Dy", 2) == op("D1 + D2", 2)
    assert op("x*y", 2) == op("x1*x2", 2)


def test_parse_d_is_d1_only_in_one_variable():
    assert op("D") == op("D1")
    with pytest.raises(ParseError):
        op("D", 2)


def test_parse_division_of_pure_functions():
    p = op("D^2 - (2/x)*D + 2/x^2")
    assert p.coefficient(Derivative(1, (1,))) == parse_rational("-2/x", 1)


def test_parse_division_by_operator_rejected():
    with pytest.raises(ParseError):
        op("1/D")
    with pytest.raises(ParseError):
        op("D/x")


def test_parse_component_tags():
    p = op("D^2 [u1] + x [u2]", 1, 2)
    assert p.coefficient(Derivative(1, (2,))) == parse_rational("1", 1)
    assert p.coefficient(Derivative(2, (0,))) == parse_rational("x", 1)


def test_parse_tag_out_of_range():
    with pytest.raises(ParseError):
        op("D [u3]", 1, 2)


def test_parse_imaginary_unit_needs_complex_field():
    p = op("i*D", field="complex")
    assert p.coefficient(Derivative(1, (1,))) == GaussianRational(0, 1)
    with pytest.raises(ParseError):
        op("i*D")


def test_parse_nonpositive_exponent_rejected():
    with pytest.raises(ParseError):
        op("x^0")


def test_parse_fractional_constant():
    p = op("x^2*D^2 - x*D + 3/4")
    assert p.coefficient(Derivative(1, (0,))) == parse_rational("3/4", 1)


def test_parse_parenthesized_operator_product():
    assert op("(-D + x)*(D + x)") == op("-D^2 + x^2 - 1")


def test_parse_unary_minus_and_powers():
    assert op("-x^2") == op("0 - x^2")
    assert op("(-x)^2") == op("x^2")


# -- positioned errors -----------------------------------------------------

def test_error_position_unexpected_character():
    with pytest.raises(ParseError) as e:
        op("x + $")
    assert e.value.position == 4


def test_error_position_unbalanced_paren():
    with pytest.raises(ParseError):
        op("(x + 1")


def test_error_unknown_name():
    with pytest.raises(ParseError):
        op("x2", 1)
    with pytest.raises(ParseError):
        op("foo")


def test_error_empty_input():
    with pytest.raises(ParseError):
        op("")


def test_error_trailing_garbage():
    with pytest.raises(ParseError):
        op("x + ")
    with pytest.raises(ParseError):
        op("x )")


# -- round trip ------------------------------------------------------------

CORPUS = [
    ("x^2*D^2 - 2*x*D + 2", 1, 1),
    ("D^2 - (2/x)*D + 2/x^2", 1, 1),
    ("D^3", 1, 1),
    ("-D^2 + x^2 - 1", 1, 1),
    ("D1*D2 - x2*D1", 2, 1),
    ("D^2 [u1] + x [u2]", 1, 2),
    ("0", 1, 1),
    ("3/4", 1, 1),
]


def test_round_trip_on_corpus():
    for text, m, n in CORPUS:
        p = op(text, m, n)
        assert parse_operator(format_operator(p), m, n) == p


def test_round_trip_randomized(rng):
    for _ in range(150):
        m = rng.randint(1, 3)
        n = rng.randint(1, 2)
        p = random_operator(rng, m, n, order=3, degree=2,
                            polynomial_coeffs=bool(rng.randint(0, 1)))
        assert parse_operator(format_operator(p), m, n) == p


def test_round_trip_rational_functions(rng):
    from conftest import random_rational
    for _ in range(100):
        m = rng.randint(1, 2)
        r = random_rational(rng, m)
        assert parse_rational(format_rational(r), m) == r


@settings(deadline=None, max_examples=300)
@given(st.text(alphabet="xD12i+-*/^()[]u ", max_size=25),
       st.integers(1, 2), st.integers(1, 2))
def test_fuzzed_inputs_never_crash(text, m, n):
    try:
        parse_operator(text, m, n)
    except ParseError:
        pass


# -- system-file values ----------------------------------------------------

def test_initial_conditions_parse_each_derivative_once():
    init = parse_initial_conditions("1=1, D=2", 1, 1, "real")
    assert init == {Derivative(1, (0,)): 1, Derivative(1, (1,)): 2}


@pytest.mark.parametrize("text", ["1=1, 1=5", "1=1, D=2, 1*1=7"])
def test_repeated_initial_value_is_rejected(text):
    with pytest.raises(InvalidInput, match=r"^initial value given twice for 1$"):
        parse_initial_conditions(text, 1, 1, "real")


def test_repeated_initial_value_names_the_derivative():
    with pytest.raises(InvalidInput, match=r"^initial value given twice for D1\*D2 \[u2\]$"):
        parse_initial_conditions("D1*D2 [u2]=1, D2*D1 [u2]=3", 2, 2, "real")


@pytest.mark.parametrize("text", ["1,,2", ",1", "1,", " , 2"])
def test_point_with_an_empty_coordinate_is_rejected(text):
    with pytest.raises(InvalidInput, match="empty coordinate"):
        parse_point(text, 2, "real")


def test_point_parses_exact_coordinates():
    assert parse_point("1/2, 1 + i", 2, "complex") == (Fraction(1, 2), GaussianRational(1, 1))


def test_point_line_with_an_empty_coordinate_is_rejected(tmp_path):
    path = tmp_path / "g.sys"
    path.write_text("vars: 2\nrow: D1\npoint: 1,,2\n")
    with pytest.raises(InvalidInput, match=r"^empty coordinate in point '1,,2'$"):
        load_system(str(path))
