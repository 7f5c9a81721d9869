"""Operator grammar, positioned parse errors, and the parse/format round trip."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from weylclosure import (
    Derivative,
    GaussianRational,
    InvalidInput,
    OperatorVector,
    ParseError,
    Polynomial,
    RationalFunction,
    format_operator,
    format_rational,
    parse_operator,
    parse_rational,
    scalar_operator_product,
)
from weylclosure import parsing
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
    with pytest.raises(ParseError, match="without derivations"):
        parse_rational("D", 1)


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
    with pytest.raises(ParseError, match="unknown field mode 'quaternion'"):
        op("x", field="quaternion")


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



def weyl(terms, m=1):
    """The scalar operator sum c * x^e * D^alpha over terms {alpha: {e: c}}."""
    return OperatorVector({Derivative(1, alpha): RationalFunction(Polynomial(coeffs, m))
                           for alpha, coeffs in terms.items()}, m, 1)


@pytest.mark.parametrize("text, m, expected", [
    ("D^2000", 1, weyl({(2000,): {(0,): 1}})),
    ("x^2000", 1, weyl({(0,): {(2000,): 1}})),
    ("D1^3*D2^5", 2, weyl({(3, 5): {(0, 0): 1}}, 2)),
])
def test_high_powers_parse_to_the_derivative_or_monomial_they_name(text, m, expected):
    start = time.perf_counter()
    parsed = op(text, m)
    assert time.perf_counter() - start < 1
    assert parsed == expected


def test_powers_and_products_with_a_derivation_on_the_left_are_weyl_products():
    # (D + x)^3 = D^3 + 3x D^2 + (3x^2 + 3) D + x^3 + 3x, and D x^2 = x^2 D + 2x
    assert op("(D + x)^3") == weyl({(3,): {(0,): 1}, (2,): {(1,): 3},
                                   (1,): {(2,): 3, (0,): 3}, (0,): {(3,): 1, (1,): 3}})
    assert op("D*x^2") == weyl({(1,): {(2,): 1}, (0,): {(1,): 2}})
    # a constant times a derivation commutes with it: (c*D)^k = c^k * D^k
    assert op("(-D)^2") == op("D^2")
    assert op("(1/2*D1*D2)^3", 2) == weyl({(3, 3): {(0, 0): Fraction(1, 8)}}, 2)
    assert op("(i*D)^3", field="complex") == op("-i*D^3", field="complex")
    d_plus_x = weyl({(1,): {(0,): 1}, (0,): {(1,): 1}})
    assert op("(D + x)^3") == scalar_operator_product(
        d_plus_x, scalar_operator_product(d_plus_x, d_plus_x))


# -- the parser against the library's own arithmetic --------------------------
#
# Random expression trees are rendered to text with as few parentheses as the
# grammar allows, and evaluated with scalar_operator_product, +/- on
# OperatorVector and RationalFunction division; the parser must agree.

class Refused(Exception):
    """The ParseError message the parser must raise for a tree."""


# binding strength of each node: sums, products, unary minus, powers, leaves
_LEVEL = {"+": 0, "-": 0, "*": 1, "/": 1, "neg": 2, "^": 3}


def _render(tree, level, m):
    kind = tree[0]
    if kind == "num":
        text = str(tree[1])
    elif kind == "i":
        text = "i"
    elif kind in ("x", "D"):
        _, index, alias = tree
        if m == 1:
            text = {"x": ["x1", "x"], "D": ["D1", "D", "Dx"]}[kind][alias % (2 + (kind == "D"))]
        else:
            text = (f"{kind}{index}" if alias % 2 else
                    {"x": ["x", "y"], "D": ["Dx", "Dy"]}[kind][index - 1])
    elif kind == "neg":
        text = "-" + _render(tree[1], 2, m)
    elif kind == "^":
        text = f"{_render(tree[1], 4, m)}^{tree[2]}"
    else:
        left, right = tree[1], tree[2]
        text = f"{_render(left, _LEVEL[kind], m)} {kind} {_render(right, _LEVEL[kind] + 1, m)}"
    return f"({text})" if _LEVEL.get(kind, 4) < level else text


def _has_derivation(tree):
    return tree[0] == "D" or any(isinstance(t, tuple) and _has_derivation(t) for t in tree[1:])


def _evaluate(tree, m):
    """The operator of a tree by the library's arithmetic, with n = 1."""
    kind = tree[0]
    if kind == "num":
        return OperatorVector.scalar_function(RationalFunction.constant(tree[1], m), m)
    if kind == "i":
        return OperatorVector.scalar_function(
            RationalFunction.constant(GaussianRational(0, 1), m), m)
    if kind == "x":
        return OperatorVector.scalar_function(
            RationalFunction(Polynomial.variable(tree[1], m)), m)
    if kind == "D":
        alpha = tuple(1 if j == tree[1] else 0 for j in range(1, m + 1))
        return OperatorVector.from_derivative(Derivative(1, alpha), m, 1)
    if kind == "neg":
        return -_evaluate(tree[1], m)
    if kind == "^":
        base = _evaluate(tree[1], m)
        result = base
        for _ in range(tree[2] - 1):
            result = scalar_operator_product(base, result)
        return result
    left, right = _evaluate(tree[1], m), _evaluate(tree[2], m)
    if kind == "+":
        return left + right
    if kind == "-":
        return left - right
    if kind == "*":
        return scalar_operator_product(left, right)
    if _has_derivation(tree[1]) or _has_derivation(tree[2]):
        raise Refused("division is only defined between functions")
    if right.is_zero():
        raise Refused("division by zero")
    one = Derivative(1, (0,) * m)
    return OperatorVector.scalar_function(left.coefficient(one) / right.coefficient(one), m)


def _trees(m, complex_mode):
    leaves = [st.tuples(st.just("num"), st.integers(0, 4)),
              st.tuples(st.sampled_from(["x", "D"]), st.integers(1, m), st.integers(0, 5))]
    if complex_mode:
        leaves.append(st.just(("i",)))
    return st.recursive(st.one_of(leaves), lambda sub: st.one_of(
        st.tuples(st.sampled_from(["+", "-", "*", "*", "*", "/", "/"]), sub, sub),
        st.tuples(st.just("neg"), sub),
        st.tuples(st.just("^"), sub, st.integers(1, 3)),
    ), max_leaves=7)


@st.composite
def rows(draw):
    """(text, m, n, field, pieces): a row of signed, tagged expression trees."""
    m, n = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    field = draw(st.sampled_from(["real", "complex"]))
    count = draw(st.integers(1, 3)) if n > 1 else 1
    pieces = [(draw(_trees(m, field == "complex")), draw(st.integers(1, n)),
               draw(st.booleans()) and k > 0) for k in range(count)]
    text = ""
    for k, (tree, component, negative) in enumerate(pieces):
        if k:
            text += " - " if negative else " + "
        text += _render(tree, 0, m)
        if n > 1 or draw(st.booleans()):
            text += f" [u{component}]"
    return text, m, n, field, pieces


@settings(deadline=None, max_examples=250)
@given(rows())
def test_parser_agrees_with_the_library_arithmetic(row):
    text, m, n, field, pieces = row
    try:
        expected = OperatorVector.zero(m, n)
        for tree, component, negative in pieces:
            value = _evaluate(tree, m)
            embedded = OperatorVector({Derivative(component, d.alpha): c
                                       for d, c in value.terms.items()}, m, n)
            expected = expected - embedded if negative else expected + embedded
    except Refused as refused:
        with pytest.raises(ParseError, match=rf"^{refused} \(at position \d+\)$"):
            parse_operator(text, m, n, field)
        return
    assert parse_operator(text, m, n, field) == expected


def test_oracle_rendering_examples():
    x, d = ("x", 1, 1), ("D", 1, 1)
    tree = ("*", ("neg", ("^", ("+", d, x), 2)), ("/", ("num", 1), ("-", x, ("num", 2))))
    assert _render(tree, 0, 1) == "-(D + x)^2 * (1 / (x - 2))"
    assert _render(("-", x, ("-", x, d)), 0, 1) == "x - (x - D)"
    assert _render(("^", ("neg", x), 3), 0, 2) == "(-x1)^3"


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


@pytest.mark.parametrize("parse", [
    lambda text: op(text),
    lambda text: parse_rational(text, 1),
], ids=["operator", "rational"])
def test_nesting_beyond_the_limit_is_a_positioned_parse_error(parse):
    # 300 levels would overflow an unbounded recursive descent (RecursionError)
    limit = parsing._MAX_NESTING
    assert parse("(" * limit + "x" + ")" * limit) == parse("x")
    for depth in (limit + 1, 300, 5000):
        with pytest.raises(ParseError, match=f"nested more than {limit} deep") as e:
            parse("(" * depth + "x" + ")" * depth)
        assert e.value.position == limit
    # the limit counts open parentheses only: closed ones free their level
    wide = "+".join(["(" * limit + "x" + ")" * limit] * 3)
    assert parse(wide) == parse("3*x")


def test_a_run_of_minus_signs_parses_without_recursion():
    # a sign per recursion would overflow the recursive descent at 1,200 signs
    assert op("-" * 1200 + "D") == op("D")
    assert op("-" * 1201 + "D") == op("-D")
    assert op("x*" + "-" * 5001 + "x^2") == op("-x^3")
    assert op("(" + "-" * 3 + "(x + 1))^2") == op("(x + 1)^2")


def test_error_empty_input():
    with pytest.raises(ParseError):
        op("")


def test_error_trailing_garbage():
    with pytest.raises(ParseError):
        op("x + ")
    with pytest.raises(ParseError):
        op("x )")
    with pytest.raises(ParseError, match="trailing input"):
        parse_rational("x)", 1)


# -- round trip ------------------------------------------------------------

CORPUS = [
    ("x^2*D^2 - 2*x*D + 2", 1, 1, "real"),
    ("D^2 - (2/x)*D + 2/x^2", 1, 1, "real"),
    ("D^3", 1, 1, "real"),
    ("-D^2 + x^2 - 1", 1, 1, "real"),
    ("D1*D2 - x2*D1", 2, 1, "real"),
    ("D^2 [u1] + x [u2]", 1, 2, "real"),
    ("0", 1, 1, "real"),
    ("3/4", 1, 1, "real"),
    # Gaussian coefficients: -i, k*i and a - b*i, a negative imaginary
    # coefficient and a parenthesized one on a monomial
    ("(1 + i)*x^2*D - i*x + (2 - 3*i)", 1, 1, "complex"),
    ("-i*D^2 + (-1/2*i)*x", 1, 1, "complex"),
    ("((x + i)/(x - i))*D - i", 1, 1, "complex"),
    ("(-i*x)/(x + 1)", 1, 1, "complex"),
]


def test_round_trip_on_corpus():
    for text, m, n, field in CORPUS:
        p = op(text, m, n, field)
        assert parse_operator(format_operator(p), m, n, field) == p


def test_a_polynomial_order_0_coefficient_prints_without_parentheses():
    # a summand of its own, in a scalar row and in one component of a vector row
    assert format_operator(op("D^2 + (-x^2 + 1)")) == "D^2 - x^2 + 1"
    assert format_operator(op("x - 1")) == "x - 1"
    vector = op("(-1/2*x^2 + 3*x) [u1] + 6*x^2*D^2 [u2]", 1, 2)
    assert format_operator(vector) == "(-1/2*x^2 + 3*x) [u1] + 6*x^2*D^2 [u2]"
    # a coefficient that multiplies a derivative keeps its parentheses
    assert format_operator(op("(x + 1)*D + x^2 + 1")) == "(x + 1)*D + x^2 + 1"

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
