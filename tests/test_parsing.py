"""Operator grammar, positioned parse errors, and the parse/format round trip."""

import math
import time
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import ZZ, ZZ_I

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
    format_scalar,
    parse_operator,
    parse_rational,
    scalar_operator_product,
)
from weylclosure import parsing, polynomials, systemio
from weylclosure.formatting import format_derivative
from weylclosure.polynomials import (_CALL_WORK, _ENTRY_WORK, _SYMPY_PASS, _TERM_WORK,
                                     MAX_EXPONENT, MAX_POWER_WORK, CoefficientList, _cost,
                                     _meter, _power, _size)
from weylclosure.systemio import (load_system, parse_initial_conditions, parse_point,
                                  parse_scalar_value)
from conftest import DIGIT_LIMIT, random_operator, returns_within


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
    # an order of D has no MAX_EXPONENT, which bounds the degree in x only: a power
    # of one term in D is its order times k, with the k-th power of its scalar
    ("D^200000", 1, weyl({(200000,): {(0,): 1}})),
    ("(2*D2^2)^50001", 2, weyl({(0, 100002): {(0, 0): 2 ** 50001}}, 2)),
])
def test_high_powers_parse_to_the_derivative_or_monomial_they_name(text, m, expected):
    start = time.perf_counter()
    parsed = op(text, m)
    assert time.perf_counter() - start < 1
    assert parsed == expected


@pytest.mark.parametrize("base, k, field", [
    ("1/x", 2, "real"),
    ("(x + 1)/(x - 1)", 3, "real"),
    ("1/(x + i)", 2, "complex"),
])
def test_a_power_of_a_rational_function_is_its_parsed_base_raised(base, k, field):
    assert parse_rational(f"({base})^{k}", 1, field) == parse_rational(base, 1, field) ** k


def test_a_power_of_a_rational_coefficient_in_a_row_survives_the_round_trip():
    p = op("(1/x1)^2*D2 - x2", 2)
    expected = OperatorVector({Derivative(1, (0, 1)): parse_rational("1/x1", 2) ** 2,
                               Derivative(1, (0, 0)): -parse_rational("x2", 2)}, 2, 1)
    assert p == expected
    assert op(format_operator(p), 2) == p


SUM_53 = " + ".join(f"x{j}" for j in range(1, 54))
SUM_2666 = "1 + x + " + " + ".join(f"x^{e}" for e in range(2, 2666))
REFUSED = f"a power whose work exceeds the limit of {MAX_POWER_WORK} digit products"


def test_the_charge_of_a_power_is_the_kernel_on_each_product_of_its_chain():
    assert (_TERM_WORK, _ENTRY_WORK, _CALL_WORK) == (150, 60, 30_000)
    charges = []

    def charge(a, b):
        charges.append(_cost(_size(a), _size(b), 1))

    # 3^4 squares 3 and 9: two products of one term of one digit by one, each
    # 150 + 60 + 1 for the pair of terms in one variable and their digit product,
    # and 150 + 60 + 2 for each of the two entries of length one
    assert _size(3) == (1, 1, 1)
    assert _power(3, 4, mul, charge) == 81 and charges == [635, 635]
    # 3^5 multiplies 3 by 3^4 as well
    charges.clear()
    assert _power(3, 5, mul, charge) == 243 and charges == [635] * 3
    # (x + 1)^2 is one product of two terms by two, of dense length two each
    charges.clear()
    assert _power(CoefficientList([1, 1]), 2, mul, charge) == CoefficientList([1, 2, 1])
    assert charges == [4 * 211 + 4 * 212]
    # a Gaussian scalar counts its two parts as two terms: (3 + i)^2 = 8 + 6i
    charges.clear()
    assert _power(ZZ_I(3, 1), 2, mul, charge) == ZZ_I(8, 6) and charges == [1692]
    # the digit products: a coefficient of 2^100 has four digits of 30 bits; two of
    # 140 digits take Karatsuba's three products of 70; 10 by 35 digits, four pieces
    assert _size(2 ** 100) == (1, 1, 4)
    assert _cost((1, 1, 4), (1, 1, 4), 1) == 210 + 16 + 2 * 218
    assert _cost((1, 1, 140), (1, 1, 140), 1) == 210 + 3 * 70 * 70 + 2 * 490
    assert _cost((1, 1, 10), (1, 1, 35), 1) == 210 + 4 * 10 * 10 + 2 * 255
    # a pair of terms costs 60 more for each exponent entry it adds
    assert _cost((2, 2, 1), (3, 3, 1), 4) == 6 * (150 + 4 * 60 + 1) + 5 * 212
    # a sparse list is two terms of dense length 901, each entry of which a sum or a
    # derivative passes over; a rational function counts its numerator, its
    # denominator, twice unless it is 1, and its content: 3*x^2 / (x + 1) is 1 + 2 * 2
    # terms of length 3 + 2
    assert _size(CoefficientList([1] + [0] * 899 + [1])) == (2, 901, 1)
    assert _size(parse_rational("3*x^2/(x + 1)", 1)) == (5, 5, 1)
    # in a rational function, a pass over a sympy element costs 6 entries a term,
    # and over a Gaussian one 150 a part: x1*x2 - 2^40 over 1 is 2 + 1 terms, of 2
    # digits, and x1 + i over 1 four parts over two
    assert _SYMPY_PASS == {ZZ: 6, ZZ_I: 150}
    assert _size(parse_rational("x1*x2 - 2^40", 2)) == (3, 6 * 3, 2)
    assert _size(parse_rational("x1 + i", 2, "complex")) == (6, 150 * 6, 1)
    assert _size(parse_rational("x1 + i", 2, "complex")._a) == (4, 4, 1)


def test_the_meter_refuses_a_power_before_the_product_that_passes_the_limit(monkeypatch):
    # 3^4 is raised as c^4 * a^4 / b^4 with c = 3 and a = b = 1: three chains of two
    # products of one term by one, 6 * 635 against one sum
    monkeypatch.setattr(polynomials, "MAX_POWER_WORK", 6 * 635)
    assert op("3^4") == op("81")
    monkeypatch.setattr(polynomials, "MAX_POWER_WORK", 6 * 635 - 1)
    with pytest.raises(InvalidInput, match="^a power whose work exceeds the limit of 3809 "):
        op("3^4")
    products = []

    def times(a, b):
        products.append((a, b))
        return a * b

    # at one product's worth the second passes the limit, so it is not made
    monkeypatch.setattr(polynomials, "MAX_POWER_WORK", 635)
    with pytest.raises(InvalidInput):
        _power(3, 4, times, _meter(1))
    assert products == [(3, 3)]


def test_the_leibniz_product_charges_each_derivative_and_product_of_its_coefficients(
        monkeypatch):
    # a product of rational functions costs _CALL_WORK more than the kernel's, for
    # its normalisation and the sums around it
    x = parse_rational("x", 1)
    work = _cost(_size(1), _size(x), 1) + _CALL_WORK
    monkeypatch.setattr(polynomials, "MAX_POWER_WORK", work)
    _meter(1)(1, x)
    monkeypatch.setattr(polynomials, "MAX_POWER_WORK", work - 1)
    with pytest.raises(InvalidInput):
        _meter(1)(1, x)
    charges = []
    h, p = op("x*D + 1"), op("x^2*D")
    # D*p = x^2*D^2 + 2*x*D: one derivative of p's one coefficient, then x times the
    # two coefficients of D*p and 1 times the one of p
    product = scalar_operator_product(h, p, lambda f, c: charges.append((f, c)))
    assert product == op("x^3*D^2 + 2*x^2*D + x^2*D") == scalar_operator_product(h, p)
    x2 = parse_rational("x^2", 1)
    assert charges == [(1, x2), (x, 2 * x), (x, x2), (1, x2)]


# One bound, ``MAX_POWER_WORK`` digit products, for every power: the meter of
# ``polynomials._power`` charges each product of the squaring chain, or of an
# operator's Leibniz products each product and derivative of coefficients, at the
# cost of its operands, before it is made.  Each case is the smallest power of its
# kind that is refused: the largest one under the bound is parsed below.
@pytest.mark.parametrize("text, m", [
    ("(x + 1)^100000*D - 1", 1),
    ("(x + 1)^1809", 1),
    ("(x1 + x2 + 1)^136", 2),
    ("((x + 1)/x)^1809", 1),
    # the denominator (x + 1)^2 counts too
    ("(x/(x + 1)^2)^905", 1),
    # a square is one product of f with itself, and a cube f times f^2
    (f"({SUM_2666})^2", 1),
    ("(" + " + ".join(f"x{j}" for j in range(1, 84)) + ")^3", 83),
    ("(" + " + ".join(f"x{j}" for j in range(1, 101)) + ")^3", 100),
    # an operator whose coefficients are sparse: each sum and derivative of the
    # Leibniz products passes over their dense length, 900 * j for x^(900*j)
    ("(x^900*D + 1)^23", 1),
    # a square whose Leibniz product takes 5000 derivatives of one shift after
    # another: each is charged before it is taken
    ("(x^5000*D^5000 + 1)^2", 1),
])
def test_a_power_past_the_product_bound_is_refused_before_it_is_multiplied(text, m):
    with returns_within(10):
        with pytest.raises(InvalidInput) as info:
            op(text, m)
    assert str(info.value) == REFUSED


def test_the_largest_powers_under_the_product_bound_parse():
    assert MAX_POWER_WORK == 1_500_000_000
    with returns_within(30):
        p = op("(x + 1)^1808*D - 1")
        q = op("(x1 + x2 + 1)^135", 2)
        r = op(f"({SUM_2666[:-9]})^2")  # the square of 1 + x + ... + x^2664
        cube = op("(" + " + ".join(f"x{j}" for j in range(1, 83)) + ")^3", 82)
        sparse = op("(x^900*D + 1)^22")
    assert sparse.coefficient(Derivative(1, (22,))) == parse_rational("x^19800", 1)
    assert q.coefficient(Derivative(1, (0, 0))).num.terms[(0, 135)] == 1
    # (x + 1)^1808 has 1809 terms, the binomial coefficients
    terms = p.coefficient(Derivative(1, (1,))).num.terms
    assert len(terms) == 1809 and terms[(904,)] == math.comb(1808, 904)
    assert r.coefficient(Derivative(1, (0,))).num.terms[(2664,)] == 2665
    # the cube of 82 terms has C(84, 3) of them, x1*x2*x3 with the coefficient 3!
    terms = cube.coefficient(Derivative(1, (0,) * 82)).num.terms
    assert len(terms) == math.comb(84, 3) and terms[(1, 1, 1) + (0,) * 79] == 6


# Powers of operators are Leibniz products under the same meter: the powers below
# were refused by the estimate that preceded it, and parse in about a second
@pytest.mark.parametrize("base, k, leading", [
    ("x*D + 1", 100, "x^100"),
    ("x*D + x^2 + 1", 100, "x^100"),
    ("x^3*D + 7", 100, "x^300"),
    ("(1/(x + 1))*D + 1", 40, "1/(x + 1)^40"),
])
def test_an_operator_power_is_its_halves_multiplied(base, k, leading):
    with returns_within(10):
        power = op(f"({base})^{k}")
    half = f"({base})^{k // 2}"
    assert power == op(f"{half}*{half}")
    # the highest derivative D^k takes the k-th power of the coefficient of D
    assert power.coefficient(Derivative(1, (k,))) == parse_rational(leading, 1)


# The coefficients of f^j have j times as many digits as f's, and their products
# cost CPython's digit products.
@pytest.mark.parametrize("text, m, field, message", [
    ("3^30000000*D - 1", 1, "real", REFUSED),
    ("3^5080069", 1, "real", REFUSED),
    ("3^5084914", 1, "real", REFUSED),
    ("3^5084916", 1, "real", REFUSED),
    ("(1/3)^5084914", 1, "real", REFUSED),
    ("(1/3)^5084916", 1, "real", REFUSED),
    # x^k has degree k: the exponent bound speaks before the digits
    ("(3*x)^3785579*D", 1, "real", "exponent (3785579,) exceeds the limit of 100000"),
    ("(x1 + 3^100000*x2)^9", 2, "real", REFUSED),
    ("(x1 + 3^100000*x2)^38", 2, "real", REFUSED),
    ("(x/(3^100000*x + 1))^9", 1, "real", REFUSED),
    ("((1 + 3*i)*x)^3785579", 1, "complex", "exponent (3785579,) exceeds the limit of 100000"),
    ("(3^100000)^65", 1, "real", REFUSED),
    ("(3^100000)^100000", 1, "real", REFUSED),
])
def test_a_power_past_the_digit_bound_is_refused_before_it_is_multiplied(text, m, field, message):
    with returns_within(10):
        with pytest.raises(InvalidInput) as info:
            op(text, m, 1, field)
    assert str(info.value) == message


# f^k has k times the degree of f in each variable, so a power past
# MAX_EXPONENT is refused before it is multiplied: (3*x)^3785578, under the
# work bound, took 0.95 s to build its 6-million-bit coefficient first
@pytest.mark.parametrize("text, m, exponent", [
    ("(3*x)^3785578", 1, "(3785578,)"),
    ("(3*x)^3785578*D - 1", 1, "(3785578,)"),
    ("(2*x)^100001", 1, "(100001,)"),
    ("(x1*x2^2)^50001", 2, "(50001, 100002)"),
    ("(1/x)^100001", 1, "(100001,)"),
    # a sum: the term of the largest degree, whose k-th power f^k has
    ("(x^50000 + 1)^3", 1, "(150000,)"),
    # an operator: the Leibniz rule lowers the degree in x, never raises it
    ("(x^50000*D + 1)^3", 1, "(150000,)"),
])
def test_a_power_past_the_exponent_bound_is_refused_before_it_is_multiplied(text, m, exponent):
    start = time.perf_counter()
    with pytest.raises(InvalidInput) as info:
        op(text, m)
    assert time.perf_counter() - start < 0.1
    assert str(info.value) == f"exponent {exponent} exceeds the limit of {MAX_EXPONENT}"


def test_the_largest_constant_power_under_the_digit_bound_parses():
    with returns_within(30):
        c = op("3^5080068").coefficient(Derivative(1, (0,))).num.terms[(0,)]
        assert c == 3 ** 5080068
        # a coefficient of 1 adds no digits: the exponent bound speaks first
        with pytest.raises(InvalidInput, match=r"^exponent \(100000000,\) exceeds the limit"):
            op("x^100000000*D - 1")


def test_an_exponent_of_hundreds_of_digits_is_refused_or_cheap():
    # the meter charges the digits 3^j has, never a float of k
    with returns_within(10):
        with pytest.raises(InvalidInput, match="^a power whose work exceeds the limit"):
            op("3^" + "1" * 400)
        # a unit raised to any power is itself, after one squaring per bit of k
        assert op("(-1)^" + "1" * 4000) == op("-1")
        assert op("i^" + "2" * 4000, field="complex") == op("-1")
        assert op("(D1 + D2)^1", 2) == op("D1 + D2", 2)


def test_a_fractional_base_costs_what_an_integer_one_does():
    # (x + 1/2)^1412 is raised as (2*x + 1)^1412 / 2^1412 over the integers, the
    # numerator and content of its RationalFunction: as a power of Fractions it took
    # 15 times as long as (x + 1)^1412.  It is timed against that integer base, whose
    # coefficients C(k, i) * 2^i are as large as its numerator's: against x + 1, whose
    # C(k, i) have about 1.6 times fewer bits, it takes about twice as long, in digit
    # products alone
    fastest = {}
    with returns_within(30):
        for base in ["2*x + 1", "x + 1/2"] * 2:
            start = time.perf_counter()
            op(f"({base})^1412")
            elapsed = time.perf_counter() - start
            fastest[base] = min(fastest.get(base, elapsed), elapsed)
    assert fastest["x + 1/2"] < 1.5 * fastest["2*x + 1"]
    # and on its own: about 0.5 s (2 vCPUs), a power of Fractions 15 times as long
    assert fastest["x + 1/2"] < 2


def test_a_power_of_few_products_parses_however_many_terms_it_has():
    with returns_within(30):
        # a first power multiplies nothing
        assert op(f"({SUM_2666})^1") == op(SUM_2666)
        # the square of 53 terms is 53^2 products; its 1431 terms pass no bound
        square = op(f"({SUM_53})^2", 53).coefficient(Derivative(1, (0,) * 53)).num.terms
    assert len(square) == math.comb(54, 2) and square[(1, 1) + (0,) * 51] == 2


# a function, or a polynomial in D with constant coefficients, raised in one
# commutative power; an operator with a function in it by Leibniz products
REPEATED = [
    ("x + 1/2", 5, "real", 1), ("x/3 - 2/5", 4, "real", 1), ("1/2", 3, "real", 1),
    ("x/2 + i/3", 3, "complex", 1), ("(1 + i)/2*x - 1/3", 4, "complex", 1),
    ("D + 1/2", 5, "real", 1), ("2*D1 - D2 + 3", 4, "real", 2), ("i*D + 1", 3, "complex", 1),
    ("x*D + x^2/2 + 1", 4, "real", 1), ("x1*D2 - i*D1", 3, "complex", 2),
]


@pytest.mark.parametrize("base, k, field, m", REPEATED,
                         ids=[f"{base}-{k}-{field}" for base, k, field, _ in REPEATED])
def test_a_power_of_a_function_with_fractions_is_the_repeated_product(base, k, field, m):
    assert op(f"({base})^{k}", m, field=field) == op("*".join([f"({base})"] * k), m, field=field)


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


def test_a_leibniz_product_past_the_product_bound_is_refused():
    # a product is metered as a power's Leibniz products are: D^400*x^400 took 10 s
    # unmetered, with work growing as the cube of the order
    for text in ("D^400*x^400", "D^2000*x^2000"):
        with returns_within(10):
            with pytest.raises(InvalidInput) as info:
                op(text)
        assert str(info.value) == REFUSED.replace("a power", "a product")
    # a product under the bound is the library's Leibniz product
    assert op("D^3*x^3") == scalar_operator_product(op("D^3"), op("x^3"))


def test_polynomials_in_d_with_constant_coefficients_multiply_commutatively():
    # D1^100001*D2^100001 took 100,001 Leibniz steps; (D1*D2)^100001 was refused
    with returns_within(1):
        assert op("D1^100001*D2^100001", 2) == weyl({(100001, 100001): {(0, 0): 1}}, 2)
        assert op("(D1*D2)^100001", 2) == weyl({(100001, 100001): {(0, 0): 1}}, 2)
    assert op("(2*D1 + 1)*(D2 - 1/3)", 2) == weyl(
        {(1, 1): {(0, 0): 2}, (1, 0): {(0, 0): Fraction(-2, 3)}, (0, 1): {(0, 0): 1},
         (0, 0): {(0, 0): Fraction(-1, 3)}}, 2)
    assert op("(i*D + 1)*(D - i)", field="complex") == op("i*D^2 + 2*D - i", field="complex")
    assert op("(D1 + D2)*(D1 - D2)", 2) == op("D1^2 - D2^2", 2)
    assert op("D*(D + x)") == scalar_operator_product(op("D"), op("D + x"))


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


@pytest.mark.skipif(not DIGIT_LIMIT, reason="the interpreter has no digit limit")
@pytest.mark.parametrize("text, position", [
    ("x^{}", 2),
    ("{}*D - 1", 0),
    ("x + x{}", 4),
    ("D [u{}]", 3),
], ids=["exponent", "coefficient", "variable-index", "component-tag"])
def test_an_integer_past_the_digit_limit_is_a_positioned_parse_error(text, position):
    # int() of a literal past the limit raises ValueError, which the parser
    # reports as a ParseError at the literal
    op(text.format("0" * (DIGIT_LIMIT - 1) + "1"))  # a literal at the limit parses
    with pytest.raises(ParseError, match="more than .* digits.*PYTHONINTMAXSTRDIGITS") as e:
        op(text.format("1" * (DIGIT_LIMIT + 1)))
    assert e.value.position == position


@pytest.mark.skipif(not DIGIT_LIMIT, reason="the interpreter has no digit limit")
def test_a_number_past_the_digit_limit_is_not_printed():
    big = 10 ** DIGIT_LIMIT  # DIGIT_LIMIT + 1 digits
    assert format_scalar(Fraction(big - 1, 2)) == f"{big - 1}/2"
    for value in (Fraction(big), Fraction(1, big), GaussianRational(1, big),
                  GaussianRational(big, 1)):
        with pytest.raises(InvalidInput, match=f"more than {DIGIT_LIMIT} digits"):
            format_scalar(value)


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

@pytest.mark.parametrize("text, m, n, field, printed", [
    # a coefficient 1 or -1 of a derivative is written as nothing or '-'
    ("D1 - D2", 2, 1, "real", "D1 - D2"),
    ("-D^2 + D - 1", 1, 1, "real", "-D^2 + D - 1"),
    ("-D [u1] + D [u2]", 1, 2, "real", "-D [u1] + D [u2]"),
    ("1 [u1] - 1 [u2]", 1, 2, "real", "1 [u1] - 1 [u2]"),
    # a one-term negative numerator is written as '-' and its negation
    ("-x*D - 2", 1, 1, "real", "-x*D - 2"),
    ("(-2/x)*D - 2/x", 1, 1, "real", "-(2/x)*D - 2/x"),
    ("(-3*x/(x + 1))*D - 3*x/(x + 1)", 1, 1, "real", "-(3*x/(x + 1))*D - (3*x/(x + 1))"),
    # a denominator that is a product is parenthesized
    ("(x1/(x1*x2))*D1 + 1/(x1^2*x2)", 2, 1, "real", "(1/x2)*D1 + 1/(x1^2*x2)"),
    ("(3/(2*x1*x2))*D2 - 3/(2*x1*x2)", 2, 1, "real", "(3/2/(x1*x2))*D2 - 3/2/(x1*x2)"),
    # Gaussian coefficients
    ("(1 + i)*x*D + (2 - i)", 1, 1, "complex", "(1 + i)*x*D + (2 - i)"),
    ("-i*D + i*x", 1, 1, "complex", "-i*D + i*x"),
    # a one-term Gaussian numerator keeps the one pair of its scalar
    ("((1 + i)/x)*D - i/x", 1, 1, "complex", "((1 + i)/x)*D - i/x"),
    ("D + (1 + i)/x", 1, 1, "complex", "D + (1 + i)/x"),
    ("D + (1 + 2*i)*x/(x + 1)", 1, 1, "complex", "D + ((1 + 2*i)*x/(x + 1))"),
    ("(-2*i*x)*D^2 + (x + i)*D", 1, 1, "complex", "-2*i*x*D^2 + (x + i)*D"),
    ("(-i/(x + i))*D", 1, 1, "complex", "-(i/(x + i))*D"),
    # a component that is one parenthesized summand keeps its one pair
    ("(x + 6)/x^2 [u1] + 1 [u2]", 1, 2, "real", "((x + 6)/x^2) [u1] + 1 [u2]"),
    ("D [u1] + 1/(x - 3) [u2]", 1, 2, "real", "D [u1] + (1/(x - 3)) [u2]"),
    ("-(x + 1)/x [u1] + D [u2]", 1, 2, "real", "((-x - 1)/x) [u1] + D [u2]"),
    ("(-1/5 - 3/5*i) [u1]", 1, 2, "complex", "(-1/5 - 3/5*i) [u1]"),
    ("(1 + i)/x [u1] + D [u2]", 1, 2, "complex", "((1 + i)/x) [u1] + D [u2]"),
    # and one of two summands gets its pair, whatever the summands are
    ("((1 + i)*D + (2 - i)) [u1] + D [u2]", 1, 2, "complex",
     "((1 + i)*D + (2 - i)) [u1] + D [u2]"),
    ("(1/x + D) [u1]", 1, 2, "real", "(D + 1/x) [u1]"),
])
def test_the_printer_reads_signs_and_units_off_the_terms(text, m, n, field, printed):
    p = op(text, m, n, field)
    assert format_operator(p) == printed
    assert op(printed, m, n, field) == p


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


# -- the lean readers of --init, --point and point: -------------------------------
#
# The reference is the path the readers replace: parse_operator and
# parse_rational, which build the operator and the rational function.

def reference_scalar_value(text, m, field_mode):
    value = parse_rational(text.strip(), m, field_mode)
    if not value.is_polynomial() or not value.is_constant():
        raise InvalidInput(f"expected a constant, got {text!r}")
    return value.constant_value()


def reference_initial_conditions(text, m, n, field_mode):
    init = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise InvalidInput(f"initial condition {chunk!r} is missing '='")
        lhs, rhs = chunk.split("=", 1)
        p = parse_operator(lhs.strip(), m, n, field_mode)
        if len(p.terms) != 1:
            raise InvalidInput(f"left side of {chunk!r} must be a single derivative")
        (derivative, coeff), = p.terms.items()
        if coeff != 1:
            raise InvalidInput(f"left side of {chunk!r} must have coefficient 1")
        if derivative in init:
            raise InvalidInput(
                f"initial value given twice for {format_derivative(derivative, m, n)}")
        init[derivative] = reference_scalar_value(rhs, m, field_mode)
    return init


def outcome(function, *args):
    """What a call gives: its value with the type of each scalar, or its error."""
    try:
        value = function(*args)
    except Exception as exc:  # the two paths must fail alike, whatever the error
        return type(exc), str(exc)
    if isinstance(value, dict):
        return {d: (type(v), v) for d, v in value.items()}
    return type(value), value


FACTORS = ["1", "2", "-1", "1/2", "2/2", "0", "x1", "x2", "x1/x1", "(x1 - x1)", "D1", "D2",
           "D1^2", "(D1 + D2)", "i", "-i", "(i*i)", "(1 + i)", "(1/2 - i/3)", "(x1 + 1)^2", "2^3",
           "x1^200000", "(1/0)", "x1^0", "D1/x1", "y", "(", "2x1"]
ROWS = st.builds(lambda factors, rest: "*".join(factors) + rest,
                 st.lists(st.sampled_from(FACTORS), min_size=1, max_size=3),
                 st.sampled_from(["", " [u1]", " [u2]", " [u3]", " + D1", " - D1", " + 1",
                                  " [u1] + D2 [u2]", " +"]))


@settings(deadline=None, max_examples=400)
@given(st.lists(st.tuples(ROWS, ROWS), min_size=1, max_size=3), st.integers(1, 2),
       st.sampled_from(["real", "complex"]))
def test_the_lean_readers_agree_with_the_operator_and_rational_path(chunks, n, field):
    text = ", ".join(f"{lhs}={rhs}" for lhs, rhs in chunks)
    expected = outcome(reference_initial_conditions, text, 2, n, field)
    assert outcome(parse_initial_conditions, text, 2, n, field) == expected
    for lhs, rhs in chunks:
        assert (outcome(parse_scalar_value, rhs, 2, field)
                == outcome(reference_scalar_value, rhs, 2, field))
        constant = outcome(parsing.parse_constant, rhs, 2, field)
        rational = outcome(parse_rational, rhs, 2, field)
        if isinstance(rational[1], RationalFunction):  # it parsed: the reader answers
            r = rational[1]
            value = r.constant_value() if r.is_polynomial() and r.is_constant() else None
            assert constant == (type(value), value)
        else:
            assert constant == rational
        derivative = outcome(parsing.parse_derivative, lhs, 2, n, field)
        row = outcome(parse_operator, lhs, 2, n, field)
        if isinstance(row[1], OperatorVector):
            terms = list(row[1].terms.items())
            d = terms[0][0] if len(terms) == 1 and terms[0][1] == 1 else None
            assert derivative == (type(d), d)
        else:  # the same error, or None for a coefficient past a limit that only
            # building the operator meets, since such a row is not 1*d
            assert derivative in (row, (type(None), None))
            assert row[0] is InvalidInput or derivative == row


@pytest.mark.parametrize("text, value", [
    ("0", Fraction(0)), ("-3/4", Fraction(-3, 4)), ("i*i", Fraction(-1)),
    ("(1 + i)^2", GaussianRational(0, 2)),
    ("1/2 - i/3", GaussianRational(Fraction(1, 2), Fraction(-1, 3))),
    ("x1/x1", Fraction(1)), ("x1 - x1 + 5", Fraction(5)),
])
def test_a_constant_is_the_scalar_of_its_type(text, value):
    constant = parsing.parse_constant(text, 2, "complex")
    assert type(constant) is type(value) and constant == value


@pytest.mark.parametrize("text, m, n, derivative", [
    ("D1*D2^2", 2, 1, Derivative(1, (1, 2))), ("D [u2]", 1, 2, Derivative(2, (1,))),
    ("(x1/x1)*D1", 2, 1, Derivative(1, (1, 0))), ("(2/2)*1", 1, 1, Derivative(1, (0,))),
    ("2*D", 1, 1, None), ("x*D", 1, 1, None), ("D + 1", 1, 1, None), ("0", 1, 1, None),
    ("D - D", 1, 1, None),
])
def test_a_derivative_is_read_only_with_the_coefficient_one(text, m, n, derivative):
    assert parsing.parse_derivative(text, m, n) == derivative


def test_the_lean_readers_build_no_operator_and_no_rational_function(monkeypatch):
    def refuse(*args):
        raise AssertionError("built")

    for name in ("OperatorVector", "Polynomial", "_rational"):
        monkeypatch.setattr(parsing, name, refuse)
    monkeypatch.setattr(systemio, "parse_operator", refuse)
    # a power of a derivation is one derivative; only a product of two (D1*D2)
    # would take the Leibniz rule and its operators
    assert parse_initial_conditions("1 [u1]=1/2, D1^2 [u2]=1 + i, D2 [u1]=i*i", 2, 2,
                                    "complex") == {
        Derivative(1, (0, 0)): Fraction(1, 2), Derivative(2, (2, 0)): GaussianRational(1, 1),
        Derivative(1, (0, 1)): -1}
    assert parse_point("1/2, -3", 2, "real") == (Fraction(1, 2), Fraction(-3))


def test_the_readers_refuse_too_many_variables_as_the_old_path_did():
    calls = [(parse_point, ", ".join(["1"] * 1001), 1001, "real"),
             (parse_initial_conditions, "1=1", 1001, 1, "real"),
             (parsing.parse_constant, "1", 1001), (parsing.parse_derivative, "D1", 1001)]
    for function, *args in calls:
        with pytest.raises(InvalidInput, match=r"^1001 variables, more than the limit of 1000$"):
            function(*args)


# -- one parse per system file: the last system is kept -------------------------

EULER = "vars: 1\nrow: x^2*D^2 - 2*x*D + 2\nq: D^3\npoint: 1\n"


@pytest.fixture
def parses(monkeypatch):
    """The texts systemio hands to parse_operator, in order."""
    seen = []
    parse = systemio.parse_operator

    def spy(text, *args):
        seen.append(text)
        return parse(text, *args)

    monkeypatch.setattr(systemio, "parse_operator", spy)
    return seen


def test_an_unchanged_file_is_parsed_once(tmp_path, fresh_load, parses):
    path = tmp_path / "euler.sys"
    path.write_text(EULER)
    first = load_system(str(path))
    assert parses == ["x^2*D^2 - 2*x*D + 2", "D^3"]
    # the same text at another path is the same system, shared
    other = tmp_path / "copy.sys"
    other.write_text(EULER)
    for again in (str(path), str(other)):
        assert load_system(again) is first
    assert len(parses) == 2
    assert first.generators == [op("x^2*D^2 - 2*x*D + 2")] and first.point == (1,)


def test_a_rewritten_file_gives_the_new_system(tmp_path, fresh_load, parses):
    path = tmp_path / "s.sys"
    path.write_text(EULER)
    old = load_system(str(path))
    path.write_text("vars: 1\nrow: D - 1\n")
    new = load_system(str(path))
    assert new is not old and new.generators == [op("D - 1")] and new.q is None
    assert parses[-1] == "D - 1"
    # and back: the first text is parsed again, since only the last is kept
    path.write_text(EULER)
    assert load_system(str(path)) == old and len(parses) == 5


def test_another_default_field_parses_again(tmp_path, fresh_load, parses):
    path = tmp_path / "s.sys"
    path.write_text("vars: 1\nrow: D - 1\n")
    real = load_system(str(path))
    complex_mode = load_system(str(path), "complex")
    assert complex_mode is not real and len(parses) == 2
    assert (real.field_mode, complex_mode.field_mode) == ("real", "complex")
    assert load_system(str(path), "complex") is complex_mode and len(parses) == 2
    # a file that declares its field is still keyed by the default it was read with
    path.write_text("field: complex\nvars: 1\nrow: D - i\n")
    declared = load_system(str(path))
    assert load_system(str(path), "complex") is not declared and len(parses) == 4


def test_a_file_that_fails_to_load_raises_every_time_and_is_not_kept(tmp_path, fresh_load):
    good = tmp_path / "good.sys"
    good.write_text(EULER)
    bad = tmp_path / "bad.sys"
    bad.write_text("vars: 1\nrow: 2x\n")
    kept = load_system(str(good))
    for _ in range(2):
        with pytest.raises(ParseError):
            load_system(str(bad))
        assert systemio._last is None
    # a missing file raises OSError on every call, before any text is compared
    missing = str(tmp_path / "missing.sys")
    for _ in range(2):
        with pytest.raises(OSError):
            load_system(missing)
    assert systemio._last is None
    assert load_system(str(good)) is not kept


# The messages are those the file iterator gave: text mode turns "\r\n" and
# "\r" into "\n", and lines end there only, not at the other separators that
# str.splitlines breaks at.  A byte-order mark at the start of the file is
# not part of its first line; anywhere else it is part of its line.
@pytest.mark.parametrize("data, message", [
    (b"vars: 1\r\n\r\n# c\r\nrow D\r\n", "4: expected 'key: value'"),
    (b"vars: 1\r\rrow: D\rbogus: 1\r", "4: unknown key 'bogus'"),
    (b"vars: 1\nrow: D\nfield: octonion", "3: unknown field mode 'octonion'"),
    ("vars: 1\n# page\x0cbreak\nrow: D\nwhat: 1\n".encode(), "4: unknown key 'what'"),
    ("vars: 1\n# a\u2028b\u2029c\x85d\x1ce\x1df\x1eg\x0bh\nrow D\n".encode(),
     "3: expected 'key: value'"),
    (b"\xef\xbb\xbfvars: 1\nrow: D\nbogus: 1\n", "3: unknown key 'bogus'"),
    (b"\xef\xbb\xbfvars: 1\nrow D\n", "2: expected 'key: value'"),
    (b"vars: 1\n\xef\xbb\xbfrow: D\n", "2: unknown key '\\ufeffrow'"),
], ids=["crlf", "cr", "no-final-newline", "form-feed", "unicode-separators",
        "byte-order-mark", "byte-order-mark-then-bad-line", "byte-order-mark-inside"])
def test_line_numbers_count_newlines_only(tmp_path, fresh_load, data, message):
    path = tmp_path / "s.sys"
    path.write_bytes(data)
    for _ in range(2):
        with pytest.raises(InvalidInput) as error:
            load_system(str(path))
        assert str(error.value) == f"{path}:{message}"


def test_a_byte_order_mark_at_the_start_is_not_part_of_the_first_key(tmp_path, fresh_load):
    plain, marked = tmp_path / "plain.sys", tmp_path / "marked.sys"
    plain.write_bytes(EULER.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + EULER.encode())
    system = load_system(str(marked))
    assert system.generators == load_system(str(plain)).generators
    assert (system.m, system.n, system.q) == (1, 1, parse_operator("D^3", 1))


# Every key but row: is given at most once; a second line would otherwise
# silently replace the first.
@pytest.mark.parametrize("first, second", [
    ("field: real", "field: complex"),
    ("vars: 1", "vars: 2"),
    ("unknowns: 1", "unknowns: 2"),
    ("q: D", "q: D^2"),
    ("point: 0", "point: 1"),
    ("s: 2", "s: 3"),
    ("T: 2", "T: 4"),
])
def test_a_repeated_key_is_refused_at_its_second_line(tmp_path, fresh_load, first, second):
    path = tmp_path / "s.sys"
    text = "vars: 1\nrow: D\n" if not first.startswith("vars") else "row: D\n"
    path.write_text(f"{first}\n{text}{second}\n")
    lineno = 2 + text.count("\n")
    key = first.split(":")[0]
    with pytest.raises(InvalidInput) as error:
        load_system(str(path))
    assert str(error.value) == f"{path}:{lineno}: duplicate key {key!r}"
    assert systemio._last is None


@pytest.mark.parametrize("key", ["vars", "unknowns", "s", "T"])
@pytest.mark.parametrize("value", ["two", "1.5", "", "2 3"])
def test_an_integer_key_with_another_value_names_its_line_and_key(tmp_path, fresh_load,
                                                                  key, value):
    path = tmp_path / "s.sys"
    lines = ["vars: 1", "row: D"] if key != "vars" else ["row: D"]
    path.write_text("\n".join(lines + [f"{key}: {value}"]) + "\n")
    with pytest.raises(InvalidInput) as error:
        load_system(str(path))
    assert str(error.value) == (
        f"{path}:{len(lines) + 1}: {key} must be an integer, got {value!r}")
