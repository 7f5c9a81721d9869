"""Exact scalar, polynomial and rational-function arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from weylclosure import (
    EvaluationAtPole,
    GaussianRational,
    Polynomial,
    RationalFunction,
    common_denominator,
    poly_gcd,
    poly_lcm,
)


def poly(text_terms, m=1):
    return Polynomial({tuple(k) if isinstance(k, (list, tuple)) else (k,): Fraction(v)
                       for k, v in text_terms.items()}, m)


X = poly({1: 1})
ONE = Polynomial.constant(1, 1)


# -- frozen examples -------------------------------------------------------

def test_poly_derive_power_rule():
    assert (X * X).derivative(1) == poly({1: 2})


def test_poly_derive_independent_variable():
    x1 = Polynomial.variable(1, 2)
    assert x1.derivative(2).is_zero()


def test_poly_derive_linearity():
    p = X * X - poly({1: 2})
    assert p.derivative(1) == poly({1: 2, 0: -2})


def test_poly_derive_index_out_of_range():
    with pytest.raises(IndexError):
        X.derivative(2)


def test_rat_derive_quotient_rule():
    r = RationalFunction(ONE, X)
    assert r.derivative(1) == RationalFunction(-ONE, X * X)


def test_rat_derive_two_over_x_squared():
    r = RationalFunction(poly({0: 2}), X * X)
    assert r.derivative(1) == RationalFunction(poly({0: -4}), X * X * X)


def test_rat_derive_constant_is_zero():
    assert RationalFunction.constant(7, 1).derivative(1).is_zero()


def test_rat_eval():
    r = RationalFunction(poly({0: 2}), X * X)
    assert r.evaluate((Fraction(2),)) == Fraction(1, 2)
    assert (RationalFunction(X * X - ONE)).evaluate((Fraction(1),)) == 0


def test_rat_eval_at_pole():
    r = RationalFunction(ONE, X)
    with pytest.raises(EvaluationAtPole):
        r.evaluate((Fraction(0),))


def test_common_denominator_lcm():
    rs = [RationalFunction(ONE, X), RationalFunction(poly({0: 2}), X * X)]
    assert common_denominator(rs, 1) == X * X


def test_common_denominator_empty():
    assert common_denominator([], 1) == ONE


def test_common_denominator_coprime():
    rs = [RationalFunction(X, X - ONE), RationalFunction(ONE, X + ONE)]
    assert common_denominator(rs, 1) == (X - ONE) * (X + ONE)


# -- gcd machinery ---------------------------------------------------------

def test_gcd_univariate():
    f = (X - ONE) * (X + ONE)
    g = (X - ONE) * X
    assert poly_gcd(f, g) == X - ONE


def test_gcd_multivariate():
    x = Polynomial.variable(1, 2)
    y = Polynomial.variable(2, 2)
    f = (x + y) * (x - y)
    g = (x + y) * x
    assert poly_gcd(f, g) == x + y


def test_lcm_multivariate():
    x = Polynomial.variable(1, 2)
    y = Polynomial.variable(2, 2)
    assert poly_lcm(x * y, y * y) == x * y * y


def test_rational_normalization_is_canonical():
    # 2x/2x^2 and 1/x must normalize to the identical representation.
    a = RationalFunction(poly({1: 2}), poly({2: 2}))
    b = RationalFunction(ONE, X)
    assert a == b and a.den.leading_coefficient() == 1


def test_gaussian_rational_field_ops():
    i = GaussianRational(0, 1)
    assert i * i == GaussianRational(-1)
    assert (GaussianRational(1, 1) / GaussianRational(1, -1)) == i
    assert GaussianRational(2, 3) - GaussianRational(2, 3) == 0


def test_gaussian_coefficients_in_rational_functions():
    i = GaussianRational(0, 1)
    p = Polynomial({(1,): i, (0,): GaussianRational(1)}, 1)  # i*x + 1
    q = Polynomial({(1,): GaussianRational(1), (0,): -i}, 1)  # x - i
    # i*x + 1 = i*(x - i), so the quotient is the constant i.
    r = RationalFunction(p, q)
    assert r.is_polynomial() and r.num.constant_value() == i


# -- properties ------------------------------------------------------------

small_polys = st.builds(
    lambda terms: Polynomial({(e,): Fraction(c) for e, c in terms}, 1),
    st.lists(st.tuples(st.integers(0, 4), st.integers(-5, 5)), max_size=4),
)

def _den_from_terms(den_terms):
    den = Polynomial.zero(1)
    for e, c in den_terms:
        den = den + Polynomial.monomial((e,), Fraction(c), 1)
    return den if not den.is_zero() else Polynomial.constant(1, 1)


small_rationals = st.builds(
    lambda num, den_terms: RationalFunction(num, _den_from_terms(den_terms)),
    small_polys,
    st.lists(st.tuples(st.integers(0, 2), st.integers(-3, 3)), max_size=2),
)


@settings(deadline=None, max_examples=60)
@given(small_polys, small_polys, small_polys)
def test_polynomial_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(deadline=None, max_examples=40)
@given(small_rationals, small_rationals, small_rationals)
def test_rational_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(deadline=None, max_examples=60)
@given(small_rationals)
def test_negation_keeps_the_normal_form(f):
    assert -f == RationalFunction(-f.num, f.den)
    assert (-f).den == f.den
    assert (f + (-f)).is_zero()


@settings(deadline=None, max_examples=40)
@given(small_rationals, small_rationals)
def test_leibniz_product_rule(f, g):
    lhs = (f * g).derivative(1)
    rhs = f.derivative(1) * g + f * g.derivative(1)
    assert lhs == rhs


@settings(deadline=None, max_examples=40)
@given(small_rationals, small_rationals, st.integers(-4, 4))
def test_evaluation_is_a_homomorphism(r, s, x0):
    point = (Fraction(x0),)
    try:
        rv, sv = r.evaluate(point), s.evaluate(point)
        sum_v = (r + s).evaluate(point)
        prod_v = (r * s).evaluate(point)
    except EvaluationAtPole:
        return
    assert sum_v == rv + sv
    assert prod_v == rv * sv


@settings(deadline=None, max_examples=40)
@given(st.lists(small_rationals, max_size=4))
def test_common_denominator_clears_every_entry(rs):
    w = common_denominator(rs, 1)
    assert not w.is_zero()
    for r in rs:
        assert (RationalFunction(w) * r).is_polynomial()
