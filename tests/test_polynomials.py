"""Exact scalar, polynomial and rational-function arithmetic."""

import functools
import operator
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from sympy import sympify
from sympy.polys.domains import QQ, QQ_I, ZZ, ZZ_I
from sympy.polys.euclidtools import dmp_inner_gcd
from sympy.polys.orderings import grlex
from sympy.polys.rings import PolyElement, PolyRing

from weylclosure import (
    Derivative,
    EvaluationAtPole,
    GaussianRational,
    InvalidInput,
    Polynomial,
    RationalFunction,
    formal_solve,
    format_operator,
    parse_operator,
    parse_rational,
    weyl_closure_member,
)
from weylclosure import polynomials
from weylclosure.polynomials import gcd_cofactors, poly_lcm


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


def test_division_by_zero_and_arguments_out_of_range_raise():
    zero, r = Polynomial.zero(1), RationalFunction(X + ONE, X)
    with pytest.raises(ZeroDivisionError):
        RationalFunction(X, zero)
    with pytest.raises(ZeroDivisionError):
        r / 0
    with pytest.raises(ZeroDivisionError):
        RationalFunction.zero(1).inverse()
    with pytest.raises(ZeroDivisionError):
        X.exact_div(zero)
    # a scalar denominator divides as ``/`` does
    with pytest.raises(ZeroDivisionError):
        RationalFunction(X, 0)
    with pytest.raises(ZeroDivisionError):
        X.exact_div(0)
    assert RationalFunction(X, 2) == X / 2
    assert RationalFunction(X, Fraction(1, 2)) == 2 * X
    assert X.exact_div(2) == X / 2
    assert 2 / r == 2 * r.inverse() == RationalFunction(X.scale(2), X + ONE)
    with pytest.raises(IndexError, match="variable index 0"):
        Polynomial.variable(0, 2)
    with pytest.raises(ValueError, match="negative"):
        X ** -1
    with pytest.raises(ValueError):
        zero ** 0
    with pytest.raises(ValueError, match="dimension mismatch"):
        X.evaluate((Fraction(1), Fraction(2)))


# -- gcd machinery ---------------------------------------------------------

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


@pytest.mark.parametrize("text, m, field", [
    ("(x^2 - 1)/(2*x + 3)", 1, "real"),
    ("3/2", 1, "real"),
    ("1/(x + i)", 1, "complex"),
    ("(2*i*x + 1)/(x^2 + i)", 1, "complex"),
    ("x/((1 + i)*x + 1)", 1, "complex"),  # (1 + i)^2 = 2i: the unit moves again
    ("i/x", 1, "complex"),  # its square -1/x^2 is real, and moves to ZZ
    ("(x1*x2 + 1)/(x1 - x2)", 2, "real"),
    ("(x1 - i*x2)/(3*x1*x2 + 2)", 2, "complex"),
    ("-x1^2*x2 + 1/2", 2, "real"),
])
def test_a_power_is_the_repeated_product(text, m, field):
    r = parse_rational(text, m, field)
    product = Polynomial.constant(1, m)
    for k in range(5):
        power = r ** k
        # canonical triples: equal values are equal triples, in one ring and class
        assert power == product and type(power) is type(product)
        product = product * r
    with pytest.raises(ValueError, match="negative"):
        r ** -2
    assert RationalFunction.zero(m) ** 3 == RationalFunction.zero(m)
    with pytest.raises(ValueError):
        RationalFunction.zero(m) ** 0


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


def _integer_polys(nvars, degree, coefficient, max_size):
    monomials = st.tuples(*[st.integers(0, degree)] * nvars)
    return st.builds(lambda terms: Polynomial(terms, nvars),
                     st.dictionaries(monomials, coefficient.map(Fraction), max_size=max_size))


@st.composite
def poly_triples(draw):
    """Three polynomials in the same 1 or 2 variables."""
    nvars = draw(st.integers(1, 2))
    polys = _integer_polys(nvars, 4 if nvars == 1 else 2, st.integers(-5, 5), 4)
    return draw(polys), draw(polys), draw(polys)


@st.composite
def rational_triples(draw):
    """Three rational functions in the same 1 or 2 variables."""
    nvars = draw(st.integers(1, 2))
    nums = _integer_polys(nvars, 4 if nvars == 1 else 2, st.integers(-5, 5), 3)
    dens = _integer_polys(nvars, 2 if nvars == 1 else 1, st.integers(-3, 3), 2)

    def rational():
        den = draw(dens)
        return RationalFunction(draw(nums), den if den else Polynomial.constant(1, nvars))

    return rational(), rational(), rational()


@settings(deadline=None, max_examples=60)
@given(poly_triples())
def test_polynomial_ring_axioms(triple):
    a, b, c = triple
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(deadline=None, max_examples=40)
@given(rational_triples())
def test_rational_ring_axioms(triple):
    a, b, c = triple
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


# -- the dict arithmetic the ring element replaced, kept as an oracle --------

def oracle_add(f, g):
    terms = dict(f)
    for m, c in g.items():
        s = terms.get(m, 0) + c
        if s:
            terms[m] = s
        else:
            terms.pop(m, None)
    return terms


def oracle_mul(f, g):
    terms = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            s = terms.get(m, 0) + c1 * c2
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
    return terms


def oracle_derivative(f, index):
    j = index - 1
    terms = {}
    for m, c in f.items():
        if m[j]:
            dm = m[:j] + (m[j] - 1,) + m[j + 1:]
            terms[dm] = terms.get(dm, 0) + c * m[j]
    return terms


def oracle_exact_div(f, g):
    """School-book division by graded-lex leading terms; None if it leaves a remainder."""
    def leader(terms):
        return max(terms, key=lambda m: (sum(m), m))

    remainder, quotient = dict(f), {}
    dm = leader(g)
    while remainder:
        rm = leader(remainder)
        if any(a < b for a, b in zip(rm, dm)):
            return None
        qm = tuple(a - b for a, b in zip(rm, dm))
        term = {qm: remainder[rm] / g[dm]}
        quotient = oracle_add(quotient, term)
        remainder = oracle_add(remainder, {m: -c for m, c in oracle_mul(term, g).items()})
    return quotient


_rational_coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=3)
_gaussian_coefficients = st.builds(GaussianRational, _rational_coefficients,
                                   _rational_coefficients)


@st.composite
def term_pairs(draw):
    """Two term maps in the same 1 or 2 variables; each is real or Gaussian."""
    nvars = draw(st.integers(1, 2))
    monomials = st.tuples(*[st.integers(0, 3)] * nvars)

    def terms():
        coefficients = draw(st.sampled_from([_rational_coefficients, _gaussian_coefficients]))
        drawn = draw(st.dictionaries(monomials, coefficients, max_size=4))
        return {m: c for m, c in drawn.items() if c}

    return nvars, terms(), terms()


@settings(deadline=None, max_examples=80)
@given(term_pairs())
def test_arithmetic_matches_the_dict_oracle(pair):
    nvars, f, g = pair
    pf, pg = Polynomial(f, nvars), Polynomial(g, nvars)
    assert dict(pf.terms) == f
    assert dict((pf + pg).terms) == oracle_add(f, g)
    assert dict((pf - pg).terms) == oracle_add(f, {m: -c for m, c in g.items()})
    assert dict((pf * pg).terms) == oracle_mul(f, g)
    for index in range(1, nvars + 1):
        assert dict(pf.derivative(index).terms) == oracle_derivative(f, index)
    if g:
        product = oracle_mul(f, g)
        assert oracle_exact_div(product, g) == f
        assert dict(Polynomial(product, nvars).exact_div(pg).terms) == f
        if oracle_exact_div(f, g) is None:
            with pytest.raises(ValueError):
                pf.exact_div(pg)
        else:
            assert dict(pf.exact_div(pg).terms) == oracle_exact_div(f, g)


@settings(deadline=None, max_examples=60)
@given(term_pairs())
def test_mixed_real_and_gaussian_operands_never_raise(pair):
    nvars, f, g = pair
    pf, pg = Polynomial(f, nvars), Polynomial(g, nvars)
    for result in (pf + pg, pf - pg, pf * pg, pg * pf, poly_lcm(pf, pg)):
        assert isinstance(result, Polynomial)
    if g:
        r = RationalFunction(pf, pg)
        assert r * RationalFunction(pg) == RationalFunction(pf)
        assert (r + r - r) == r


# -- canonical form ----------------------------------------------------------

I = GaussianRational(0, 1)
X2 = Polynomial.variable(1, 2)
Y2 = Polynomial.variable(2, 2)
ONE2 = Polynomial.constant(1, 2)


def test_gaussian_coefficients_with_zero_imaginary_part_are_rational():
    as_gaussian = Polynomial({(1, 0): GaussianRational(3), (0, 2): GaussianRational(Fraction(-1, 2))}, 2)
    as_fraction = Polynomial({(1, 0): Fraction(3), (0, 2): Fraction(-1, 2)}, 2)
    assert as_gaussian == as_fraction
    assert hash(as_gaussian) == hash(as_fraction)
    assert all(type(c) is Fraction for c in as_gaussian.terms.values())


def test_cancelled_imaginary_parts_give_the_rational_polynomial():
    x = Polynomial.variable(1, 1)
    product = (x + I) * (x - I)
    assert product == x * x + 1
    assert hash(product) == hash(x * x + 1)
    assert ((X2 + Y2.scale(I)) - Y2.scale(I)) == X2
    assert (X2.scale(I) * I) == -X2
    assert RationalFunction(x.scale(I) + I, x + 1) == RationalFunction.constant(I, 1)


def test_monic_and_gcd_are_graded_lex_normalized_over_gaussians():
    f = (X2.scale(I) + Y2 * Y2) * (X2 + Y2)
    g = (X2.scale(I) + Y2 * Y2) * (X2 - Y2)
    # the graded-lex leader of y^2 + i*x is y^2
    assert (f * g).exact_div(poly_lcm(f, g)).monic() == Y2 * Y2 + X2.scale(I)
    assert (Y2 * Y2.scale(2 * I) - X2).monic() == Y2 * Y2 + X2.scale(Fraction(1, 2) * I)
    assert poly_lcm(f, g) == (f * (X2 - Y2)).monic()


def test_terms_is_a_read_only_view():
    with pytest.raises(TypeError):
        X2.terms[(0, 0)] = Fraction(1)


# -- a reference reduction over the field, kept as an oracle ------------------
#
# The library reduces on primitive integer polynomials; the reference below
# takes one sympy gcd over QQ or QQ_I of the full numerator and denominator
# and divides by the denominator's leading coefficient, in a ring of its own.

def _ground(c, domain):
    if isinstance(c, GaussianRational):
        return QQ_I(QQ(c.re.numerator, c.re.denominator), QQ(c.im.numerator, c.im.denominator))
    value = QQ(c.numerator, c.denominator)
    return value if domain is QQ else QQ_I(value)


def _scalar_terms(element):
    """The terms as Fraction, or as GaussianRational when some part is imaginary."""
    if element.ring.domain is QQ:
        return {m: Fraction(int(c.numerator), int(c.denominator)) for m, c in element.items()}
    parts = {m: (Fraction(int(c.x.numerator), int(c.x.denominator)),
                 Fraction(int(c.y.numerator), int(c.y.denominator)))
             for m, c in element.items()}
    if not any(im for _, im in parts.values()):
        return {m: re for m, (re, _) in parts.items()}
    return {m: GaussianRational(re, im) for m, (re, im) in parts.items()}


@functools.lru_cache(maxsize=None)
def _reference_ring(nvars, domain):
    return PolyRing([f"t{i}" for i in range(nvars)], domain, grlex)


def reference_lowest_terms(num, den):
    """num/den as (numerator terms, denominator terms): one gcd over the field, then monic."""
    polys = (num, den)
    complex_mode = any(isinstance(c, GaussianRational) for p in polys for c in p.terms.values())
    domain = QQ_I if complex_mode else QQ
    ring = _reference_ring(num.nvars, domain)
    a, b = (ring.from_dict({m: _ground(c, domain) for m, c in p.terms.items()}) for p in polys)
    if not a:
        return {}, {(0,) * num.nvars: Fraction(1)}
    _, a, b = a.cofactors(b)
    lc = b.LC
    return _scalar_terms(a.quo_ground(lc)), _scalar_terms(b.quo_ground(lc))


def _typed(terms):
    return {m: (type(c), c) for m, c in terms.items()}


def assert_reduces_to(got, num, den):
    """got is num/den in lowest terms with a monic denominator, coefficient types included."""
    want_num, want_den = reference_lowest_terms(num, den)
    assert _typed(got.num.terms) == _typed(want_num)
    assert _typed(got.den.terms) == _typed(want_den)


_small_gaussians = st.builds(GaussianRational, st.integers(-2, 2),
                             st.integers(-2, 2)).filter(bool)


@st.composite
def factored_pairs(draw, gaussian=False):
    """Two rational functions in 1 or 2 variables, made of a few shared factors.

    Each numerator and denominator is a product of the drawn factors with
    exponents up to 2, the first factor at least once in a denominator, so
    repeated factors (den = p^2) occur, and in two variables so do factors
    free of one variable.  The second function is drawn freely, or over the
    first one's denominator, or so that their sum cancels.  With
    ``gaussian`` each factor may have Gaussian coefficients.
    """
    nvars = draw(st.integers(1, 2))
    monomials = st.tuples(*[st.integers(0, 1)] * nvars)
    rational_coefficients = st.integers(-3, 3).filter(bool).map(Fraction)

    def factor():
        coefficients = rational_coefficients
        if gaussian and draw(st.booleans()):
            coefficients = _small_gaussians
        # two terms or more, so never a constant
        return Polynomial(draw(st.dictionaries(monomials, coefficients, min_size=2, max_size=3)),
                          nvars)

    # Gaussian gcds are slow in sympy, so Gaussian inputs get fewer factors
    factors = [factor() for _ in range(draw(st.integers(1, 2 if gaussian else 3)))]

    def product(lowest=0):
        p = Polynomial.constant(draw(st.integers(1, 3)), nvars)
        for k, f in enumerate(factors):
            p = p * f ** draw(st.integers(lowest if k == 0 else 0, 2))
        return p

    def numerator():
        return product() * draw(st.sampled_from([Polynomial.constant(1, nvars), factor()]))

    f = RationalFunction(numerator(), product(lowest=1))
    shape = draw(st.sampled_from(["drawn", "same denominator", "cancelling"]))
    if shape == "cancelling":
        # g = u - f, so that f + g = u cancels factors of both denominators
        u = RationalFunction(numerator(), product(lowest=1))
        return f, RationalFunction(u.num * f.den - f.num * u.den, u.den * f.den)
    return f, RationalFunction(numerator(),
                               f.den if shape == "same denominator" else product(lowest=1))


def _check_against_the_oracle(f, g):
    """Each result is what the reference makes of the full cross products."""
    a, b, c, d = f.num, f.den, g.num, g.den
    assert_reduces_to(f, a, b)
    assert_reduces_to(f + g, a * d + c * b, b * d)
    assert_reduces_to(f - g, a * d - c * b, b * d)
    assert_reduces_to(f * g, a * c, b * d)
    if g:
        assert_reduces_to(f / g, a * d, b * c)
        assert_reduces_to(g.inverse(), d, c)
    for index in range(1, f.nvars + 1):
        # the quotient rule over den^2
        assert_reduces_to(f.derivative(index),
                          a.derivative(index) * b - a * b.derivative(index), b * b)


@settings(deadline=None, max_examples=60)
@given(factored_pairs())
def test_rational_arithmetic_matches_the_constructor_oracle(pair):
    _check_against_the_oracle(*pair)


@settings(deadline=None, max_examples=20)
@given(factored_pairs(gaussian=True))
def test_gaussian_rational_arithmetic_matches_the_constructor_oracle(pair):
    _check_against_the_oracle(*pair)


def test_rational_arithmetic_oracle_frozen_cases():
    x, y = X2, Y2
    p = x * y + 1
    cases = [
        # equal denominators whose sum cancels part of them
        (RationalFunction(x, p * p), RationalFunction(-x + p, p * p)),
        # denominators sharing x, whose sum cancels it: 2/(x^2 - 1)
        (RationalFunction(ONE2, x * (x + 1)), RationalFunction(ONE2, x * (x - 1))),
        # a repeated factor against its square root
        (RationalFunction(y, p * p), RationalFunction(x + 1, p)),
        # a denominator free of x_1, and one with factors free of x_1 and of x_2
        (RationalFunction(x * y + 1, y), RationalFunction(x, (y + 1) * (y + 1) * (x - 2))),
        # Gaussian coefficients against rational ones
        (RationalFunction(x.scale(I) + 1, y - I), RationalFunction(y + I, (y - I) * x)),
    ]
    for f, g in cases:
        _check_against_the_oracle(f, g)
        _check_against_the_oracle(g, f)


def test_arithmetic_never_calls_the_normalizing_constructor(monkeypatch):
    x, y = X2, Y2
    f = RationalFunction(x + 1, y * y - x)
    g = RationalFunction(x + 1, y)
    h = RationalFunction(x * y, y * y - x)
    xy1_over_y = RationalFunction(x * y + 1, y)
    expected = {
        "inverse": RationalFunction(y * y - x, x + 1),
        "truediv": RationalFunction(y, y * y - x),
        "add": RationalFunction(x * y + x + 1, y * y - x),
        "scale": RationalFunction((x + 1).scale(Fraction(3, 2)), y * y - x),
        "derivative": RationalFunction(y * y + 1, (y * y - x) * (y * y - x)),
    }

    assert f.inverse() == expected["inverse"]
    assert f / g == expected["truediv"]
    assert f + h == expected["add"]
    assert Fraction(3, 2) * f == expected["scale"]
    assert RationalFunction(x + 1) * RationalFunction(y) == RationalFunction(x * y + y)
    assert f.derivative(1) == expected["derivative"]
    assert xy1_over_y.derivative(1) == 1



def test_products_take_no_gcd_against_a_denominator_of_one(monkeypatch):
    x, y = X2, Y2
    p, q = RationalFunction(x + 1), RationalFunction(y - x)
    f, g, h = RationalFunction(x, y + 1), RationalFunction(y, x), RationalFunction(y + 1)
    expected = [RationalFunction((x + 1) * (y - x)), RationalFunction(x),
                RationalFunction(y, y + 1)]
    pairs = []
    kernel = polynomials.gcd_cofactors

    def counting(a, b):
        pairs.append((a, b))
        return kernel(a, b)

    monkeypatch.setattr(polynomials, "gcd_cofactors", counting)
    assert p * q == expected[0]
    assert pairs == []
    # one operand with a denominator: only it meets the other numerator
    assert f * h == expected[1]
    assert h * f == expected[1]
    assert len(pairs) == 2
    assert f * g == expected[2]
    assert len(pairs) == 4

# -- the canonical triple: equality, hashing and the edge --------------------

def test_equal_values_compare_and_hash_equal_however_they_are_made():
    x, y = X2, Y2
    third = Fraction(1, 3)
    minus_i_third = GaussianRational(0, -third)
    polynomials = [
        # the constructor, cancelling x + y
        RationalFunction(x * x - y * y, (x + y).scale(3)),
        # arithmetic on real operands
        RationalFunction(x) / 3 - RationalFunction(y) * third,
        # Gaussian operands whose product is real
        RationalFunction((x - y).scale(I)) * RationalFunction.constant(minus_i_third, 2),
        # Gaussian operands whose imaginary parts cancel in a sum
        RationalFunction((x - y).scale(third) + y.scale(I)) + RationalFunction(y.scale(-I)),
    ]
    fractions = [
        RationalFunction((x - y).scale(2), (x + 1).scale(6)),
        RationalFunction(x - y, x + 1) * RationalFunction.constant(third, 2),
        RationalFunction(x, x + 1) / 3 - RationalFunction(y, (x + 1).scale(3)),
        RationalFunction((x + 1).scale(3), x - y).inverse(),
        RationalFunction((x - y).scale(I), (x + 1).scale(3 * I)),
        RationalFunction(x - y + y.scale(I), (x + 1).scale(3))
        - RationalFunction(y.scale(I), (x + 1).scale(3)),
    ]
    for same in (polynomials, fractions):
        first = same[0]
        counts = {}
        for f in same:
            assert f == first
            assert hash(f) == hash(first)
            assert all(type(c) is Fraction for c in f.num.terms.values())
            counts[f] = counts.get(f, 0) + 1
        # equal values key one dict entry
        assert counts == {first: len(same)}
    assert polynomials[0] != fractions[0]


def test_rational_functions_equal_plain_scalars():
    x = X2
    assert RationalFunction.constant(Fraction(3, 2), 2) == Fraction(3, 2)
    assert RationalFunction(ONE2.scale(2)) == 2
    assert RationalFunction(x.scale(5), x) == 5
    assert RationalFunction(x.scale(I), x) == I
    assert RationalFunction(x + 1, x) != 1
    assert RationalFunction.zero(2) == 0 and not RationalFunction.zero(2)


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_constants_hash_as_the_scalars_they_equal(nvars):
    x = Polynomial.variable(nvars, nvars)
    scalars = [0, 2, -7, Fraction(1, 2), Fraction(-5, 3), GaussianRational(4), I,
               GaussianRational(Fraction(1, 2), -3)]
    for v in scalars:
        # made as a constant, and as a quotient that cancels to one
        for r in (RationalFunction.constant(v, nvars), RationalFunction(x.scale(v), x)):
            assert r == v and hash(r) == hash(v)
            assert v in {r} and r in {v}
    assert 2 in {RationalFunction.constant(2, 1)}


def test_the_denominator_is_monic():
    x, y = X2, Y2
    for f in (RationalFunction(x, (x + 1).scale(-3)),
              RationalFunction(ONE2, (x * y + y.scale(2)).scale(Fraction(-5, 7))),
              RationalFunction(y, (x + y).scale(2 * I)),
              RationalFunction(x.scale(I), y.scale(GaussianRational(1, 1)) - 1)):
        assert f.den.leading_coefficient() == 1
        assert (f * f.den).is_polynomial()
        assert RationalFunction(f.num, f.den) == f


# -- one representation: a polynomial is the triple with denominator 1 -------

@settings(deadline=None, max_examples=60)
@given(term_pairs())
def test_polynomials_round_trip_through_the_triple_and_the_terms(pair):
    nvars, f, _ = pair
    p = Polynomial(f, nvars)
    assert RationalFunction(p).num == p
    assert RationalFunction(p).den == 1
    again = Polynomial(dict(p.terms), nvars)
    assert again == p and hash(again) == hash(p)
    # all Fraction for a real polynomial, all GaussianRational once one is not real
    types = {type(c) for c in p.terms.values()}
    if any(isinstance(c, GaussianRational) and c.im for c in f.values()):
        assert types == {GaussianRational}
    else:
        assert types <= {Fraction}


def test_only_integer_polynomial_rings_are_built():
    for field, unit in (("real", "1"), ("complex", "i")):
        # D^2 annihilates x + unit, as p does, so D^2 = (x + unit)^-1 * D * p
        p = parse_operator(f"(x + {unit})*D - 1", 1, 1, field)
        result = weyl_closure_member(parse_operator("D^2", 1, 1, field), [p])
        assert result.member and not result.witness.w.is_constant()
        assert format_operator(result.basis.elements[0]) == f"D - (1/(x + {unit}))"
        jet = formal_solve(result.basis, (Fraction(0),), {Derivative(1, (0,)): Fraction(1)}, 3)
        assert jet.value(Derivative(1, (2,))) == 0
    domains = {one.ring.domain for one in polynomials._ONES.values()}
    assert domains == {ZZ, ZZ_I}


# -- malformed input and mismatched operands ----------------------------------

def test_exponents_must_have_nvars_nonnegative_entries():
    with pytest.raises(InvalidInput, match=r"\(1,\) is not 2 nonnegative"):
        Polynomial({(1,): 1}, 2)
    with pytest.raises(InvalidInput, match=r"\(-1,\) is not 1 nonnegative"):
        Polynomial({(-1,): 1}, 1)
    with pytest.raises(InvalidInput, match=r"\(0, 1, 0\)"):
        Polynomial.monomial((0, 1, 0), Fraction(1), 2)


def test_exponents_above_the_limit_are_refused():
    limit = polynomials.MAX_EXPONENT
    for terms, nvars in (({(limit + 1,): 1}, 1), ({(0, limit + 1): 1, (1, 0): 2}, 2)):
        with pytest.raises(InvalidInput, match=f"exceeds the limit of {limit}"):
            Polynomial(terms, nvars)
    # a dense list of 10^8 + 1 entries is never built: the parser's result is
    # refused at the edge, before any arithmetic
    with pytest.raises(InvalidInput, match=r"exponent \(100000000,\) exceeds the limit"):
        parse_operator("x^100000000*D - 1", 1)
    top = Polynomial({(limit,): 1, (0,): 1}, 1)
    assert top.terms == {(limit,): 1, (0,): 1}
    assert parse_operator("x^3000 + 1", 1) == parse_operator("1 + x^3000", 1)


def test_more_variables_than_the_limit_are_refused(monkeypatch):
    limit = polynomials.MAX_VARIABLES
    message = f"{limit + 1} variables, more than the limit of {limit}"
    with pytest.raises(InvalidInput, match=message):
        Polynomial.zero(limit + 1)
    with pytest.raises(InvalidInput, match="20000 variables"):
        parse_operator("D1", 20000)
    assert all(nvars <= limit for nvars, _ in polynomials._ONES)
    # the check is on the cache-miss path only: a ring built before is looked up as ever
    one = polynomials._one(2)
    monkeypatch.setattr(polynomials, "MAX_VARIABLES", 1)
    assert polynomials._one(2) is one
    with pytest.raises(InvalidInput, match="more than the limit of 1"):
        polynomials._one(limit + 1)


def test_coefficients_must_be_exact_scalars():
    with pytest.raises(TypeError, match="float"):
        Polynomial({(1,): 0.5}, 1)
    with pytest.raises(TypeError, match="float"):
        RationalFunction.constant(0.5, 1)
    with pytest.raises(TypeError, match="str"):
        Polynomial.constant("1", 1)
    assert Polynomial({(1,): 2}, 1) == Polynomial({(1,): Fraction(2)}, 1) \
        == Polynomial({(1,): GaussianRational(2)}, 1)


def test_operands_in_different_numbers_of_variables_are_rejected():
    x1, x2 = Polynomial.variable(1, 1), Polynomial.variable(1, 2)
    r1, r2 = RationalFunction(x1 + 1, x1), RationalFunction(x2, x2 + 1)
    pattern = "operands in [12] and [12] variables"
    pairs = [(x1, x2), (x2.scale(I), x1), (Polynomial.zero(1), x2), (r1, r2), (x1, r2),
             (r2, RationalFunction.zero(1))]
    for f, g in pairs:
        for combine in (operator.add, operator.sub, operator.mul):
            with pytest.raises(InvalidInput, match=pattern):
                combine(f, g)
    for f, g in ((r1, r2), (x1, r2), (r2, x1)):
        with pytest.raises(InvalidInput, match=pattern):
            f / g
    with pytest.raises(InvalidInput, match=pattern):
        RationalFunction(x1, x2)
    with pytest.raises(InvalidInput, match=pattern):
        (x1 * x1).exact_div(x2)
    with pytest.raises(InvalidInput, match=pattern):
        poly_lcm(x1, x2)
    assert x1 != x2 and Polynomial.zero(1) != Polynomial.zero(2)
    assert r1 != RationalFunction(x2 + 1, x2)


# -- the gcd kernel against sympy's sparse cofactors ---------------------------

_KERNEL_SHAPES = ("random", "ground", "equal", "monomial", "divides", "common", "zero", "large")


def _large_univariate(draw):
    """(a, b) in ZZ[x] of degree up to 40 with a planted common factor, each
    with a content and a leading coefficient of either sign: the packed
    kernel's inputs, with coefficients up to 10^12 (a large xi) or up to 3
    (where a first xi more often finds a spurious factor and a retry runs)."""
    ring = _reference_ring(1, ZZ)
    height = draw(st.sampled_from([3, 10**4, 10**12]))

    def element(low, high):  # of degree low..high with a nonzero leading coefficient
        degree = draw(st.integers(low, high))
        coefficients = draw(st.lists(st.integers(-height, height), min_size=degree,
                                     max_size=degree))
        coefficients.append(draw(st.integers(1, height)) * draw(st.sampled_from([1, -1])))
        return ring.from_dict({(e,): ZZ(c) for e, c in enumerate(coefficients) if c})

    common = element(0, 12)
    a, b = element(1, 28) * common, element(1, 28) * common
    contents = st.integers(-10**6, 10**6).filter(bool)
    return a.mul_ground(ZZ(draw(contents))), b.mul_ground(ZZ(draw(contents)))


@st.composite
def kernel_operands(draw):
    """(a, b) in ZZ[x] or ZZ_I[x], 1-3 variables, shaped to reach every path."""
    shape = draw(st.sampled_from(_KERNEL_SHAPES))
    if shape == "large":
        return _large_univariate(draw)
    nvars = draw(st.integers(1, 3))
    domain = draw(st.sampled_from([ZZ, ZZ_I]))
    ring = _reference_ring(nvars, domain)
    ints = st.integers(-6, 6)
    coefficients = (ints.map(ZZ) if domain is ZZ else st.builds(ZZ_I, ints, ints)).filter(bool)
    monomials = st.tuples(*[st.integers(0, 3 if nvars == 1 else 2)] * nvars)

    def element(max_size):  # nonzero
        return ring.from_dict(draw(st.dictionaries(monomials, coefficients, min_size=1,
                                                   max_size=max_size)))

    a = element(4)
    if shape == "random":
        b = element(4)
    elif shape == "ground":
        b = ring.ground_new(draw(coefficients))
    elif shape == "equal":
        b = a
    elif shape == "monomial":
        b = ring.from_dict({draw(monomials): draw(coefficients)})
    elif shape == "divides":
        b = a * element(3)
    elif shape == "common":
        f = element(3)
        a, b = a * f, element(3) * f
    else:
        b = ring.zero
    if draw(st.booleans()):
        a, b = b, a
    if draw(st.booleans()):  # operands with a constant factor, as the witness lift passes
        k = draw(coefficients)
        a, b = a.mul_ground(k), b.mul_ground(k if shape == "equal" else draw(coefficients))
    return a, b


def _units(domain):
    return ZZ_I.units if domain is ZZ_I else [ZZ(1), ZZ(-1)]


@settings(deadline=None, max_examples=150)
@given(kernel_operands())
def test_gcd_kernel_matches_sympys_sparse_cofactors(operands):
    a, b = operands
    g, cff, cfg = gcd_cofactors(a, b)
    assert g * cff == a and g * cfg == b
    h = a.cofactors(b)[0]
    # the gcd, content included, up to a unit
    assert any(g == h.mul_ground(u) for u in _units(a.ring.domain))


def _sympy_gcd(a, b):
    """gcd_cofactors' answer from sympy's dense gcd, the kernel's fallback."""
    ring = a.ring
    return tuple(map(ring.from_dense, dmp_inner_gcd(
        a.to_dense(), b.to_dense(), ring.ngens - 1, ring.domain)))


def _univariate(text):
    return _reference_ring(1, ZZ).from_expr(sympify(text.replace("x", "t0")))


def _univariate_list(text):
    """The CoefficientList of a polynomial in x over ZZ, the library's kind in one variable."""
    return _from_sympy(_univariate(text))


# A pair whose first xi finds a spurious integer factor, so the packed kernel
# takes a second try
RETRIED = ("-3*x**8 - 7*x**7 + 7*x**6 + 2*x**5 - 10*x**4 + 2*x**3 + 4*x**2 - 4*x",
           "-6*x**8 + x**7 + 10*x**6 + 7*x**5 - 13*x**4 - 10*x**3 + 11*x**2 + 6*x - 6")


def test_packed_gcd_retries_with_a_larger_xi(monkeypatch):
    tries = {}  # each xi once, in the order of the tries: a try unpacks the gcd and cofactors
    unpacked = polynomials._unpacked
    monkeypatch.setattr(polynomials, "_unpacked",
                        lambda value, xi: tries.setdefault(xi) or unpacked(value, xi))
    a, b = map(_univariate_list, RETRIED)
    expected = _sympy_gcd(*map(_univariate, RETRIED))
    assert gcd_cofactors(a, b) == tuple(map(_from_sympy, expected))
    tries = list(tries)
    assert len(tries) == 2 and tries[1] > tries[0]
    # every xi keeps GCDHEU's bound 2 * min(|f|, |g|) + 2 on the primitive parts
    assert tries[0] >= 2 * min(10, 13) + 2


# (x + 1)^7 times x - 1 and times x + 2: the first xi, 2 * 14 + 29 = 57, is
# below twice the gcd's coefficient 35, so its digits do not fit, while those
# of the cofactor x + 2 of the operand of norm 105 do
HIDDEN = ([-1, -6, -14, -14, 0, 14, 14, 6, 1], [2, 15, 49, 91, 105, 77, 35, 9, 1])


@pytest.mark.parametrize("swap", [False, True], ids=["g-side", "f-side"])
def test_a_cofactor_candidate_finds_a_gcd_whose_digits_do_not_fit(monkeypatch, swap):
    f, g = HIDDEN[::-1] if swap else HIDDEN
    monkeypatch.setattr(polynomials, "_PACKED_TRIES", 1)
    found = []
    divided = polynomials._divided_by_cofactor
    monkeypatch.setattr(polynomials, "_divided_by_cofactor",
                        lambda a, *rest: found.append(a) or divided(a, *rest))
    h, f_quotient, g_quotient = polynomials._image_gcd(f, g, max(map(abs, f)), max(map(abs, g)))
    assert h == [1, 7, 21, 35, 35, 21, 7, 1]
    assert (f_quotient, g_quotient) == (([2, 1], [-1, 1]) if swap else ([-1, 1], [2, 1]))
    # the first xi: the gcd's digits fail, then f's cofactor, which is the
    # answer when f is the operand of norm 105, else g's
    assert found == ([f] if swap else [f, g])


# decide's pair at key 4242.1, op 50, highest degree first: its primitive parts
# are x^2 (x - 1)^2 (x^2 + 8)^2 and a degree-14 polynomial whose cofactor is
# even at every integer, as x^2 (x - 1)^2 is, so the gcd of the packed images
# carries an integer factor (48, 36, 1296, 48 and 162 on the first five xi)
# too large for the gcd's digits, and no cofactor is the image's quotient
FIXED_DIVISOR = ([65536, -131072, 1114112, -2097152, 5242880, -8388608, 4194304, 0, 0],
                 [1572864, 3145728, 96993280, 78381056, 2071199744, 532676608, 20296237056,
                  -905969664, 91637153792, -18253611008, 133143986176, -13958643712,
                  -132070244352, 154618822656, -51539607552])


def test_a_pair_whose_cofactors_share_a_fixed_divisor_takes_the_packed_kernel(monkeypatch):
    calls = []
    inner = polynomials.dmp_inner_gcd
    monkeypatch.setattr(polynomials, "dmp_inner_gcd",
                        lambda *args: calls.append(args) or inner(*args))
    a, b = (_listed(v[::-1]) for v in FIXED_DIVISOR)
    expected = inner(*([ZZ(v) for v in dense] for dense in FIXED_DIVISOR), 0, ZZ)
    assert calls == []
    assert gcd_cofactors(a, b) == tuple(_listed(v[::-1]) for v in expected)
    assert calls == []


def test_the_packed_kernel_falls_back_to_sympy(monkeypatch):
    # the packed entry's answers, before it is made to give every pair back
    two = _reference_ring(2, ZZ)
    pairs = [tuple(map(_univariate_list, RETRIED)), tuple(_listed(v) for v in HIDDEN),
             (_univariate_list("x**2 - 1"), _univariate_list("3*x**2 + 6*x + 3"))]
    pairs += [tuple(map(two.from_expr, sympify(texts))) for texts in (
        ["t0**2 - t1**2", "t0**2 + 2*t0*t1 + t1**2"],
        ["6*t0**2*t1 - 6*t1", "4*t0*t1**2 + 4*t1**2 - 2*t0 - 2"],
        ["t0*t1 + 1", "t0 - t1 + 3"])]
    packed = [gcd_cofactors(a, b) for a, b in pairs]
    calls, found = [], []
    inner, image = polynomials.dmp_inner_gcd, polynomials._image_gcd
    monkeypatch.setattr(polynomials, "dmp_inner_gcd",
                        lambda *args: calls.append(args[-1]) or inner(*args))
    monkeypatch.setattr(polynomials, "_image_gcd",
                        lambda *args: found.append(image(*args)) or found[-1])
    monkeypatch.setattr(polynomials, "_PACKED_TRIES", 0)
    for (a, b), expected in zip(pairs, packed):
        got = gcd_cofactors(a, b)
        # no try left: the packed entry gave the pair back, and sympy's dense gcd answered
        assert found[-1] is None and calls[-1] is ZZ
        if type(a) is CoefficientList:
            assert all(map(_is_canonical, got))
            assert tuple(map(_as_sympy, got)) == _as_sympy(a).cofactors(_as_sympy(b))
        else:
            assert all(type(v) is type(a) and v.ring is a.ring for v in got)
            assert got == a.cofactors(b)
        assert got == expected
        g, cff, cfg = got
        assert g * cff == a and g * cfg == b
    assert len(calls) == len(found) == len(pairs)
    a, b = map(_univariate_list, RETRIED)
    assert gcd_cofactors(a, b) == tuple(map(_from_sympy, _sympy_gcd(*map(_univariate, RETRIED))))


def test_the_gcd_kernel_is_chosen_by_the_ring(monkeypatch):
    calls, packed = [], []  # the rings of the dense gcds; the ngens of the packed entry's pairs
    inner, entry = polynomials.dmp_inner_gcd, polynomials._packed_gcd
    monkeypatch.setattr(polynomials, "dmp_inner_gcd",
                        lambda *args: calls.append(args[-1]) or inner(*args))
    monkeypatch.setattr(polynomials, "_packed_gcd",
                        lambda a, b: packed.append(a.ring.ngens) or entry(a, b))
    a, b = map(_univariate_list, RETRIED)
    gcd_cofactors(a, b)
    gcd_cofactors(_univariate_list("x**2 - 1"), _univariate_list("x**2 + 2*x + 1"))
    # univariate ZZ, as coefficient lists: the packed kernel, no sympy call
    assert calls == [] and packed == [1, 1]
    two = _reference_ring(2, ZZ)
    gcd_cofactors(*map(two.from_expr, sympify(["t0**2 - t1**2", "t0**2 + 2*t0*t1 + t1**2"])))
    # two variables over ZZ: the same packed entry, at powers of one xi
    assert calls == [] and packed == [1, 1, 2]
    gaussian = _reference_ring(1, ZZ_I)
    x = gaussian.gens[0]
    gcd_cofactors(x**2 + 1, x**2 + ZZ_I(0, 2) * x - 1)  # (x + i)(x - i) and (x + i)^2
    assert calls == [ZZ_I] and packed == [1, 1, 2]
    # a caller's own sympy elements of ZZ[x] take the same packed entry, under
    # the identity substitution, and no dense gcd
    g, cff, cfg = gcd_cofactors(*map(_univariate, RETRIED))
    assert calls == [ZZ_I] and packed == [1, 1, 2, 1]
    assert g == _sympy_gcd(*map(_univariate, RETRIED))[0]


# -- the packed kernel in two or more variables ---------------------------------


@st.composite
def multivariate_operands(draw):
    """(a, b) in ZZ[t0, t1] or ZZ[t0, t1, t2] with a planted common factor, each
    perhaps with a content and a monomial factor of its own, with coefficients
    up to 3 (where the images share factors more often) or up to 10^12."""
    nvars = draw(st.integers(2, 3))
    ring = _reference_ring(nvars, ZZ)
    height = draw(st.sampled_from([3, 10**12]))
    coefficients = st.integers(-height, height).filter(bool).map(ZZ)
    monomials = st.tuples(*[st.integers(0, 3)] * nvars)

    def element(max_size):  # nonzero
        return ring.from_dict(draw(st.dictionaries(monomials, coefficients, min_size=1,
                                                   max_size=max_size)))

    common = element(4)
    a, b = element(5) * common, element(5) * common
    for _ in range(2):
        if draw(st.booleans()):
            monomial = ring.from_dict({draw(monomials): ZZ(1)})
            a = a.mul_ground(ZZ(draw(st.integers(2, 6)))) * monomial
        a, b = b, a
    return a, b


@settings(deadline=None, max_examples=150)
@given(multivariate_operands())
def test_multivariate_gcd_agrees_with_sympys_dense_gcd(operands):
    a, b = operands
    g, cff, cfg = gcd_cofactors(a, b)
    assert g * cff == a and g * cfg == b
    h = _sympy_gcd(a, b)[0]
    assert g in (h, -h)
    assert all(type(c) is ZZ.dtype for v in (g, cff, cfg) for c in v.values())
    packed = polynomials._packed_gcd(a, b) if len(a) > 1 and len(b) > 1 and a != b else None
    if packed is not None:  # the packed answer itself, not only the kernel's
        assert packed[0] in (h, -h) and packed[0] * packed[1] == a and packed[0] * packed[2] == b


def _spied(monkeypatch):
    """The rings of the dmp_inner_gcd calls and the results of _image_gcd, as lists."""
    calls, images = [], []
    inner, image_gcd = polynomials.dmp_inner_gcd, polynomials._image_gcd
    monkeypatch.setattr(polynomials, "dmp_inner_gcd",
                        lambda *args: calls.append(args[-1]) or inner(*args))
    monkeypatch.setattr(polynomials, "_image_gcd",
                        lambda *args: images.append(image_gcd(*args)) or images[-1])
    return calls, images


@pytest.mark.parametrize("a, b, gcd, sympy_calls", [
    # gcd 1, but the images share t^2, divided out before the gcd: t once t1
    # is divided out of the second operand, 2 t0 + t1 -> 2 t^3 + t
    ("2*t0**2 + 5*t0*t1 + 3*t1**2", "2*t0*t1 + t1**2", "1", 0),
    # a gcd with no constant term: its image t^5 - t^2 is t^2 times the gcd H found
    ("t0*t1 - t1**3", "(t0 - t1**2)**2", "t0 - t1**2", 0),
    # gcd 1, but the images share t - 1: t0 - 1 -> t^2 - 1 and t1 - 1 -> t - 1
    ("t0 - 1", "t1 - 1", "1", 1),
    ("6*t0*t1 + 4", "10*t0 + 2*t1**2", "2", 0),  # only the content is shared
    ("t0**2*t1 + t0*t1**3", "t0**3*t1**2 - 3*t0*t1", "t0*t1", 0),  # only a monomial
    ("12*t0**3*t1**2 + 6*t0**2*t1**3", "(8*t0**2 + 4*t0*t1)*(t1 - 3)", "2*t0*(2*t0 + t1)", 0),
    ("(t0*t2 + t1 + 1)*(t0 - t2)", "(t0*t2 + t1 + 1)*(t1**2 + 3)", "t0*t2 + t1 + 1", 0),
    # a cofactor with larger coefficients than the smaller operand: its digits
    # are taken again at the larger operand's own xi
    ("(3*t0**2 + 1)*(648*t0**9 - 1503*t0**5 - 1050*t0**4 + 9)*(t1 + 1)",
     "(2*t0 + 1)*(3*t0**2 + 1)*(t1 + 1)", "(3*t0**2 + 1)*(t1 + 1)", 0),
])
def test_packed_multivariate_gcds_of_pinned_pairs(monkeypatch, a, b, gcd, sympy_calls):
    ring = _reference_ring(3 if "t2" in a else 2, ZZ)
    a, b, expected = (ring.from_expr(sympify(text)) for text in (a, b, gcd))
    calls, images = _spied(monkeypatch)
    g, cff, cfg = gcd_cofactors(a, b)
    assert g in (expected, -expected) and g * cff == a and g * cfg == b
    assert all(type(c) is ZZ.dtype for v in (g, cff, cfg) for c in v.values())
    assert len(calls) == sympy_calls and len(images) == 1
    if sympy_calls:
        # the images' gcd was certified, and only its decoding failed: no
        # larger xi can remove a factor of the images, so sympy answered at once
        assert images[0] is not None


@pytest.mark.parametrize("other, n, sympy_calls", [
    # norms 3 and 1: the larger operand's first xi is 35, of 6 bits, and the
    # images have (n + 1) * 3 digits: 32,760 bits for n = 1819, 32,778 for 1820
    ("t1 - 1", 1819, 0), ("t1 - 1", 1820, 1),
    # norms 3 and 10^12 + 1: 41 bits a digit, 32,718 bits for n = 265 and
    # 32,841 for n = 266, though at the smaller norm's xi (6 bits) both pairs
    # would pack into fewer than 5,000
    ("10**12*t1 - 1", 265, 0), ("10**12*t1 - 1", 266, 1),
])
def test_the_packed_size_rule_is_pinned_on_both_sides(monkeypatch, other, n, sympy_calls):
    # g = t0^n + t1 + 1 with the cofactors t1 + 2 and other
    ring = _reference_ring(2, ZZ)
    t0, t1 = ring.gens
    g = t0**n + t1 + 1
    a, b = g * (t1 + 2), g * ring.from_expr(sympify(other))
    assert polynomials._PACKED_BITS == 2 ** 15
    calls, images = _spied(monkeypatch)
    h, cff, cfg = gcd_cofactors(a, b)
    assert h in (g, -g) and h * cff == a and h * cfg == b
    assert len(calls) == sympy_calls and len(images) == 1 - sympy_calls


@pytest.mark.parametrize("a, b, quotient", [
    ("x**3 - 1", "x - 1", "x**2 + x + 1"),  # a divisor
    ("-6*x**4 + 6", "2*x**2 + 2", "-3*x**2 + 3"),  # a divisor with contents and signs
    ("x**3 + 1", "x - 1", None),  # a nonzero remainder
    ("x + 1", "x**2 + 1", None),  # a divisor of higher degree
    ("x + 4", "2*x + 8", None),  # only the content is missing: not over ZZ
    ("2*x + 8", "2", "x + 4"),  # a constant divisor
    ("0", "x + 1", "0"),
])
def test_exact_quotient_divides_over_zz_as_sympys_div_does(a, b, quotient):
    # the library's exact quotients are gcd cofactors, on coefficient lists
    got = _exact_quotient(_univariate_list(a), _univariate_list(b))
    assert got == (None if quotient is None else _univariate_list(quotient))
    q, r = _univariate(a).div(_univariate(b))
    assert (got is None) == bool(r) and (got is None or got == _from_sympy(q))


# -- CoefficientList: the lift's rows in one variable over ZZ ------------------

CoefficientList = polynomials.CoefficientList


def _listed(coefficients):
    """A CoefficientList of these ints (constant term first), trailing zeros dropped."""
    coefficients = list(coefficients)
    while coefficients and not coefficients[-1]:
        coefficients.pop()
    return CoefficientList([ZZ(c) for c in coefficients])


def _as_sympy(row):
    return _reference_ring(1, ZZ).from_dict({(e,): c for e, c in enumerate(row) if c})


def _is_canonical(row):
    """A CoefficientList with no trailing zero, every coefficient of ZZ's dtype."""
    return (type(row) is CoefficientList and (not row or row[-1] != 0)
            and all(type(c) is ZZ.dtype for c in row))


@st.composite
def coefficient_lists(draw, high=3000):
    """Zero, constants, monomials, dense rows and sparse rows of degree up to high,
    with coefficients of either sign up to 3 or beyond 2^64."""
    shape = draw(st.sampled_from(["zero", "constant", "monomial", "dense", "sparse"]))
    height = draw(st.sampled_from([3, 2**70]))
    nonzero = st.integers(-height, height).filter(bool)
    if shape == "zero":
        return _listed([])
    if shape == "constant":
        return _listed([draw(nonzero)])
    if shape == "monomial":
        return _listed([0] * draw(st.integers(1, high)) + [draw(nonzero)])
    if shape == "dense":
        return _listed(draw(st.lists(st.integers(-height, height), max_size=7))
                       + [draw(nonzero)])
    exponents = draw(st.sets(st.integers(0, high), min_size=2, max_size=4))
    coefficients = [0] * (max(exponents) + 1)
    for e in exponents:
        coefficients[e] = draw(nonzero)
    return _listed(coefficients)


@settings(deadline=None, max_examples=200)
@given(coefficient_lists(), coefficient_lists(),
       st.sampled_from([0, 1, -1, 6, -2**70]))
def test_coefficient_list_arithmetic_matches_sympys_sparse_elements(a, b, k):
    sa, sb = _as_sympy(a), _as_sympy(b)
    for got, expected in ((a * b, sa * sb), (a + b, sa + sb), (a - b, sa - sb),
                          (b - a, sb - sa), (-a, -sa), (a.diff(0), sa.diff(0)),
                          (a.mul_ground(ZZ(k)), sa.mul_ground(ZZ(k)))):
        assert _is_canonical(got) and _as_sympy(got) == expected
    assert (a == b) == (sa == sb) and (a != b) == (sa != sb)
    assert a.is_ground == sa.is_ground and (not a or a.LC == sa.LC)
    assert (a == 1) == (sa == 1) and (a == 0) == (not sa)


@settings(deadline=None, max_examples=150)
@given(coefficient_lists(), coefficient_lists())
def test_coefficient_list_exact_quotient_matches_sympys_div(a, b):
    if not b:
        return
    sa, sb = _as_sympy(a), _as_sympy(b)
    product = a * b
    assert _exact_quotient(product, b) == a
    got = _exact_quotient(a, b)
    q, r = sa.div(sb)
    assert (got is None) == bool(r)
    if got is not None:
        assert _is_canonical(got) and _as_sympy(got) == q


def _exact_quotient(a, b):
    """a / b as a CoefficientList from the cofactors of gcd_cofactors(a, b), or None if b
    does not divide a: b divides a exactly when b's cofactor is a unit, +1 or -1."""
    g, cff, cfg = gcd_cofactors(a, b)
    return cff * cfg if cfg in (1, -1) else None


def _from_sympy(element):
    return _listed(element.get((e,), 0) for e in range(element.degree() + 1)) if element \
        else _listed([])


@st.composite
def list_gcd_operands(draw):
    """Pairs for the gcd kernel on lists: the shapes of coefficient_lists, to a
    degree that sympy's reference gcd answers quickly, or the packed kernel's
    planted factors.  test_coefficient_list_gcd_of_sparse_rows_of_high_degree
    takes degree 3000."""
    if draw(st.booleans()):
        return draw(coefficient_lists(high=60)), draw(coefficient_lists(high=60))
    return tuple(map(_from_sympy, _large_univariate(draw)))


@settings(deadline=None, max_examples=150)
@given(list_gcd_operands())
def test_coefficient_list_gcd_matches_sympys_cofactors(operands):
    a, b = operands
    if not a and not b:
        return
    g, cff, cfg = gcd_cofactors(a, b)
    assert all(map(_is_canonical, (g, cff, cfg)))
    assert g * cff == a and g * cfg == b
    sa, sb = _as_sympy(a), _as_sympy(b)
    assert _as_sympy(g) in (sa.gcd(sb), -sa.gcd(sb))


@st.composite
def ladder_pairs(draw):
    """Pairs in ZZ[x] as exponent -> coefficient dicts, shaped for every rung of
    gcd_cofactors: zero, constant, monomial and equal operands, and pairs with
    a planted common factor, each operand with a content and an x^mu factor
    of its own (both perhaps 1)."""
    shape = draw(st.sampled_from(["zero", "constant", "monomial", "equal", "common"]))
    height = draw(st.sampled_from([3, 10**12]))
    nonzero = st.integers(-height, height).filter(bool)

    def times(f, g):
        out = {}
        for e, u in f.items():
            for k, v in g.items():
                out[e + k] = out.get(e + k, 0) + u * v
        return {e: v for e, v in out.items() if v}

    def element(max_size=4):  # nonzero, times a content and an x^mu
        f = draw(st.dictionaries(st.integers(0, 6), nonzero, min_size=1, max_size=max_size))
        return times(f, {draw(st.integers(0, 3)): draw(st.integers(1, 12))
                         * draw(st.sampled_from([1, -1]))})

    common = element()
    a = times(element(), common)
    b = {"zero": {}, "constant": {0: draw(nonzero)}, "monomial": {draw(st.integers(0, 9)):
         draw(nonzero)}, "equal": dict(a), "common": times(element(), common)}[shape]
    return (b, a) if draw(st.booleans()) else (a, b)


@settings(deadline=None, max_examples=200)
@given(ladder_pairs())
def test_the_gcd_ladder_answers_lists_and_sympys_elements_alike(pair):
    # the same pair as CoefficientLists and as sympy's elements of ZZ[x]: one
    # ladder, one packed entry, the same triple up to a unit
    lists = [_listed([f.get(e, 0) for e in range(max(f, default=-1) + 1)]) for f in pair]
    sparse = list(map(_as_sympy, lists))
    g, cff, cfg = gcd_cofactors(*lists)
    h, chf, chg = gcd_cofactors(*sparse)
    assert all(map(_is_canonical, (g, cff, cfg)))
    assert all(type(c) is ZZ.dtype for v in (h, chf, chg) for c in v.values())
    assert g * cff == lists[0] and g * cfg == lists[1]
    assert h * chf == sparse[0] and h * chg == sparse[1]
    assert tuple(map(_as_sympy, (g, cff, cfg))) in ((h, chf, chg), (-h, -chf, -chg))


def test_coefficient_list_gcd_falls_back_to_sympy(monkeypatch):
    monkeypatch.setattr(polynomials, "_packed_gcd", lambda f, g: None)
    a = _listed([0, -6, 0, 6])  # 6 x (x - 1) (x + 1)
    b = _listed([0, -4, -4])  # -4 x (x + 1)
    g, cff, cfg = gcd_cofactors(a, b)
    assert all(map(_is_canonical, (g, cff, cfg)))
    assert (g, cff, cfg) == tuple(map(_from_sympy, _sympy_gcd(_as_sympy(a), _as_sympy(b))))


def test_coefficient_list_gcd_of_sparse_rows_of_high_degree():
    # gcd(x^3000 - 1, x^2000 - 1) = x^1000 - 1
    a, b = _listed([-1] + [0] * 2999 + [1]), _listed([-1] + [0] * 1999 + [1])
    g, cff, cfg = gcd_cofactors(a, b)
    assert g in (_listed([-1] + [0] * 999 + [1]), _listed([1] + [0] * 999 + [-1]))
    assert g * cff == a and g * cfg == b


class _Counted(int):
    """An int that counts the products it takes part in."""

    products = 0

    def __mul__(self, other):
        _Counted.products += 1
        return int(self) * int(other)

    __rmul__ = __mul__


def test_a_product_of_sparse_rows_costs_terms_times_terms(monkeypatch):
    monkeypatch.setattr(_Counted, "products", 0)
    high = 3000

    def sparse(terms):
        row = [0] * (max(terms) + 1)
        for e, c in terms.items():
            row[e] = _Counted(c)
        return CoefficientList(row)

    def plain(row):  # sympy's reference arithmetic would count too
        return _as_sympy(_listed(map(int, row)))

    a, b, c = sparse({0: 1, high: 2}), sparse({0: -3, 1: 1, high: 1}), sparse({high: 5})
    products = [a * b]
    assert _Counted.products == 2 * 3  # not (high + 1)^2
    products.append(c * b)
    assert _Counted.products == 2 * 3 + 3  # a one-term factor: one product per term of the other
    assert [plain(p) for p in products] == [plain(a) * plain(b), plain(c) * plain(b)]


def test_coefficient_lists_are_every_integer_row_in_one_variable_over_zz():
    x, y = Polynomial.variable(1, 1), Polynomial.variable(1, 2)
    num, den = polynomials.integer_pair(RationalFunction(x * x - 1, 2 * x + 4))
    assert all(map(_is_canonical, (num, den)))
    assert (num, den) == (_listed([-1, 0, 1]), _listed([2, 1]).mul_ground(ZZ(2)))
    # more variables and Gaussian values keep sympy's elements
    for r in (RationalFunction(y + 1, y - 1), RationalFunction(x.scale(I) + 1, x)):
        assert all(isinstance(v, PolyElement) for v in polynomials.integer_pair(r))
    # the scaling of rows hands out the kind of the row they are checked against:
    # the triple's own for the lift's internal check, and with no row sympy's
    # sparse elements, for verify_witness, which shares no arithmetic with the lift
    groups = [[RationalFunction(x.scale(Fraction(1, 2)) + 1)], [RationalFunction(x)]]
    ((scale, (row,)), _) = polynomials.integer_polynomials(groups, like=den)
    assert scale == 2 and row == _listed([2, 1]) and _is_canonical(row)
    ((scale, (row,)), (_, (other,))) = polynomials.integer_polynomials(groups)
    assert isinstance(row, PolyElement) and row.ring is other.ring and row.ring.domain is ZZ
    assert _from_sympy(row) == _listed([2, 1])
    # and the integer rows come back as triples of lists
    for value in (polynomials.integer_ratio(num, den), polynomials.monic_polynomial(
            _listed([4, 0, -2]))):
        _assert_kind(value)
    assert polynomials.integer_ratio(num, den) == RationalFunction(x * x - 1, 2 * x + 4)
    assert polynomials.monic_polynomial(_listed([4, 0, -2])) == x * x - 2
    # over a constant denominator: a negative integer, as a list and as a
    # two-variable sympy element, and the Gaussian constants 1 + i and -i
    p = X2 * Y2 - 2 * X2 + 3
    gaussian = x.scale(I) + 2
    for r, constant, element in ((x * x - 1, -6, ZZ(-6)), (p, -6, ZZ(-6)),
                                 (gaussian, 1 + I, ZZ_I(1, 1)), (gaussian, -I, ZZ_I(0, -1))):
        num, _ = polynomials.integer_pair(r)
        ratio = polynomials.integer_ratio(num, num.ring.ground_new(element))
        _assert_kind(ratio)
        assert ratio == r / constant


# -- one kind of element per ring: lists in one variable over ZZ ------------------
#
# Under sympy's gmpy2 ground types ZZ's dtype is mpz, not int, so the dtype
# check of _is_canonical sees mpz only in CI's gmpy2 cell.


def _assert_kind(value):
    """The value is a Polynomial exactly when its denominator is 1, and its triple
    holds the kind of its ring: canonical CoefficientLists in one variable over
    ZZ, sympy's elements otherwise."""
    assert isinstance(value, Polynomial) == value.is_polynomial(), value
    real = all(type(c) is Fraction for p in (value.num, value.den) for c in p.terms.values())
    for element in (value._a, value._b):
        if value.nvars == 1 and real:
            assert _is_canonical(element), (value, element)
        else:
            assert isinstance(element, PolyElement), (value, element)
            assert element.ring.domain is (ZZ if real else ZZ_I)


@settings(deadline=None, max_examples=80)
@given(term_pairs(), st.integers(0, 3))
# three variables, real and Gaussian: fixed, as random Gaussian gcds there take seconds
@example((3, {(1, 1, 0): Fraction(1, 2), (0, 0, 2): 3}, {(0, 1, 1): 1, (1, 0, 0): -2}), 2)
@example((3, {(1, 0, 1): I, (0, 2, 0): 1}, {(0, 0, 1): 1, (1, 1, 0): GaussianRational(2, -1)}), 3)
def test_every_value_holds_the_element_kind_of_its_ring(pair, exponent):
    nvars, f, g = pair
    p, q = Polynomial(f, nvars), Polynomial(g, nvars)
    assert RationalFunction(p) is p
    third = Fraction(1, 3)
    values = [p, q, p + q, p - q, p * q, -p, p ** exponent if p else p, p.derivative(1),
              p.scale(third), p.monic(), Polynomial.zero(nvars),
              Polynomial.constant(third, nvars), Polynomial.variable(1, nvars),
              Polynomial.monomial((2,) * nvars, -third, nvars), RationalFunction.zero(nvars),
              RationalFunction.constant(third, nvars),
              # Gaussian operands whose imaginary parts cancel
              (p + q.scale(I)) - q.scale(I),
              (p + 1).scale(I) * RationalFunction.constant(-I, nvars)]
    if q:
        x = Polynomial.variable(1, nvars)
        r = RationalFunction(p + 1, q)
        values += [r, r + p, r - RationalFunction(p, q * x + 1), r * r, r / (x + 2),
                   r.derivative(nvars), r.num, r.den, r.inverse() if r else r, q.inverse(),
                   p / q, r / r if r else r, r * q.den - r * q]
        # a quotient that cancels is the polynomial, equal to it and hashed alike
        for same in (RationalFunction(p * q, q), p * q / q, (p / q) * q, p + r - r):
            _assert_kind(same)
            assert same == p and hash(same) == hash(p)
        assert r * q == p + 1 and hash(r * q) == hash(p + 1)
    for value in values:
        _assert_kind(value)
        again = pickle.loads(pickle.dumps(value))
        assert again == value and type(again) is type(value)


def test_a_variable_is_differentiated_by_its_index_on_either_kind():
    # a CoefficientList takes the index 0 as its sympy element does (see the
    # arithmetic test above); a sympy element in two and three variables, over
    # ZZ and ZZ_I, is differentiated by index and by generator alike
    rng = random.Random(37)
    for nvars in (2, 3):
        for domain in (ZZ, ZZ_I):
            ring = _reference_ring(nvars, domain)
            for _ in range(5):
                element = ring.from_dict({
                    tuple(rng.randint(0, 3) for _ in range(nvars)):
                        domain(rng.choice((-1, 1)) * rng.randint(1, 9)) for _ in range(5)})
                for j, x in enumerate(ring.gens):
                    assert element.diff(j) == element.diff(x)
    # and a value's derivative by its variable's index, on a value of either kind
    for nvars in (1, 2, 3):
        for j in range(1, nvars + 1):
            x = Polynomial.variable(j, nvars)
            assert x.terms == {tuple(int(i == j) for i in range(1, nvars + 1)): 1}
            _assert_kind(x)
            assert (x * x + x).derivative(j) == x.scale(2) + 1
            assert all(x.derivative(i).is_zero() for i in range(1, nvars + 1) if i != j)


def test_integer_rows_take_the_kind_of_the_row_they_are_checked_against():
    x = Polynomial.variable(1, 1)
    groups = [[x.scale(Fraction(1, 3)) - 1, x * x], [Polynomial.constant(2, 1)]]
    list_row, _ = polynomials.integer_pair(x + 1)
    for like in (list_row, list_row.ring.one):
        rows = [v for _, values in polynomials.integer_polynomials(groups, like=like)
                for v in values]
        assert all(map(_is_canonical, rows))
        assert rows == [_listed([-3, 1]), _listed([0, 0, 3]), _listed([2])]
    # with no row, or one of sympy's, they are sympy's elements, in one ring
    two, _ = polynomials.integer_pair(X2 + Y2)
    sparse = polynomials._sparse(list_row)
    gaussian, _ = polynomials.integer_pair((x + 1).scale(I))
    for like in (None, sparse, two, gaussian):
        rows = [v for _, values in polynomials.integer_polynomials(groups, like=like)
                for v in values]
        assert all(isinstance(v, PolyElement) and v.ring is rows[0].ring for v in rows)
        assert [_from_sympy(v) for v in rows] == [
            _listed([-3, 1]), _listed([0, 0, 3]), _listed([2])]
    # a Gaussian value takes every row of the groups to ZZ_I[x], whatever the row
    for like in (None, list_row):
        rows = [v for _, values in polynomials.integer_polynomials(
            groups + [[x.scale(I)]], like=like) for v in values]
        assert all(isinstance(v, PolyElement) and v.ring.domain is ZZ_I for v in rows)


def test_parsed_and_cancelled_values_hold_the_element_kind_of_their_ring():
    x = Polynomial.variable(1, 1)
    real = [parse_rational("(x^2 - 1)/(2*x + 4)", 1), X + 1]
    real += list(parse_operator("(x^2 + 1/2)*D - x", 1).terms.values())
    # the imaginary parts cancel in a sum and in a product: the value moves back to ZZ[x]
    real += [(x + I) - I, RationalFunction(x.scale(I)) * RationalFunction.constant(-I, 1),
             RationalFunction(x.scale(I), (x + 1).scale(I))]
    for value in real:
        _assert_kind(value)
        assert type(value._a) is CoefficientList and type(value._b) is CoefficientList
    assert (x + I) - I == x
    # two variables and Gaussian values keep sympy's elements
    gaussian = parse_operator("(x + i)*D - 1", 1, 1, "complex")
    for value in [parse_rational("x1/(x2 + 1)", 2), X2 + Y2, x + I,
                  parse_rational("1/(x + i)", 1, "complex"), gaussian.terms[gaussian.head]]:
        _assert_kind(value)
        assert isinstance(value._a, PolyElement) and isinstance(value._b, PolyElement)
