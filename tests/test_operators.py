"""Normal-ordered operator arithmetic, coefficient slices and jet action."""

from fractions import Fraction

import pytest

from weylclosure import (
    DegreeExceeded,
    Derivative,
    EvaluationAtPole,
    InvalidInput,
    Jet,
    OperatorVector,
    apply_to_jet,
    left_multiply_by_d,
    parse_operator,
    scalar_operator_product,
)
from weylclosure import operators
from weylclosure.operators import cf_slice
from conftest import random_operator, returns_within

ZERO1 = (Fraction(0),)


def op(text, m=1, n=1):
    return parse_operator(text, m, n)


def jet_1d(point, values):
    return Jet((Fraction(point),), len(values) - 1, 1, 1,
               {Derivative(1, (k,)): Fraction(v) for k, v in enumerate(values)})


# -- left multiplication by D^beta ----------------------------------------

def test_commutation_relation_d_times_x():
    assert left_multiply_by_d((1,), op("x")) == op("x*D + 1")


def test_left_multiply_x_squared_d():
    assert left_multiply_by_d((1,), op("x^2*D")) == op("x^2*D^2 + 2*x*D")


def test_left_multiply_identity_exponent():
    p = op("x^2*D^2 - 2*x*D + 2")
    assert left_multiply_by_d((0,), p) == p


# -- scalar operator products ----------------------------------------------

def test_product_gives_x2_d3():
    lhs = scalar_operator_product(op("D"), op("x^2*D^2 - 2*x*D + 2"))
    assert lhs == op("x^2*D^3")


def test_product_identity_element():
    p = op("x*D^2 - 3", 1)
    assert scalar_operator_product(op("1"), p) == p


def test_product_monic_cofactor_form():
    lhs = scalar_operator_product(op("D + 2/x"), op("D^2 - (2/x)*D + 2/x^2"))
    assert lhs == op("D^3")


def test_defining_relations_structurally():
    m = 2
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            di = op(f"D{i}", m)
            xi = op(f"x{j}", m)
            commutator = (scalar_operator_product(di, xi)
                          - scalar_operator_product(xi, di))
            expected = op("1", m) if i == j else op("0", m)
            assert commutator == expected


def test_product_associativity_randomized(rng):
    for _ in range(15):
        a = random_operator(rng, 2, 1, order=2, degree=1, terms=2)
        b = random_operator(rng, 2, 1, order=2, degree=1, terms=2)
        c = random_operator(rng, 2, 1, order=1, degree=1, terms=2)
        lhs = scalar_operator_product(scalar_operator_product(a, b), c)
        rhs = scalar_operator_product(a, scalar_operator_product(b, c))
        assert lhs == rhs


def test_left_multiply_matches_product(rng):
    for _ in range(10):
        p = random_operator(rng, 2, 2, order=2, degree=2)
        beta = (rng.randint(0, 2), rng.randint(0, 2))
        d_op = OperatorVector.from_derivative(Derivative(1, beta), 2, 1)
        assert left_multiply_by_d(beta, p) == scalar_operator_product(d_op, p)


def test_product_shares_shifts_and_matches_one_shift_per_term(rng):
    # the product builds D^alpha p from D^(alpha - e_j) p; the reference
    # shifts p from scratch for every term of h
    for m, n in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        for _ in range(6):
            h = random_operator(rng, m, 1, order=3, degree=1, terms=4, polynomial_coeffs=False)
            p = random_operator(rng, m, n, order=2, degree=2, terms=3, polynomial_coeffs=False)
            expected = OperatorVector.zero(m, n)
            for d, f in h.terms.items():
                expected = expected + left_multiply_by_d(d.alpha, p).left_scale(f)
            assert scalar_operator_product(h, p) == expected


# -- coefficient slices ----------------------------------------------------

def test_cf_slice_example_51():
    values = cf_slice(op("x^2*D^2 - 2*x*D + 2"), 2, (Fraction(2),))
    assert values == [Fraction(2), Fraction(-4), Fraction(4)]


def test_cf_slice_zero_operator():
    assert cf_slice(op("0"), 2, ZERO1) == [Fraction(0)] * 3


def test_cf_slice_degree_exceeded():
    with pytest.raises(DegreeExceeded):
        cf_slice(op("D^3"), 2, ZERO1)


def test_cf_slice_propagates_pole():
    with pytest.raises(EvaluationAtPole):
        cf_slice(op("D^2 - (2/x)*D + 2/x^2"), 2, ZERO1)


def test_cf_slice_is_linear(rng):
    for _ in range(10):
        p = random_operator(rng, 2, 2, order=2)
        q = random_operator(rng, 2, 2, order=2)
        point = (Fraction(1), Fraction(2))
        lhs = cf_slice(p + q, 3, point)
        rhs = [a + b for a, b in zip(cf_slice(p, 3, point), cf_slice(q, 3, point))]
        assert lhs == rhs


# -- jet action ------------------------------------------------------------

def test_exp_jet_is_annihilated_by_d_minus_one():
    u = jet_1d(0, [1, 1, 1, 1, 1])
    out = apply_to_jet(op("D - 1"), u)
    assert out.order == 3 and out.is_zero()


def test_gaussian_jet_is_annihilated_by_d_plus_x():
    # Derivative values of exp(-x^2/2) at 0: series coefficients 1,0,-1/2,0,1/8
    # times k! give 1, 0, -1, 0, 3.
    u = jet_1d(0, [1, 0, -1, 0, 3])
    out = apply_to_jet(op("D + x"), u)
    assert out.order == 3 and out.is_zero()


def test_identity_operator_truncates():
    u = jet_1d(0, [2, 5, 7])
    out = apply_to_jet(op("1"), u)
    assert out.order == 2
    assert [out.value(Derivative(1, (k,))) for k in range(3)] == [2, 5, 7]


def test_truncate_drops_the_values_above_the_order():
    low = jet_1d(0, [2, 5, 7]).truncate(1)
    assert low.order == 1
    assert low.values == {Derivative(1, (0,)): 2, Derivative(1, (1,)): 5}


def test_truncate_refuses_an_order_above_its_own_or_below_zero():
    u = jet_1d(0, [2, 5, 7])
    for order in (3, -1):
        with pytest.raises(InvalidInput, match=f"jet of order 2 to order {order}"):
            u.truncate(order)
    assert u.truncate(2) == u
    assert u.truncate(0).values == {Derivative(1, (0,)): 2}


def test_derivative_keeps_the_equality_hash_and_repr_of_its_fields():
    d = Derivative(2, (1, 0))
    assert d == Derivative(2, (1, 0)) and d != Derivative(1, (1, 0))
    assert hash(d) == hash((2, (1, 0)))
    assert repr(d) == "Derivative(component=2, alpha=(1, 0))"
    with pytest.raises(AttributeError):
        d.component = 1


def test_a_derivative_is_the_tuple_of_its_component_and_alpha():
    d = Derivative(2, (1, 0))
    assert d == (2, (1, 0)) and (2, (1, 0)) == d and d != (1, (1, 0))
    component, alpha = d
    assert (component, alpha) == (d[0], d[1]) == (2, (1, 0))
    # either spelling finds the other's entry in a derivative table
    assert {(2, (1, 0)): "x"}[d] == "x"
    assert {d: "y"}[2, (1, 0)] == "y"
    assert len({d, (2, (1, 0)), Derivative(2, (1, 0))}) == 1


def test_apply_to_jet_truncation_underflow():
    u = jet_1d(0, [1, 1])
    with pytest.raises(InvalidInput):
        apply_to_jet(op("D^3"), u)


def test_apply_to_jet_builds_each_shift_once(monkeypatch):
    # the shifts D^beta (D + x), beta = 0..4, come one derivation from the
    # last: 4 derivations, where rebuilding each from D + x takes 1+2+3+4
    calls = []
    single = operators.apply_single_d

    def counting(j, p):
        calls.append(j)
        return single(j, p)

    monkeypatch.setattr(operators, "apply_single_d", counting)
    out = apply_to_jet(op("D + x"), jet_1d(0, [1, 0, -1, 0, 3, 0]))
    assert out.order == 4 and out.is_zero()
    assert len(calls) == 4


def test_apply_to_jet_commutes_with_products(rng):
    for _ in range(10):
        h = random_operator(rng, 1, 1, order=1, degree=1, terms=2)
        p = random_operator(rng, 1, 1, order=1, degree=1, terms=2)
        u = jet_1d(1, [rng.randint(-3, 3) for _ in range(6)])
        combined = apply_to_jet(scalar_operator_product(h, p), u)
        staged = apply_to_jet(h, apply_to_jet(p, u))
        common = min(combined.order, staged.order)
        assert combined.truncate(common) == staged.truncate(common)


def test_is_polynomial_row():
    assert op("x^2*D^2 - 2*x*D + 2").is_polynomial_row()
    assert not op("D^2 - (2/x)*D + 2/x^2").is_polynomial_row()
    assert op("0").is_polynomial_row()


# -- multi-indices outside N^m ---------------------------------------------
#
# A term D^alpha with a negative entry is no element of B_m(F)^n.  Built
# directly (the parser cannot write one), it must be rejected, not walked
# down forever by the shift kernel.

def outside():
    return OperatorVector.from_derivative(Derivative(1, (-1,)), 1, 1)


def test_product_rejects_a_term_outside_n_m():
    with returns_within(2):
        with pytest.raises(InvalidInput) as info:
            scalar_operator_product(outside() + op("x"), op("x*D + 1"))
        assert str(info.value) == ("left factor term given for unknown 1 with multi-index "
                                   "(-1,), which does not fit 1 variable(s) and 1 unknown(s)")
        with pytest.raises(InvalidInput, match="right factor term"):
            scalar_operator_product(op("D"), outside())
        with pytest.raises(InvalidInput, match="right factor term given for unknown 3"):
            scalar_operator_product(op("D"), OperatorVector.from_derivative(
                Derivative(3, (0,)), 1, 2))


@pytest.mark.parametrize("beta, m", [((-1,), 1), ((2, -1), 2)])
def test_left_multiply_rejects_a_negative_multi_index(beta, m):
    with returns_within(2):
        with pytest.raises(InvalidInput, match="shift given for unknown 1"):
            left_multiply_by_d(beta, op("x1*D1", 2) if m == 2 else op("x*D"))


def test_apply_to_jet_rejects_a_term_outside_n_m():
    with returns_within(2):
        with pytest.raises(InvalidInput, match="operator term given for unknown 1"):
            apply_to_jet(op("D + x") + outside(), jet_1d(0, [1, 0, -1, 0, 3]))


def test_operands_of_the_wrong_shape_are_rejected():
    p = op("x*D + 1")
    with pytest.raises(IndexError, match="derivation index 0"):
        operators.apply_single_d(0, p)
    with pytest.raises(InvalidInput, match="scalar operator"):
        scalar_operator_product(op("D [u2]", 1, 2), p)
    with pytest.raises(InvalidInput, match="variable counts differ"):
        scalar_operator_product(op("D1", 2), p)
    with pytest.raises(InvalidInput, match="dimensions differ"):
        apply_to_jet(op("D [u1]", 1, 2), jet_1d(0, [1, 0, -1]))
    with pytest.raises(InvalidInput, match="dimensions differ"):
        apply_to_jet(op("D1", 2), jet_1d(0, [1, 0, -1]))
