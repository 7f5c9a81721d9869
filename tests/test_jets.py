"""Jet-constraint matrices, formal solutions and solution-space dimensions."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from weylclosure import (
    Derivative,
    DerivativeClass,
    EvaluationAtPole,
    GaussianRational,
    InvalidInput,
    Polynomial,
    SBelowS0,
    basis_denominators,
    check_jet_constraints,
    complete_to_riquier_basis,
    constraint_matrix,
    constraint_nullspace,
    formal_solve,
    parse_operator,
    pick_regular_point,
    solution_space_dim,
)
from weylclosure import jets, operators, ranking, riquier, scalars
from weylclosure.operators import (
    MAX_JET_SIZE,
    Jet,
    apply_to_jet,
    cf_slice,
    delta_size,
    derivatives_up_to,
    left_multiply_by_d,
    multi_indices,
)
from conftest import random_generators, ranked_oracle, returns_within

ZERO = (Fraction(0),)
ONE = (Fraction(1),)


def op(text, m=1, n=1):
    return parse_operator(text, m, n)


def basis_of(*texts, m=1, n=1):
    return complete_to_riquier_basis([op(t, m, n) for t in texts], m, n)


def jet_1d(point, values):
    return Jet((Fraction(point),), len(values) - 1, 1, 1,
               {Derivative(1, (k,)): Fraction(v) for k, v in enumerate(values)})


# -- symbolic oracle -------------------------------------------------------
#
# The library evaluates Leibniz rows from Taylor coefficients at the point.
# These helpers build D^beta p over F(x) first and evaluate afterwards, which
# is an independent way to the same exact numbers.

def symbolic_constraint_rows(basis, s, point):
    """(rows, labels) of cf(D^beta p)|_point, each D^beta p shifted symbolically."""
    rows, labels = [], []
    for index, p in enumerate(basis.elements):
        shifted = {(0,) * basis.m: p}
        for beta in sorted(multi_indices(basis.m, s - p.degree()),
                           key=lambda b: (sum(b), b)):
            if beta not in shifted:
                j = next(k for k, e in enumerate(beta) if e)
                smaller = beta[:j] + (beta[j] - 1,) + beta[j + 1:]
                shifted[beta] = left_multiply_by_d(
                    tuple(1 if k == j else 0 for k in range(basis.m)),
                    shifted[smaller])
            rows.append(cf_slice(shifted[beta], s, point))
            labels.append((index, beta))
    return rows, labels


def symbolic_formal_solve(basis, point, init, order):
    """Principal values from symbolically shifted rules, evaluated at the point.

    It takes the lowest-index rule whose head divides the derivative, not the
    library's ranking-highest one: on a Riquier basis every choice gives the
    same formal solution.
    """
    values = {}
    for d in ranked_oracle(basis.m, basis.n, order):
        rule = next((j for j, head in enumerate(basis.heads) if head.divides(d)), None)
        if rule is None:
            values[d] = init.get(d, Fraction(0))
            continue
        beta = tuple(a - b for a, b in zip(d.alpha, basis.heads[rule].alpha))
        total = Fraction(0)
        for delta, c in left_multiply_by_d(beta, basis.elements[rule]).terms.items():
            if delta != d:
                total = total + c.evaluate(point) * values[delta]
        values[d] = -total
    return Jet(point, order, basis.m, basis.n, values)


def nonzero(jet):
    """The jet's nonzero values: all that a jet the library makes stores."""
    return {d: v for d, v in jet.values.items() if v}


def assert_matches_oracle(basis, point, rng, extra=2):
    s = basis.s0 + extra
    system = constraint_matrix(basis, s, point)
    rows, labels = symbolic_constraint_rows(basis, s, point)
    assert system.row_labels == labels
    assert system.rows == rows
    for _ in range(2):
        init = {d: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                for d in basis.parametric_up_to(s)}
        u = formal_solve(basis, point, init, s)
        assert u.values == nonzero(symbolic_formal_solve(basis, point, init, s))


def test_oracle_random_acceptance_6_systems(rng):
    checked = 0
    while checked < 12:
        m = rng.randint(1, 2)
        n = rng.randint(1, 2)
        gens = random_generators(rng, m, n, rng.randint(1, 2),
                                 order=2, degree=1, terms=2,
                                 polynomial_coeffs=checked % 3 != 0)
        basis = complete_to_riquier_basis(gens, m, n)
        point = pick_regular_point(basis_denominators(basis), m)
        assert_matches_oracle(basis, point, rng, extra=rng.randint(1, 2))
        checked += 1


@pytest.mark.parametrize("x0", [Fraction(1), Fraction(-1, 2)])
def test_oracle_euler_operator(x0):
    basis = basis_of("x^2*D^2 - 2*x*D + 2")
    assert_matches_oracle(basis, (x0,), random.Random(7), extra=3)


def test_oracle_two_variables_two_unknowns():
    basis = basis_of("D1 [u1] - x2 [u2]", "D2 [u1] + x1*D1 [u2]", m=2, n=2)
    assert len(basis.elements) > 1
    assert_matches_oracle(basis, (Fraction(1), Fraction(-2)), random.Random(8))


def test_oracle_complex_system_at_gaussian_point():
    basis = complete_to_riquier_basis(
        [parse_operator("(x^2 + i)*D^2 - i*x*D + 3", 1, 1, "complex")])
    point = (GaussianRational(1, 1),)
    assert_matches_oracle(basis, point, random.Random(9), extra=3)


def plan_cases():
    return {
        "euler": (basis_of("x^2*D^2 - 2*x*D + 2"), (Fraction(-1, 2),)),
        "two unknowns": (basis_of("D1 [u1] - x2 [u2]", "D2 [u1] + x1*D1 [u2]", m=2, n=2),
                         (Fraction(1), Fraction(-2))),
        "gaussian": (complete_to_riquier_basis(
            [parse_operator("(x^2 + i)*D^2 - i*x*D + 3", 1, 1, "complex")]),
            (GaussianRational(1, 1),)),
    }


@pytest.mark.parametrize("orders", [(6, 3), (3, 6)])
@pytest.mark.parametrize("case", ["euler", "two unknowns", "gaussian"])
def test_plan_prefix_and_extension_match_the_oracle(case, orders):
    basis, point = plan_cases()[case]
    rng = random.Random(10)
    for order in orders:
        init = {d: GaussianRational(rng.randint(-3, 3), rng.randint(-1, 1))
                for d in basis.parametric_up_to(order)}
        u = formal_solve(basis, point, init, order)
        assert u.values == nonzero(symbolic_formal_solve(basis, point, init, order))
    assert basis.solve_plans[point].order == 6


def off_pole_point(rng, basis, kind):
    """A point of the given kind ("integer", "rational", "gaussian") off the basis's poles."""
    dens = [d for d in basis_denominators(basis) if not d.is_constant()]
    while True:
        if kind == "integer":
            point = tuple(Fraction(rng.randint(-4, 4)) for _ in range(basis.m))
        elif kind == "rational":
            point = tuple(Fraction(rng.randint(-9, 9), rng.randint(2, 5)) for _ in range(basis.m))
        else:
            point = tuple(GaussianRational(rng.randint(-3, 3), rng.randint(1, 3))
                          for _ in range(basis.m))
        if all(d.evaluate(point) for d in dens):
            return point


@pytest.mark.parametrize("kind", ["integer", "rational", "gaussian"])
def test_matrix_and_solves_share_one_evaluation_in_any_call_order(kind):
    rng = random.Random(f"shared-evaluation/{kind}")
    for trial in range(8):
        m, n = rng.randint(1, 2), rng.randint(1, 2)
        gens = random_generators(rng, m, n, rng.randint(1, 2), order=2, degree=1, terms=2,
                                 polynomial_coeffs=trial % 2 == 0)
        basis = complete_to_riquier_basis(gens, m, n)
        point = off_pole_point(rng, basis, kind)
        s, order = basis.s0 + rng.randint(0, 2), basis.s0 + rng.randint(0, 3)
        calls = [("matrix", s), ("solve", order)]
        if trial % 4 >= 2:  # solve first
            calls.reverse()
        if trial % 2:  # then a solve above both orders, which extends the plan
            calls.append(("solve", max(s, order) + 1))
        jets_by_order = {}
        for what, k in calls:
            if what == "matrix":
                system = constraint_matrix(basis, k, point)
                rows, labels = symbolic_constraint_rows(basis, k, point)
                assert (system.rows, system.row_labels) == (rows, labels)
            else:
                init = {d: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                        for d in basis.parametric_up_to(k)}
                u = formal_solve(basis, point, init, k)
                assert u.values == nonzero(symbolic_formal_solve(basis, point, init, k))
                jets_by_order[k] = u
        # the two read the same rows: every solve to order >= s satisfies the matrix
        for k, u in jets_by_order.items():
            if k >= s:
                assert check_jet_constraints(u.truncate(s), system), (kind, trial)
        assert list(basis.solve_plans) == [point]


def test_a_polynomial_coefficient_is_expanded_once_per_point(monkeypatch):
    basis = basis_of("D^2 + x^3*D + 1/(x - 3)")
    (element,) = basis.elements
    polynomial = {delta for delta, c in element.terms.items() if c.is_polynomial()}
    assert len(polynomial) == 2
    built = []
    expand = jets._coefficient_derivatives

    def counting(c, point, order):
        built.append((c, point, order))
        return expand(c, point, order)

    monkeypatch.setattr(jets, "_coefficient_derivatives", counting)
    point, other = (Fraction(1),), (Fraction(-1, 2),)
    constraint_matrix(basis, 4, point)
    for order in (3, 6, 5, 8):
        formal_solve(basis, point, {Derivative(1, (0,)): Fraction(1)}, order)
    formal_solve(basis, other, {}, 4)
    for delta in polynomial:
        c = element.terms[delta]
        assert [p for d, p, _ in built if d is c] == [point, other]
    # the rational coefficient is expanded to the highest order asked, and
    # again only when a higher order is asked: the matrix's reach 4 - 2, then
    # the solves' 6 - 2 and 8 - 2
    (rational,) = [c for c in element.terms.values() if not c.is_polynomial()]
    assert [(p, order) for c, p, order in built if c is rational] == [
        (point, 2), (point, 4), (point, 6), (other, 2)]


def test_delta_is_enumerated_once_per_order_across_bases(monkeypatch):
    monkeypatch.setattr(operators, "_RANKINGS", {})
    asked = []
    build = operators._ranked_orders

    def recording(m, n, s, above=-1):
        asked.append((m, n, s, above))
        return build(m, n, s, above)

    monkeypatch.setattr(operators, "_ranked_orders", recording)
    first = basis_of("D1 [u1] - x2 [u2]", "D2 [u1] + x1*D1 [u2]", m=2, n=2)
    second = basis_of("D1 [u2] - 1 [u1]", "D2^2 [u1]", m=2, n=2)
    other = basis_of("D1 - x2", m=2)
    point = (Fraction(1), Fraction(2))
    constraint_matrix(first, 3, point)
    formal_solve(second, point, {}, 3)
    formal_solve(first, point, {}, 5)
    second.parametric_up_to(4)
    constraint_matrix(other, 3, point)
    other.parametric_up_to(3)
    assert asked == [(2, 2, 3, -1), (2, 2, 5, 3), (2, 1, 3, -1)]
    assert operators.ranked_delta(2, 2, 5)[0] == ranked_oracle(2, 2, 5)
    assert operators.ranked_delta(2, 1, 3)[0] == ranked_oracle(2, 1, 3)
    # each basis classifies its own derivatives over the one shared ranking
    for basis, order in ((first, 5), (second, 4), (other, 3)):
        ranked = operators.ranked_delta(basis.m, basis.n, order)[0]
        assert basis.ranked_rules == [ranking.pick_rule(d, basis.heads)
                                      for d in ranked[:delta_size(basis.m, basis.n, order)]]


# -- constraint matrices ---------------------------------------------------

def test_constraint_matrix_for_d_squared():
    system = constraint_matrix(basis_of("D^2"), 3, ZERO)
    assert [d.alpha for d in system.columns] == [(0,), (1,), (2,), (3,)]
    # rows are cf(D^2) and cf(D^3): unit vectors on delta_2 and delta_3
    assert sorted(system.rows) == sorted([
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ])


def test_constraint_matrix_rejects_s_below_s0():
    with pytest.raises(SBelowS0):
        constraint_matrix(basis_of("D^2"), 1, ZERO)


def test_constraint_matrix_pole_at_singular_point():
    with pytest.raises(EvaluationAtPole):
        constraint_matrix(basis_of("x^2*D^2 - 2*x*D + 2"), 2, ZERO)


def test_pole_message_gives_the_exact_point():
    basis = basis_of("(2*x - 1)*D + 1")
    with pytest.raises(EvaluationAtPole, match="^denominator vanishes at 1/2$"):
        constraint_matrix(basis, 2, (Fraction(1, 2),))
    basis = basis_of("D1 + 1/(x1 + x2)", m=2)
    with pytest.raises(EvaluationAtPole, match=r"at \(1, -1\)$"):
        formal_solve(basis, (Fraction(1), Fraction(-1)), {}, 2)


def test_constraint_matrix_size_guard_refuses_before_building(monkeypatch):
    basis = basis_of("D")
    # D has s rows over s + 1 columns: 315 * 316 is within the bound, 316 * 317 is not
    assert 315 * 316 <= MAX_JET_SIZE < 316 * 317
    system = constraint_matrix(basis, 315, ZERO)
    assert (len(system.rows), len(system.columns)) == (315, 316)

    def refuse(*args):
        raise AssertionError("a derivative table was built")

    monkeypatch.setattr(jets, "_derivative_table", refuse)
    with pytest.raises(InvalidInput) as info:
        constraint_matrix(basis, 316, ZERO)
    assert str(info.value) == (
        "the constraint matrix of order 316 has 316 rows and 317 columns, "
        f"100172 entries, more than the limit of {MAX_JET_SIZE}")


def test_constraint_matrix_refuses_an_oversized_delta_as_delta_size_does():
    # Delta_446 in two variables alone passes the bound, so the columns are
    # refused by delta_size before the entries are counted
    with pytest.raises(InvalidInput) as info:
        constraint_matrix(basis_of("D1", m=2), 446, (Fraction(0), Fraction(0)))
    assert str(info.value) == (
        "order 446 has 100128 derivatives in 2 variable(s) and 1 unknown(s), "
        f"more than the limit of {MAX_JET_SIZE}")
    assert delta_size(2, 1, 445) == 99681 and delta_size(2, 3, -1) == 0


def test_derivatives_up_to_refuses_past_the_bound():
    # |Delta_s| = n * C(s + m, m): C(448, 2) = 100128
    with pytest.raises(InvalidInput) as info:
        derivatives_up_to(2, 1, 446)
    assert str(info.value) == (
        "order 446 has 100128 derivatives in 2 variable(s) and 1 unknown(s), "
        f"more than the limit of {MAX_JET_SIZE}")
    assert len(derivatives_up_to(1, 2, 4)) == 10


def test_derivatives_above_an_order_follow_the_lower_delta():
    full = derivatives_up_to(2, 2, 5)
    for t in range(-1, 6):
        lower = derivatives_up_to(2, 2, t)
        # Delta_t is a prefix of Delta_5, and the suffix after it holds the
        # derivatives of orders t + 1 .. 5, each order in one run
        assert full[:len(lower)] == lower
        above = full[len(lower):]
        assert len(above) == delta_size(2, 2, 5) - delta_size(2, 2, t)
        assert [d.order for d in above] == sorted(d.order for d in above)
        assert all(t < d.order <= 5 for d in above)
    assert full[len(derivatives_up_to(2, 2, 5)):] == []


def test_multi_indices_yield_by_total_degree_then_lexicographically():
    for m in range(1, 5):
        for low in range(3):
            yielded = list(multi_indices(m, 5, low))
            assert yielded == sorted(yielded, key=lambda b: (sum(b), b))
            assert len(yielded) == len(set(yielded)) == sum(
                math.comb(t + m - 1, m - 1) for t in range(low, 6))


def test_delta_is_built_in_ranking_order_without_a_sort(monkeypatch):
    monkeypatch.setattr(operators, "_RANKINGS", {})
    for m in range(1, 6):
        for n in range(1, 4):
            for s in range(-1, 7):
                ranked = derivatives_up_to(m, n, s)
                assert ranked == ranked_oracle(m, n, s)
                assert len(ranked) == delta_size(m, n, s)


def test_a_caller_owns_the_list_derivatives_up_to_returns(monkeypatch, fresh_completion):
    monkeypatch.setattr(operators, "_RANKINGS", {})
    basis = basis_of("D1 [u1] - x2 [u2]", "D2 [u1] + x1*D1 [u2]", m=2, n=2)
    basis.ranked_up_to(3)
    ranked = operators.ranked_delta(2, 2, 3)[0]
    shared = list(ranked)
    listed = derivatives_up_to(2, 2, 3)
    assert listed == shared and listed is not ranked
    listed.reverse()
    listed.append(Derivative(1, (9, 9)))
    del derivatives_up_to(2, 2, 2)[:delta_size(2, 2, 0)]
    assert ranked == shared == derivatives_up_to(2, 2, 3)
    assert operators.ranked_delta(2, 2, 3)[0] is ranked
    assert basis.ranked_rules == [ranking.pick_rule(d, basis.heads) for d in ranked]


def test_ranked_up_to_builds_only_the_new_orders(monkeypatch):
    monkeypatch.setattr(operators, "_RANKINGS", {})
    basis = basis_of("D1 [u1] - x2 [u2]", "D2 [u1] + x1*D1 [u2]", m=2, n=2)
    asked = []
    build = operators._ranked_orders

    def recording(m, n, s, above=-1):
        asked.append((s, above))
        return build(m, n, s, above)

    monkeypatch.setattr(operators, "_ranked_orders", recording)
    assert basis.ranked_up_to(2) == 12
    low, low_position = operators.ranked_delta(2, 2, 2)
    assert basis.ranked_up_to(1) == 6
    assert basis.ranked_up_to(4) == 30
    assert asked == [(2, -1), (4, 2)]
    ranked, position = operators.ranked_delta(2, 2, 4)
    assert ranked == ranked_oracle(2, 2, 4)
    assert position == {(d.component, d.alpha): i for i, d in enumerate(ranked)}
    # an extension is published as a new list and map: the ones handed out before stay as they were
    assert low == ranked_oracle(2, 2, 2)
    assert low_position == {(d.component, d.alpha): i for i, d in enumerate(low)}
    assert basis.ranked_rules == [ranking.pick_rule(d, basis.heads) for d in ranked]


def test_position_is_keyed_by_the_derivative_itself(monkeypatch, fresh_completion):
    monkeypatch.setattr(operators, "_RANKINGS", {})
    basis = basis_of("D1 [u1] - x2 [u2]", "D2 [u1] + x1*D1 [u2]", m=2, n=2)
    basis.ranked_up_to(3)
    ranked, position = operators.ranked_delta(2, 2, 3)
    assert len(ranked) == 20
    for i, d in enumerate(ranked):
        assert position[d] == i
    # every basis of the same (m, n) reads the same list and map
    other = basis_of("D1 [u2]", m=2, n=2)
    other.ranked_up_to(2)
    shared = operators.ranked_delta(2, 2, 2)
    assert shared[0] is ranked and shared[1] is position
    assert other.ranked_rules == [ranking.pick_rule(d, other.heads) for d in ranked[:12]]


def test_check_jet_constraints_examples():
    system = constraint_matrix(basis_of("D^2"), 2, ZERO)
    assert check_jet_constraints(jet_1d(0, [1, 1, 0]), system)
    assert not check_jet_constraints(jet_1d(0, [1, 0, 1]), system)


def test_check_jet_constraints_order_mismatch():
    from weylclosure import InvalidInput
    system = constraint_matrix(basis_of("D^2"), 2, ZERO)
    with pytest.raises(InvalidInput):
        check_jet_constraints(jet_1d(0, [1, 1]), system)
    with pytest.raises(InvalidInput, match="base point"):
        check_jet_constraints(jet_1d(1, [1, 1, 0]), system)


# -- formal solutions ------------------------------------------------------

def test_formal_solve_exponential():
    basis = basis_of("D - 1")
    u = formal_solve(basis, ZERO, {Derivative(1, (0,)): Fraction(1)}, 8)
    assert [u.value(Derivative(1, (k,))) for k in range(9)] == [1] * 9


def test_formal_solve_gaussian():
    basis = basis_of("D + x")
    u = formal_solve(basis, ZERO, {Derivative(1, (0,)): Fraction(1)}, 4)
    assert [u.value(Derivative(1, (k,))) for k in range(5)] == [1, 0, -1, 0, 3]


def test_formal_solve_defaults_parametric_to_zero():
    u = formal_solve(basis_of("D - 1"), ZERO, {}, 4)
    assert u.is_zero()


def test_formal_solve_rejects_order_below_s0():
    with pytest.raises(SBelowS0):
        formal_solve(basis_of("D^2"), ZERO, {}, 1)


def test_formal_solve_pole_at_singular_point():
    with pytest.raises(EvaluationAtPole):
        formal_solve(basis_of("x^2*D^2 - 2*x*D + 2"), ZERO,
                     {Derivative(1, (0,)): Fraction(1)}, 4)


def test_formal_solve_rejects_principal_initial_value():
    init = {Derivative(1, (0,)): Fraction(1), Derivative(1, (2,)): Fraction(5)}
    with pytest.raises(InvalidInput, match="principal derivative D\\^2"):
        formal_solve(basis_of("D^2"), ZERO, init, 3)


def test_formal_solve_rejects_initial_value_above_the_order():
    basis = basis_of("D1", m=2)
    init = {Derivative(1, (0, 0)): Fraction(1), Derivative(1, (0, 5)): Fraction(7)}
    with pytest.raises(InvalidInput) as info:
        formal_solve(basis, (Fraction(0), Fraction(0)), init, 2)
    assert str(info.value) == "initial value given for D2^5 above the truncation order 2"


def test_formal_solve_checks_its_initial_values_in_one_call(monkeypatch, fresh_completion):
    monkeypatch.setattr(operators, "_RANKINGS", {})
    calls = []
    check_fits = jets.check_fits

    def counting(derivatives, m, n, what):
        calls.append(what)
        return check_fits(derivatives, m, n, what)

    monkeypatch.setattr(jets, "check_fits", counting)
    basis = basis_of("D1", m=2)
    init = {Derivative(1, (0, k)): Fraction(k + 1) for k in range(4)}
    # the ranking does not reach order 3 yet: formal_solve ranks Delta_3
    # before its lookups, so they find every value and no check runs
    u = formal_solve(basis, (Fraction(0), Fraction(0)), init, 3)
    assert calls == []
    assert all(u.value(d) == value for d, value in init.items())

    class CountingPosition(dict):
        lookups = 0

        def get(self, *args):
            CountingPosition.lookups += 1
            return dict.get(self, *args)

        def __getitem__(self, key):
            CountingPosition.lookups += 1
            return dict.__getitem__(self, key)

    # every value is checked by one lookup of its position in the shared
    # map, and no other check runs
    ranked, position = operators._RANKINGS[2, 1]
    operators._RANKINGS[2, 1] = ranked, CountingPosition(position)
    assert formal_solve(basis, (Fraction(0), Fraction(0)), init, 3) == u
    assert calls == [] and CountingPosition.lookups == len(init)
    # a lookup that fails runs the checks, once, with their message
    with pytest.raises(InvalidInput, match="^initial value given for D2\\^3 above"):
        formal_solve(basis, (Fraction(0), Fraction(0)), init, 2)
    assert calls == ["initial value"]


@pytest.mark.parametrize("d", [Derivative(2, (0, 1)), Derivative(1, (1,)),
                               Derivative(1, (0, 1, 0)), Derivative(1, (-1, 1)),
                               Derivative(0, (0, 0))])
def test_formal_solve_rejects_initial_value_outside_the_system(d):
    basis = basis_of("D1", m=2)
    with pytest.raises(InvalidInput, match="does not fit 2 variable\\(s\\) and 1 unknown"):
        formal_solve(basis, (Fraction(0), Fraction(0)), {d: Fraction(1)}, 2)


@pytest.mark.parametrize("d, message", [
    (Derivative(1, (5,)), "initial value given for D^5 above the truncation order 4"),
    (Derivative(2, (0,)), "initial value given for unknown 2 with multi-index (0,), "
                          "which does not fit 1 variable(s) and 1 unknown(s)"),
])
def test_formal_solve_reports_a_bad_initial_value_before_a_pole(d, message):
    basis = basis_of("x^2*D^2 - 2*x*D + 2")
    with pytest.raises(InvalidInput) as info:
        formal_solve(basis, ZERO, {d: Fraction(1)}, 4)
    assert str(info.value) == message
    assert basis.solve_plans.get(ZERO) is None


def test_point_of_the_wrong_length_is_rejected_before_a_plan():
    basis = basis_of("D1", "D2^2", m=2)
    with pytest.raises(InvalidInput) as info:
        formal_solve(basis, ONE, {}, 2)
    assert str(info.value) == "expected 2 coordinate(s), got 1"
    with pytest.raises(InvalidInput) as info:
        constraint_matrix(basis, 2, ONE)
    assert str(info.value) == "expected 2 coordinate(s), got 1"
    assert basis.solve_plans == {}


def test_empty_basis_rejects_a_point_of_the_wrong_length():
    empty = complete_to_riquier_basis([], 2, 1)
    point = (Fraction(1), Fraction(2), Fraction(3))
    with pytest.raises(InvalidInput) as info:
        formal_solve(empty, point, {}, 1)
    assert str(info.value) == "expected 2 coordinate(s), got 3"
    with pytest.raises(InvalidInput) as info:
        solution_space_dim(empty, 1, point)
    assert str(info.value) == "expected 2 coordinate(s), got 3"
    assert empty.solve_plans == {}


def test_formal_solve_builds_each_row_once_per_point(monkeypatch):
    betas = []
    leibniz_row = jets._leibniz_row

    def counting(table, beta):
        betas.append(beta)
        return leibniz_row(table, beta)

    monkeypatch.setattr(jets, "_leibniz_row", counting)
    basis = basis_of("x^2*D^2 - 2*x*D + 2")
    init = {Derivative(1, (0,)): Fraction(1)}
    first = formal_solve(basis, ONE, init, 5)
    # one row for each principal derivative D^2 .. D^5
    assert betas == [(0,), (1,), (2,), (3,)]
    plan = basis.solve_plans[ONE]
    assert formal_solve(basis, ONE, init, 5) == first
    assert formal_solve(basis, ONE, init, 3) == first.truncate(3)
    assert len(betas) == 4
    # a higher order builds only the rows of D^6 and D^7
    assert formal_solve(basis, ONE, init, 7).truncate(5) == first
    assert betas[4:] == [(4,), (5,)]
    assert basis.solve_plans[ONE] is plan
    # another point gets its own plan
    formal_solve(basis, (Fraction(2),), init, 3)
    assert len(betas) == 8
    assert basis.solve_plans[ONE] is plan and len(basis.solve_plans) == 2


def test_each_derivative_is_classified_once_per_basis(monkeypatch):
    basis = basis_of("D1 [u1] - x2 [u2]", "D2 [u1] + x1*D1 [u2]", m=2, n=2)
    order = basis.s0 + 3
    classified = []
    pick_rule = ranking.pick_rule

    def counting(d, heads):
        classified.append(d)
        return pick_rule(d, heads)

    for module in (ranking, riquier, jets):
        monkeypatch.setattr(module, "pick_rule", counting, raising=False)
    point = (Fraction(1), Fraction(2))
    constraint_matrix(basis, basis.s0 + 1, point)
    parametric = basis.parametric_up_to(order)
    init = {d: Fraction(k + 1) for k, d in enumerate(parametric)}
    low = {d: v for d, v in init.items() if d.order <= order - 1}
    formal_solve(basis, point, low, order - 1)
    formal_solve(basis, point, init, order)
    monkeypatch.undo()
    assert classified == ranked_oracle(2, 2, order)
    assert parametric == [d for d in classified
                          if basis.classify(d) is DerivativeClass.PARAMETRIC]


def test_constraint_matrix_classifies_no_derivative(monkeypatch):
    basis = basis_of("D1 [u1] - x2 [u2]", "D2 [u1] + x1*D1 [u2]", m=2, n=2)

    def refuse(d, heads):
        raise AssertionError(f"{d} was classified")

    for module in (ranking, riquier, jets):
        monkeypatch.setattr(module, "pick_rule", refuse, raising=False)
    system = constraint_matrix(basis, basis.s0 + 2, (Fraction(1), Fraction(2)))
    assert system.columns == ranked_oracle(2, 2, basis.s0 + 2)
    assert basis.ranked_rules == []


def test_formal_solve_satisfies_constraints():
    basis = basis_of("x^2*D^2 - 2*x*D + 2")
    init = {Derivative(1, (0,)): Fraction(1), Derivative(1, (1,)): Fraction(2)}
    u = formal_solve(basis, ONE, init, 6)
    system = constraint_matrix(basis, 6, ONE)
    assert check_jet_constraints(u, system)


def test_formal_solve_two_variable_gradient():
    # D1 u = u, D2 u = u has the separable solution exp(x1 + x2)
    basis = basis_of("D1 - 1", "D2 - 1", m=2)
    point = (Fraction(0), Fraction(0))
    u = formal_solve(basis, point, {Derivative(1, (0, 0)): Fraction(1)}, 3)
    for alpha in [(0, 0), (1, 0), (0, 1), (2, 1)]:
        if sum(alpha) <= 3:
            assert u.value(Derivative(1, alpha)) == 1


def test_a_value_that_cancels_in_a_solve_is_the_shared_zero():
    # u'' = u' + u with u = 1, u' = -1: the two pushes into u'' cancel
    basis = basis_of("D^2 - D - 1")
    init = {Derivative(1, (0,)): Fraction(1), Derivative(1, (1,)): Fraction(-1)}
    u = formal_solve(basis, ZERO, init, 5)
    assert Derivative(1, (2,)) not in u.values
    assert u.value(Derivative(1, (2,))) is scalars.ZERO
    assert [u.value(Derivative(1, (k,))) for k in range(6)] == [1, -1, 0, -1, -1, -2]
    assert u.values == nonzero(symbolic_formal_solve(basis, ZERO, init, 5))
    # an initial value given as a zero of another type is not stored either
    u = formal_solve(basis, ZERO, {Derivative(1, (0,)): GaussianRational(0)}, 3)
    assert u.values == {}


def test_every_jet_owns_its_values():
    basis, point = plan_cases()["two unknowns"]
    s = basis.s0 + 2
    init = {d: Fraction(k + 1) for k, d in enumerate(basis.parametric_up_to(s))}
    solved = formal_solve(basis, point, init, s)
    spanned = constraint_nullspace(constraint_matrix(basis, s, point))
    assert len(spanned) > 1
    kept = [dict(solved.values)] + [dict(jet.values) for jet in spanned]
    plan = basis.solve_plans[point]
    for jet in (solved, spanned[0]):
        for d in jet.values:
            jet.values[d] = Fraction(7)
        jet.values[Derivative(1, (s + 1, 0))] = Fraction(7)
    assert [dict(jet.values) for jet in spanned[1:]] == kept[2:]
    again = formal_solve(basis, point, init, s)
    rebuilt = constraint_nullspace(constraint_matrix(basis, s, point))
    assert basis.solve_plans[point] is plan
    assert [again.values] + [jet.values for jet in rebuilt] == kept
    for jet in [again] + rebuilt:
        assert all(jet.values.values())


@pytest.mark.parametrize("case", ["gaussian", "euler", "two unknowns"])
def test_solved_values_keep_their_scalar_types(case):
    # the Gaussian system takes Gaussian values; the real ones a Gaussian 1,
    # whose pushes must stay Gaussian products, never a bare real coefficient,
    # and Fraction(1), whose pushes are Fractions; every push is one product
    basis, point = plan_cases()[case]
    order = basis.s0 + 3
    parametric = basis.parametric_up_to(order)
    if case == "gaussian":
        rng = random.Random(11)
        inits = [{d: GaussianRational(rng.randint(-2, 2), rng.randint(-1, 1))
                  for d in parametric},
                 {d: GaussianRational(1) for d in parametric}]
    else:
        inits = [{d: GaussianRational(1)} for d in parametric]
        inits.append(dict.fromkeys(parametric, GaussianRational(1)))
        inits.append(dict.fromkeys(parametric, Fraction(1)))
    for init in inits:
        u = formal_solve(basis, point, init, order)
        expected = nonzero(symbolic_formal_solve(basis, point, init, order))
        assert u.values == expected
        for d, value in u.values.items():
            assert type(value) is type(expected[d]), d
    if case != "gaussian":
        # the int 1 gives the values of Fraction(1)
        assert (formal_solve(basis, point, dict.fromkeys(parametric, 1), order)
                == formal_solve(basis, point, inits[-1], order))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_library_jets_store_only_nonzero_values_and_match_the_oracle(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 2), rng.randint(1, 2)
    gens = random_generators(rng, m, n, rng.randint(1, 2), order=2, degree=1, terms=2,
                             polynomial_coeffs=seed % 3 != 0)
    basis = complete_to_riquier_basis(gens, m, n)
    q = random_generators(rng, m, n, 1, order=1, degree=1, terms=2)[0]
    point = pick_regular_point(basis_denominators(basis) + [
        c.den for p in gens + [q] for c in p.terms.values()], m)
    s = max(basis.s0, q.degree(), *(g.degree() for g in gens)) + rng.randint(0, 2)
    delta = derivatives_up_to(m, n, s)
    # sparse initial values, so that most solved values vanish
    init = {d: Fraction(rng.randint(-3, 3)) for d in basis.parametric_up_to(s)
            if rng.random() < 0.4}
    solved = formal_solve(basis, point, init, s)
    oracle = symbolic_formal_solve(basis, point, init, s)
    spanned = constraint_nullspace(constraint_matrix(basis, s, point))
    jets_and_oracles = [(solved, oracle)] + [
        (jet, symbolic_formal_solve(basis, point, {d: jet.value(d)
                                                   for d in basis.parametric_up_to(s)}, s))
        for jet in spanned]
    for jet, expected in jets_and_oracles:
        assert all(jet.values.values())
        assert [jet.value(d) for d in delta] == [expected.value(d) for d in delta]
    for g in gens:
        image = apply_to_jet(g, solved)
        assert image.values == {}  # every generator annihilates a formal solution
    image = apply_to_jet(q, solved)
    assert all(image.values.values())
    assert image == apply_to_jet(q, oracle)


# -- solution-space dimension ----------------------------------------------

def test_dimension_of_euler_type_equation():
    basis = basis_of("x^2*D^2 - 2*x*D + 2")
    for s in range(2, 6):
        assert solution_space_dim(basis, s, ONE) == 2


def test_euler_solutions_x_and_x_squared_in_nullspace():
    basis = basis_of("x^2*D^2 - 2*x*D + 2")
    system = constraint_matrix(basis, 4, ONE)
    # jets at 1 of u = x and u = x^2
    x_jet = jet_1d(1, [1, 1, 0, 0, 0])
    x2_jet = jet_1d(1, [1, 2, 2, 0, 0])
    assert check_jet_constraints(x_jet, system)
    assert check_jet_constraints(x2_jet, system)


def test_dimension_of_hermite_type_equation():
    basis = basis_of("(-D + x)*(D + x)")
    assert basis.elements == [op("D^2 - x^2 + 1")]
    assert solution_space_dim(basis, 4, ZERO) == 2


def test_unit_basis_has_no_solutions():
    basis = basis_of("D1 - x2", "D2", m=2)
    assert solution_space_dim(basis, 2, (Fraction(0), Fraction(0))) == 0


def test_nullity_matches_parametric_count_at_regular_points(rng):
    for _ in range(8):
        m = rng.randint(1, 2)
        n = rng.randint(1, 2)
        gens = random_generators(rng, m, n, rng.randint(1, 2), order=2, degree=1)
        basis = complete_to_riquier_basis(gens, m, n)
        s = basis.s0 + 2
        point = pick_regular_point(basis_denominators(basis), m)
        assert solution_space_dim(basis, s, point) == len(basis.parametric_up_to(s))


# -- jets-to-solutions round trip ------------------------------------------

def test_nullspace_jets_extend_and_restrict(rng):
    for _ in range(6):
        m = rng.randint(1, 2)
        gens = random_generators(rng, m, 1, rng.randint(1, 2), order=2, degree=1)
        basis = complete_to_riquier_basis(gens, m, 1)
        s = basis.s0 + 2
        point = pick_regular_point(basis_denominators(basis), m)
        system = constraint_matrix(basis, s, point)
        jets = constraint_nullspace(system)
        bigger = constraint_matrix(basis, s + 2, point) if jets else None
        for jet in jets:
            assert check_jet_constraints(jet, system)
            init = {d: jet.value(d) for d in basis.parametric_up_to(s + 2)}
            extended = formal_solve(basis, point, init, s + 2)
            assert extended.truncate(s) == jet
            assert check_jet_constraints(extended, bigger)


def test_formal_solutions_are_annihilated_by_basis(rng):
    for _ in range(6):
        gens = random_generators(rng, 1, 1, 1, order=2, degree=1)
        basis = complete_to_riquier_basis(gens, 1, 1)
        if not basis.elements:
            continue
        point = pick_regular_point(basis_denominators(basis), 1)
        init = {d: Fraction(rng.randint(-3, 3))
                for d in basis.parametric_up_to(basis.s0 + 5)}
        u = formal_solve(basis, point, init, basis.s0 + 5)
        for p in basis.elements:
            assert apply_to_jet(p, u).is_zero()


def test_formal_solve_is_deterministic():
    basis = basis_of("x^2*D^2 - 2*x*D + 2")
    init = {Derivative(1, (0,)): Fraction(3), Derivative(1, (1,)): Fraction(-1)}
    assert formal_solve(basis, ONE, init, 5) == formal_solve(basis, ONE, init, 5)


# -- regular points --------------------------------------------------------

def test_pick_regular_point_avoids_zeros():
    from weylclosure import Polynomial
    x = Polynomial.variable(1, 1)
    assert pick_regular_point([x], 1) == (Fraction(1),)
    assert pick_regular_point([x - Polynomial.constant(1, 1), x], 1) == (Fraction(-1),)
    with pytest.raises(ValueError, match="dimension mismatch"):
        pick_regular_point([x], 2)


def test_pick_regular_point_no_constraints():
    assert pick_regular_point([], 2) == (Fraction(0), Fraction(0))


def scan_regular_point(avoid, m, radius):
    """The lexicographic scan over the grid with coordinates 0, 1, -1, ..., radius, -radius."""
    candidates = [Fraction(0)]
    for k in range(1, radius + 1):
        candidates += [Fraction(k), Fraction(-k)]
    for point in itertools.product(candidates, repeat=m):
        if all(p.evaluate(point) for p in avoid if not p.is_zero()):
            return point
    return None


def test_pick_regular_point_matches_the_scan(rng):
    for trial in range(60):
        m = rng.randint(1, 3)
        spread = rng.randint(1, 3)
        avoid = []
        for _ in range(rng.randint(1, 3)):
            # products of linear factors with small integer roots, so that the
            # origin and other early grid points are often zeros
            p = Polynomial.constant(rng.choice([1, -2, 3]), m)
            for _ in range(rng.randint(1, 3)):
                factor = Polynomial.constant(rng.choice([0, rng.randint(-spread, spread)]), m)
                for j in rng.sample(range(1, m + 1), rng.randint(1, m)):
                    factor = factor + Polynomial.variable(j, m).scale(Fraction(rng.choice([1, -1])))
                p = p * factor
            avoid.append(p)
        # at most 3 * 3 linear factors, so at most 9 candidates fail per
        # coordinate and the 11 of radius 5 hold the first regular point
        expected = scan_regular_point(avoid, m, 5)
        assert expected is not None
        assert pick_regular_point(avoid, m) == expected, (trial, avoid)


def test_pick_regular_point_backs_up_past_a_dead_prefix():
    x, y = Polynomial.variable(1, 2), Polynomial.variable(2, 2)
    # at x = 0 the polynomial is y^3 - y, zero at y = 0, 1, -1 but not
    # identically zero, so x = 0 is kept and y runs on to 2: no prefix that
    # leaves every polynomial nonzero is ever dead, and none is undone
    p = x + y * y * y - y
    assert pick_regular_point([p], 2) == (Fraction(0), Fraction(2))
    assert scan_regular_point([p], 2, 2) == (Fraction(0), Fraction(2))


def test_pick_regular_point_passes_every_root_of_one_coordinate():
    # x3 * prod (x3^2 - k^2) vanishes at x3 = 0, +-1, ..., +-25: the first
    # regular point lies past the 51 candidates that the search used to be
    # limited to
    x3 = Polynomial.variable(3, 3)
    p = x3
    for k in range(1, 26):
        p = p * (x3 * x3 - k * k)
    with returns_within(1.0):
        assert pick_regular_point([p], 3) == (Fraction(0), Fraction(0), Fraction(26))


def test_pick_regular_point_in_six_variables_is_fast():
    start = time.perf_counter()
    point = pick_regular_point([Polynomial.variable(j, 6) for j in range(1, 7)], 6)
    assert point == (Fraction(1),) * 6
    # the grid scan would visit more than 51^5 points before this one
    assert time.perf_counter() - start < 1.0
