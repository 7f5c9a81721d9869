"""Standard ranking, heads, monic normalization and cofactor-tracked reduction."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from weylclosure import (
    Derivative,
    OperatorVector,
    ZeroOperator,
    complete_to_riquier_basis,
    left_multiply_by_d,
    parse_operator,
    reduce_full,
)
from weylclosure.errors import InvalidInput
from weylclosure.ranking import pick_rule
from conftest import random_nonzero_operator, random_operator


def op(text, m=1, n=1):
    return parse_operator(text, m, n)


def monic(p):
    return p.left_scale(p.terms[p.head].inverse())


# -- ranking ---------------------------------------------------------------

def test_compare_mixed_partials():
    assert Derivative(1, (0, 1)).rank_key() < Derivative(1, (1, 0)).rank_key()


def test_compare_component_tiebreak():
    assert Derivative(1, (0,)).rank_key() < Derivative(2, (0,)).rank_key()


def test_compare_reflexive():
    assert Derivative(2, (1, 3)).rank_key() == Derivative(2, (1, 3)).rank_key()


derivative_strategy = st.builds(
    Derivative,
    st.integers(1, 2),
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
)


@settings(deadline=None, max_examples=100)
@given(derivative_strategy, derivative_strategy,
       st.tuples(st.integers(0, 3), st.integers(0, 3)))
def test_ranking_property(d1, d2, gamma):
    k1, k2 = d1.rank_key(), d2.rank_key()
    s1, s2 = d1.differentiate(gamma).rank_key(), d2.differentiate(gamma).rank_key()
    assert (k1 < k2, k1 == k2) == (s1 < s2, s1 == s2)


@settings(deadline=None, max_examples=60)
@given(derivative_strategy, derivative_strategy, derivative_strategy)
def test_ranking_is_total_and_transitive(a, b, c):
    ka, kb, kc = a.rank_key(), b.rank_key(), c.rank_key()
    # total: two different derivatives never tie
    assert (ka == kb) == (a == b)
    if ka <= kb and kb <= kc:
        assert ka <= kc


# -- heads and monic form --------------------------------------------------

def test_head_of_example_51():
    p = op("x^2*D^2 - 2*x*D + 2")
    assert p.head == Derivative(1, (2,))
    assert p.terms[p.head] == parse_operator("x^2", 1).coefficient(Derivative(1, (0,)))
    assert p.head.order == 2


def test_head_component_tiebreak():
    p = op("1 [u1] + 1 [u2]", 1, 2)
    assert p.head == Derivative(2, (0,))


def test_head_of_constant():
    p = op("5")
    assert p.head == Derivative(1, (0,)) and p.head.order == 0


def test_head_of_zero_raises():
    with pytest.raises(ZeroOperator):
        op("0").head


# the Riquier basis of one scalar operator in one variable is that operator made monic

def test_make_monic_example_51():
    basis = complete_to_riquier_basis([op("x^2*D^2 - 2*x*D + 2")])
    assert basis.elements == [op("D^2 - (2/x)*D + 2/x^2")]


def test_make_monic_negated():
    assert complete_to_riquier_basis([op("(-D+x)*(D+x)")]).elements == [op("D^2 - x^2 + 1")]


def test_make_monic_already_monic():
    assert complete_to_riquier_basis([op("D")]).elements == [op("D")]


# -- reduction -------------------------------------------------------------

def test_reduce_d3_by_monic_rule():
    rule = op("D^2 - (2/x)*D + 2/x^2")
    trace = reduce_full(op("D^3"), [rule])
    assert trace.normal_form.is_zero()
    assert trace.cofactors == {0: op("D + 2/x")}


def test_reduce_irreducible():
    trace = reduce_full(op("D + x"), [op("D^2 - x^2 + 1")])
    assert trace.normal_form == op("D + x")
    assert trace.cofactors == {}


def test_reduce_zero():
    trace = reduce_full(op("0"), [op("D")])
    assert trace.normal_form.is_zero() and trace.cofactors == {}


def test_reconstruction_identity_randomized(rng):
    for _ in range(25):
        m = rng.randint(1, 2)
        n = rng.randint(1, 2)
        p = random_operator(rng, m, n, order=3, degree=2)
        rules = [
            monic(random_nonzero_operator(rng, m, n, order=2, degree=1))
            for _ in range(rng.randint(1, 2))
        ]
        trace = reduce_full(p, rules)
        assert trace.reconstruct(rules) == p
        heads = [rule.head for rule in rules]
        assert all(pick_rule(delta, heads) is None for delta in trace.normal_form.terms)


def test_normal_form_unique_for_confluent_rules(rng):
    # {D1, D2} is confluent; shuffling the rule list cannot change the result.
    rules = [op("D1", 2), op("D2", 2)]
    for _ in range(10):
        p = random_operator(rng, 2, 1, order=3, degree=2)
        shuffled = rules[:]
        rng.shuffle(shuffled)
        assert reduce_full(p, rules).normal_form == reduce_full(p, shuffled).normal_form


def _reduce_sorting_every_step(p, rules):
    """The reference reduction: re-sort the operator and rebuild D^gamma * rule on every step."""
    heads = [rule.head for rule in rules]
    work, cofactors = p, {}
    while True:
        target = rule_index = None
        for delta in sorted(work.terms, key=Derivative.rank_key, reverse=True):
            j = pick_rule(delta, heads)
            if j is not None:
                target, rule_index = delta, j
                break
        if target is None:
            return work, cofactors
        gamma = tuple(a - b for a, b in zip(target.alpha, heads[rule_index].alpha))
        coeff = work.coefficient(target)
        work = work - left_multiply_by_d(gamma, rules[rule_index]).left_scale(coeff)
        step = OperatorVector.from_derivative(Derivative(1, gamma), p.m, 1, coeff)
        existing = cofactors.get(rule_index)
        cofactors[rule_index] = step if existing is None else existing + step


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32), st.integers(1, 2), st.integers(1, 2), st.integers(1, 3))
def test_reduce_full_matches_the_sort_every_step_reduction(seed, m, n, count):
    rng = random.Random(seed)
    p = random_operator(rng, m, n, order=3, degree=2, terms=4, polynomial_coeffs=False)
    rules = [monic(random_nonzero_operator(rng, m, n, order=2, degree=1))
             for _ in range(count)]
    trace = reduce_full(p, rules)
    normal_form, cofactors = _reduce_sorting_every_step(p, rules)
    assert trace.normal_form == normal_form
    assert trace.cofactors == cofactors
    # the same terms in the same order, so the printed forms agree as well
    assert list(trace.normal_form.terms) == list(normal_form.terms)
    assert list(trace.cofactors) == list(cofactors)


@pytest.mark.parametrize("rule", [
    op("2*D"),
    parse_operator("i*D + x", 1, 1, "complex"),
    op("(1/x)*D + 1"),
])
def test_reduce_full_rejects_a_rule_that_is_not_monic(rule):
    with pytest.raises(InvalidInput) as info:
        reduce_full(op("D^2"), [op("D^3"), rule])
    assert str(info.value) == "reduction rules must be monic"


@pytest.mark.parametrize("p, rules, message", [
    (op("D1", 2), [op("D")], "rule 0 has mismatched dimensions"),
    (op("D"), [op("D^2"), op("D [u2]", 1, 2)], "rule 1 has mismatched dimensions"),
])
def test_reduce_full_rejects_mismatched_rule_dimensions(p, rules, message):
    with pytest.raises(InvalidInput) as info:
        reduce_full(p, rules)
    assert str(info.value) == message


def test_reduce_full_rejects_a_zero_rule():
    with pytest.raises(InvalidInput) as info:
        reduce_full(op("D^2"), [op("D"), op("0")])
    assert str(info.value) == "reduction rules must be nonzero"


def test_pick_rule_prefers_the_highest_head_then_the_lowest_index():
    heads = [Derivative(1, (1, 0)), Derivative(1, (0, 1)), Derivative(1, (1, 1)),
             Derivative(1, (1, 1)), Derivative(2, (0, 0))]
    assert pick_rule(Derivative(1, (2, 1)), heads) == 2
    assert pick_rule(Derivative(1, (0, 3)), heads) == 1
    assert pick_rule(Derivative(2, (4, 4)), heads) == 4
    assert pick_rule(Derivative(1, (0, 0)), heads) is None
    assert pick_rule(Derivative(1, (0, 0)), []) is None
