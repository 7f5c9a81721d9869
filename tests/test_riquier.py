"""Completion to Riquier bases: confluence, autoreduction, cofactors, classification."""

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import ZZ, ZZ_I
from sympy.polys.orderings import grlex
from sympy.polys.rings import PolyElement, PolyRing

from weylclosure import (
    Derivative,
    DerivativeClass,
    GaussianRational,
    InvalidInput,
    OperatorVector,
    Polynomial,
    RationalFunction,
    complete_to_riquier_basis,
    format_operator,
    format_polynomial,
    left_multiply_by_d,
    parse_operator,
    reduce_full,
    scalar_operator_product,
    verify_witness,
    weyl_closure_member,
)
from weylclosure import polynomials, riquier
from weylclosure.cli import main
from weylclosure.operators import derivatives_up_to
from weylclosure.polynomials import poly_lcm
from weylclosure.riquier import DerivationLog
from conftest import random_generators, random_operator, random_polynomial, returns_within


def op(text, m=1, n=1):
    return parse_operator(text, m, n)


def s_pairs_reduce_to_zero(basis):
    for j, f in enumerate(basis.elements):
        for k in range(j + 1, len(basis.elements)):
            g = basis.elements[k]
            hf, hg = f.head, g.head
            if hf.component != hg.component:
                continue
            gamma = tuple(max(a, b) for a, b in zip(hf.alpha, hg.alpha))
            spair = (left_multiply_by_d(tuple(c - a for c, a in zip(gamma, hf.alpha)), f)
                     - left_multiply_by_d(tuple(c - b for c, b in zip(gamma, hg.alpha)), g))
            if not reduce_full(spair, basis.elements).normal_form.is_zero():
                return False
    return True


def reconstructs_from_generators(basis, generators):
    for element, cofactors in zip(basis.elements, basis.generator_cofactors):
        total = OperatorVector.zero(basis.m, basis.n)
        for g, cof in cofactors.items():
            total = total + scalar_operator_product(cof, generators[g])
        if total != element:
            return False
    return True


# -- examples --------------------------------------------------------------

def test_commuting_pair_is_already_a_basis():
    basis = complete_to_riquier_basis([op("D1", 2), op("D2", 2)])
    assert sorted(p.head.alpha for p in basis.elements) == [(0, 1), (1, 0)]
    assert s_pairs_reduce_to_zero(basis)


def test_completion_collapses_to_unit():
    basis = complete_to_riquier_basis([op("D1 - x2", 2), op("D2", 2)])
    assert len(basis.elements) == 1
    assert basis.elements[0] == op("1", 2)
    assert basis.parametric_up_to(3) == []


def test_single_generator_just_goes_monic():
    basis = complete_to_riquier_basis([op("x^2*D^2 - 2*x*D + 2")])
    assert basis.elements == [op("D^2 - (2/x)*D + 2/x^2")]
    assert basis.s0 == 2


def test_empty_input_yields_empty_basis():
    basis = complete_to_riquier_basis([op("0")], 1, 1)
    assert basis.elements == [] and basis.s0 == 0
    assert complete_to_riquier_basis([], 1, 1).elements == []
    # with no generator, nothing tells the dimensions
    with pytest.raises(ValueError, match="dimensions required"):
        complete_to_riquier_basis([])


@pytest.mark.parametrize("generators, dims, message", [
    ([op("D1 [u1] + D2 [u2]", 2, 2)], (2, 1), "generator 0 has mismatched dimensions"),
    ([op("D1", 2)], (1, 1), "generator 0 has mismatched dimensions"),
    ([op("D1", 2), op("D")], (None, None), "generator 1 has mismatched dimensions"),
    ([op("D1", 2), op("D2", 2), op("D [u2]", 1, 2)], (None, None),
     "generator 2 has mismatched dimensions"),
    # a term D^alpha with alpha outside N^m, which the parser cannot write
    ([op("D1 [u1]", 2, 2),
      op("D2 [u2]", 2, 2) + OperatorVector.from_derivative(Derivative(2, (0, -1)), 2, 2)],
     (2, 2), "generator 1 term given for unknown 2 with multi-index (0, -1), "
             "which does not fit 2 variable(s) and 2 unknown(s)"),
])
def test_completion_rejects_mismatched_generator_dimensions(generators, dims, message):
    with pytest.raises(InvalidInput) as info:
        complete_to_riquier_basis(generators, *dims)
    assert str(info.value) == message


def test_autoreduction_takes_one_pass(monkeypatch):
    # 3 reductions to adjoin; adjoining D2 retires D2^2, so the pair of D1 and
    # D2^2 is dropped, and the pair of D2^2 and D2 reduces D2^2 again, to zero
    # (1); the pair of D1 and D2 (1); then D1 and D2 are checked once each (2).
    # An autoreduction that restarted, or deleted an element, would check more.
    calls, shifted = [], []
    reduce, multiply = riquier.reduce_full, riquier.left_multiply_by_d

    def counting(p, rules):
        calls.append(p)
        return reduce(p, rules)

    def shifting(beta, p):
        shifted.append(beta)
        return multiply(beta, p)

    monkeypatch.setattr(riquier, "reduce_full", counting)
    monkeypatch.setattr(riquier, "left_multiply_by_d", shifting)
    basis = complete_to_riquier_basis([op("D1", 2), op("D2^2", 2), op("D2", 2)], 2, 1)
    assert len(calls) == 7
    assert len(shifted) == 4  # two S-pairs of two shifted elements each
    assert basis.elements == [op("D2", 2), op("D1", 2)]


# two systems of the heavy tail (two generators of order 2 in two variables),
# in which new heads divide older ones: without retiring the older elements
# the completion took 23 reductions, and several seconds for the first
TAIL = {
    "k=70": ["(-2*x2^2 - 2)*D1*D2 - 3*x1*x2*D2^2 - 3*D2",
             "(-x2^2 - x2)*D1^2 + (-2*x2^2 + x1 - 2)*D1"],
    "k=72": ["(-3*x1*x2 - 1)*D1^2 + (-2*x2 - 3)*D1",
             "(2*x1 - 1)*D1*D2 + (3*x2 - 3)*D2^2 + (-3*x1 - 3)*D2"],
}


@pytest.mark.parametrize("rows", TAIL.values(), ids=TAIL.keys())
def test_retiring_keeps_the_tail_short(monkeypatch, rows):
    calls = []
    reduce = riquier.reduce_full

    def counting(p, rules):
        calls.append(p)
        return reduce(p, rules)

    monkeypatch.setattr(riquier, "reduce_full", counting)
    with returns_within(30):
        basis = complete_to_riquier_basis([op(row, 2) for row in rows], 2, 1)
    assert [format_operator(e) for e in basis.elements] == ["D2", "D1"]
    assert len(calls) == 11


def test_retiring_pairs_lift_to_a_witness(monkeypatch):
    # the log of a completion that retired elements lifts D1 to a witness
    # (k=72: its lift takes about 1 s; that of k=70 takes about 4 s), and
    # every quotient of the lift is a gcd cofactor, never a trial division
    gens = [op(row, 2) for row in TAIL["k=72"]]
    q = op("D1", 2)

    def refuse(*args):
        raise AssertionError("the lift called sympy's polynomial division")

    with monkeypatch.context() as patched, returns_within(30):
        patched.setattr(PolyElement, "div", refuse)
        result = weyl_closure_member(q, gens)
    assert result.member
    assert verify_witness(result.witness, q, gens)


# a tail system in two unknowns whose D1 membership needs a w of degree 33 in x1
TAIL103 = ["3*D1 [u1] + ((-2*x1 - 1)*D1 - 3*x1^2 + x1) [u2]",
           "((3*x1^2 + 1)*D2^2 + 3*x1^2 - 2*x1) [u2]",
           "-3*x2*D2 [u1] + ((-3*x1 + 2)*D1) [u2]"]


def test_the_lift_takes_its_two_variable_gcds_from_the_packed_kernel(monkeypatch):
    # the membership takes 350 two-variable gcds over ZZ, and the packed
    # kernel answers every one: no pair's images exceed _PACKED_BITS, and none
    # goes to sympy's dense gcd, which certifies by trial division
    gens = [op(row, 2, 2) for row in TAIL103]
    q = op("D1 [u1]", 2, 2)
    calls, kernel_calls = [], []
    inner, kernel = polynomials.dmp_inner_gcd, polynomials._kronecker_gcd
    with monkeypatch.context() as patched, returns_within(30):
        patched.setattr(polynomials, "dmp_inner_gcd",
                        lambda *args: calls.append(args[-1]) or inner(*args))
        patched.setattr(polynomials, "_kronecker_gcd",
                        lambda a, b: kernel_calls.append(a.ring.ngens) or kernel(a, b))
        result = weyl_closure_member(q, gens)
    assert result.member
    assert max(m[0] for m in result.witness.w.terms) == 33
    assert verify_witness(result.witness, q, gens)
    assert calls == [] and kernel_calls == [2] * 350


@pytest.mark.parametrize("rows, m, n, q, full_completion_calls, basis_text, witness_text", [
    # the hand-written collapsing system: D2 (D1 - x2) - (D1 - x2) D2 = -1
    (["D1 - x2", "D2"], 2, 1, "D1^2", 7, ["1"],
     ["1", "-D1^2*D2", "D1^3 - x2*D1^2"]),
    # two unknowns, each of which gets an order-0 head
    (["D1 [u1] - x2 [u1]", "D2 [u1] + 1 [u2]", "D1 [u2]"], 2, 2, "D1*D2 [u1]", 12,
     ["1 [u1]", "1 [u2]"],
     ["x2^2", "-x2*D1^2*D2^2 + D1^2*D2 - x2*D1*D2 + D1",
      "x2*D1^3*D2 - D1^3 - x2^2*D1^2*D2", "-x2*D1^2*D2 + D1^2 + x2^2*D1*D2"]),
])
def test_unit_stop_ends_the_completion_at_a_unit_basis(monkeypatch, rows, m, n, q,
                                                       full_completion_calls, basis_text,
                                                       witness_text):
    # once every unknown has an order-0 head, no pending pair is reduced; the
    # completion that reduced every pair took full_completion_calls reductions
    # and gave the same basis and witness, recorded here as text
    calls = []
    reduce = riquier.reduce_full

    def counting(p, rules):
        calls.append(p)
        return reduce(p, rules)

    monkeypatch.setattr(riquier, "reduce_full", counting)
    gens = [op(row, m, n) for row in rows]
    basis = complete_to_riquier_basis(gens, m, n)
    assert len(calls) < full_completion_calls
    assert [format_operator(e) for e in basis.elements] == basis_text
    result = weyl_closure_member(op(q, m, n), gens)
    witness = result.witness
    assert ([format_polynomial(witness.w)] + [format_operator(h) for h in witness.cofactors]
            == witness_text)


def test_each_head_is_searched_once(monkeypatch):
    # every element keeps its head: over the completion, the reduction of q,
    # the lift and the witness check, each head search is the one made when
    # an operator is made monic (one per log node), and no operator is searched
    # twice; the monic element and every reduction by it read the kept head
    searched, reads = [], []
    head = OperatorVector.head

    def watched(p):
        reads.append(p)
        if p._head is None:
            searched.append(p)
        return head.fget(p)

    monkeypatch.setattr(OperatorVector, "head", property(watched))
    gens = [op(row, 2, 2) for row in ["D1 [u1] - x2 [u1]", "D2 [u1] + 1 [u2]", "D1 [u2]"]]
    result = weyl_closure_member(op("D1*D2 [u1]", 2, 2), gens)
    assert result.member
    assert len({id(p) for p in searched}) == len(searched)
    assert len(searched) == len(result.basis.derivation.nodes)
    assert len(reads) > 2 * len(searched)


# -- classification --------------------------------------------------------

def test_classify_principal_and_parametric():
    basis = complete_to_riquier_basis([op("x^2*D^2 - 2*x*D + 2")])
    assert basis.classify(Derivative(1, (5,))) is DerivativeClass.PRINCIPAL
    assert basis.classify(Derivative(1, (0,))) is DerivativeClass.PARAMETRIC


@pytest.mark.parametrize("d, message", [
    (Derivative(1, (1,)), "derivative given for unknown 1 with multi-index (1,), "
                          "which does not fit 2 variable(s) and 1 unknown(s)"),
    (Derivative(1, (1, 0, 0)), "derivative given for unknown 1 with multi-index (1, 0, 0), "
                               "which does not fit 2 variable(s) and 1 unknown(s)"),
    (Derivative(3, (0, 0)), "derivative given for unknown 3 with multi-index (0, 0), "
                            "which does not fit 2 variable(s) and 1 unknown(s)"),
    (Derivative(1, (1, -1)), "derivative given for unknown 1 with multi-index (1, -1), "
                             "which does not fit 2 variable(s) and 1 unknown(s)"),
])
def test_classify_rejects_a_derivative_of_the_wrong_shape(d, message):
    # divides() compares multi-indices entry by entry, so these would pass as
    # principal or parametric on a prefix of the variables
    basis = complete_to_riquier_basis([op("D1", 2)], 2, 1)
    with pytest.raises(InvalidInput) as info:
        basis.classify(d)
    assert str(info.value) == message


def test_unit_basis_makes_everything_principal():
    basis = complete_to_riquier_basis([op("D1 - x2", 2), op("D2", 2)])
    for k in range(3):
        assert basis.classify(Derivative(1, (k, 2 - k))) is DerivativeClass.PRINCIPAL


def test_parametric_up_to_example_51():
    basis = complete_to_riquier_basis([op("x^2*D^2 - 2*x*D + 2")])
    assert basis.parametric_up_to(3) == [Derivative(1, (0,)), Derivative(1, (1,))]


def test_parametric_up_to_gradient_system():
    basis = complete_to_riquier_basis([op("D1", 2), op("D2", 2)])
    assert basis.parametric_up_to(1) == [Derivative(1, (0, 0))]


def test_parametric_up_to_returns_a_fresh_list():
    basis = complete_to_riquier_basis([op("x^2*D^2 - 2*x*D + 2")])
    basis.parametric_up_to(3).clear()
    assert basis.parametric_up_to(3) == [Derivative(1, (0,)), Derivative(1, (1,))]


@pytest.mark.parametrize("orders", [(1, 2, 4), (4, 2, 1)])
@pytest.mark.parametrize("texts, m, n", [
    (["x^2*D^2 - 2*x*D + 2"], 1, 1),
    (["D1 - x1", "D2^2"], 2, 1),
    (["D1 [u1] - x2 [u2]", "D2 [u1] + x1*D1 [u2]"], 2, 2),
])
def test_parametric_up_to_is_the_classify_filter_in_either_order(texts, m, n, orders):
    # the classification behind parametric_up_to grows with the highest order
    # asked; asked high first, lower orders read a prefix of it
    basis = complete_to_riquier_basis([op(t, m, n) for t in texts], m, n)
    for s in orders:
        assert basis.parametric_up_to(s) == [
            d for d in derivatives_up_to(m, n, s)
            if basis.classify(d) is DerivativeClass.PARAMETRIC]


@pytest.mark.parametrize("s", [-1, -2])
def test_parametric_up_to_rejects_a_negative_order(s):
    basis = complete_to_riquier_basis([op("D1", 2), op("D2", 2)])
    with pytest.raises(InvalidInput) as info:
        basis.parametric_up_to(s)
    assert str(info.value) == f"order s must be nonnegative, got {s}"


def test_classification_is_monotone(rng):
    basis = complete_to_riquier_basis([op("D1^2 - x2", 2), op("D2", 2)])
    for _ in range(30):
        d = Derivative(1, (rng.randint(0, 3), rng.randint(0, 3)))
        if basis.classify(d) is DerivativeClass.PRINCIPAL:
            gamma = (rng.randint(0, 2), rng.randint(0, 2))
            assert basis.classify(d.differentiate(gamma)) is DerivativeClass.PRINCIPAL


# -- structural invariants on randomized completions -----------------------

def test_randomized_completions_are_confluent_and_exact(rng):
    for _ in range(12):
        m = rng.randint(1, 2)
        n = rng.randint(1, 2)
        generators = random_generators(rng, m, n, rng.randint(1, 2), order=2, degree=1)
        basis = complete_to_riquier_basis(generators, m, n)
        # monic and autoreduced
        for idx, element in enumerate(basis.elements):
            assert element.terms[element.head] == 1
            others = basis.elements[:idx] + basis.elements[idx + 1:]
            if others:
                assert reduce_full(element, others).normal_form == element
        assert s_pairs_reduce_to_zero(basis)
        assert reconstructs_from_generators(basis, generators)
        # every generator lies in the span of the basis
        for g in generators:
            assert reduce_full(g, basis.elements).normal_form.is_zero()


def test_completion_is_idempotent(rng):
    for _ in range(6):
        m = rng.randint(1, 2)
        generators = random_generators(rng, m, 1, 2, order=2, degree=1)
        basis = complete_to_riquier_basis(generators, m, 1)
        again = complete_to_riquier_basis(basis.elements, m, 1)
        assert sorted(h.rank_key() for h in basis.heads) == \
            sorted(h.rank_key() for h in again.heads)
        assert sorted(basis.elements, key=lambda p: p.head.rank_key()) == \
            sorted(again.elements, key=lambda p: p.head.rank_key())


# -- eager oracle ----------------------------------------------------------
#
# The library completes operators only and replays cofactors from a
# derivation log on demand.  This oracle is the earlier eager completion:
# every S-pair, reduction step, monic scaling and autoreduction also carries
# the cofactors along.  Exact F(x) arithmetic is canonical, so bases,
# cofactors and witnesses must come out identical.

@dataclass
class EagerEntry:
    op: OperatorVector
    cofactors: Dict[int, OperatorVector]

    def left_scale(self, f):
        return EagerEntry(self.op.left_scale(f),
                          {g: c.left_scale(f) for g, c in self.cofactors.items()})

    def shift(self, gamma):
        d_op = OperatorVector.from_derivative(Derivative(1, tuple(gamma)), self.op.m, 1)
        return EagerEntry(
            left_multiply_by_d(tuple(gamma), self.op),
            {g: scalar_operator_product(d_op, c) for g, c in self.cofactors.items()},
        )

    def __sub__(self, other):
        cof = dict(self.cofactors)
        for g, c in other.cofactors.items():
            cur = cof.get(g)
            cof[g] = -c if cur is None else cur - c
        return EagerEntry(self.op - other.op,
                          {g: c for g, c in cof.items() if not c.is_zero()})


def eager_reduce(entry, basis):
    trace = reduce_full(entry.op, [b.op for b in basis])
    cof = dict(entry.cofactors)
    for j, step in trace.cofactors.items():
        for g, c in basis[j].cofactors.items():
            total = cof.get(g, OperatorVector.zero(c.m, 1)) - scalar_operator_product(step, c)
            if total.is_zero():
                cof.pop(g, None)
            else:
                cof[g] = total
    return EagerEntry(trace.normal_form, cof)


def eager_monic(entry):
    return entry.left_scale(entry.op.terms[entry.op.head].inverse())


def eager_completion(generators, m, n) -> Tuple[List[OperatorVector], List[dict]]:
    """(elements, generator cofactors) of the eager completion, sorted by head."""
    one = RationalFunction.constant(1, m)
    basis: List[EagerEntry] = []
    pairs = []

    def adjoin(entry):
        reduced = eager_reduce(entry, basis)
        if reduced.op.is_zero():
            return
        reduced = eager_monic(reduced)
        comp = reduced.op.head.component
        pairs.extend((j, len(basis)) for j, e in enumerate(basis)
                     if e.op.head.component == comp)
        basis.append(reduced)

    for j, g in enumerate(generators):
        if not g.is_zero():
            adjoin(EagerEntry(g, {j: OperatorVector.scalar_function(one, m)}))

    def common(pair):
        hf, hg = (basis[i].op.head for i in pair)
        return tuple(max(a, b) for a, b in zip(hf.alpha, hg.alpha)), hf, hg

    while pairs:
        pairs.sort(key=lambda pair: Derivative(
            basis[pair[0]].op.head.component, common(pair)[0]).rank_key())
        j, k = pairs.pop(0)
        gamma, hf, hg = common((j, k))
        adjoin(basis[j].shift(tuple(c - a for c, a in zip(gamma, hf.alpha)))
               - basis[k].shift(tuple(c - b for c, b in zip(gamma, hg.alpha))))

    changed = True
    while changed:
        changed = False
        for idx in range(len(basis)):
            others = basis[:idx] + basis[idx + 1:]
            if not others:
                continue
            reduced = eager_reduce(basis[idx], others)
            if reduced.op == basis[idx].op:
                continue
            changed = True
            if reduced.op.is_zero():
                del basis[idx]
            else:
                basis[idx] = eager_monic(reduced)
            break

    basis.sort(key=lambda e: e.op.head.rank_key())
    return [e.op for e in basis], [e.cofactors for e in basis]


def eager_witness(q, generators, m, n):
    """(w, cofactors) composed from the eager cofactors, or None for a non-member."""
    elements, element_cofactors = eager_completion(generators, m, n)
    trace = reduce_full(q, elements)
    if not trace.normal_form.is_zero():
        return None
    rational = {}
    for k, step in trace.cofactors.items():
        for g, c in element_cofactors[k].items():
            contribution = scalar_operator_product(step, c)
            rational[g] = contribution if g not in rational else rational[g] + contribution
    w = lcm_of_denominators(rational.values(), m)
    return w, [rational.get(g, OperatorVector.zero(m, 1)).left_scale(w)
               for g in range(len(generators))]


def oracle_cases():
    """Acceptance-3-shaped random systems with a member and a random candidate each,
    then the euler, gradient, collapsing and vector examples."""
    rng = random.Random(3303)
    cases = []
    for _ in range(12):
        m, n = rng.randint(1, 2), rng.randint(1, 2)
        gens = random_generators(rng, m, n, rng.randint(1, 3), order=2, degree=2, terms=2)
        member = OperatorVector.zero(m, n)
        for g in gens:
            member = member + scalar_operator_product(
                random_operator(rng, m, 1, order=1, degree=1, terms=1), g)
        other = random_operator(rng, m, n, order=2, degree=2, terms=2)
        cases.append((gens, [member, other], m, n))
    cases.append(([op("x^2*D^2 - 2*x*D + 2")], [op("D^3"), op("D^2")], 1, 1))
    cases.append(([op("D1", 2), op("D2", 2)], [op("x1*D1*D2 + D2", 2), op("1", 2)], 2, 1))
    cases.append(([op("D1 - x2", 2), op("D2", 2)], [op("D1", 2), op("x1", 2)], 2, 1))
    cases.append(([op("D [u1]", 1, 2), op("1 [u2]", 1, 2)],
                  [op("D^2 [u1] + x [u2]", 1, 2), op("1 [u1]", 1, 2)], 1, 2))
    return cases


def test_lazy_completion_matches_the_eager_oracle():
    members = 0
    for gens, candidates, m, n in oracle_cases():
        basis = complete_to_riquier_basis(gens, m, n)
        elements, cofactors = eager_completion(gens, m, n)
        assert basis.elements == elements
        assert basis.generator_cofactors == cofactors
        assert reconstructs_from_generators(basis, gens)
        for q in candidates:
            result = weyl_closure_member(q, gens)
            expected = eager_witness(q, gens, m, n)
            assert result.member == (expected is not None)
            if expected is not None:
                members += 1
                assert result.witness.w == expected[0]
                assert result.witness.cofactors == expected[1]
    assert members >= 16


def test_replay_runs_only_for_member_witnesses(tmp_path, capsys, monkeypatch):
    replays = []
    original = DerivationLog.replay

    def counting(self, ids):
        replays.append(ids)
        return original(self, ids)

    monkeypatch.setattr(DerivationLog, "replay", counting)
    path = tmp_path / "euler.sys"
    path.write_text("vars: 1\nrow: x^2*D^2 - 2*x*D + 2\n")
    assert main(["riquier", str(path)]) == 0
    assert main(["solve", str(path), "--point", "1", "--init", "1=1", "--order", "4"]) == 0
    assert main(["prop1", str(path), "--point", "1", "--s", "3"]) == 0
    capsys.readouterr()
    gens = [op("x^2*D^2 - 2*x*D + 2")]
    assert not weyl_closure_member(op("D^2"), gens).member
    assert replays == []
    assert weyl_closure_member(op("D^3"), gens).member
    assert len(replays) == 1


def test_replay_touches_only_the_ancestors_of_the_trace():
    basis = complete_to_riquier_basis([op("D1^2", 2), op("D2 - x1", 2)])
    log = basis.derivation
    assert log._replayed is None  # nothing is replayed before a lift
    touched = {k for k, p in enumerate(basis.elements) if p.head.alpha == (0, 1)}
    basis.lift({k: op("1", 2) for k in touched})
    replayed = set(log._replayed) - {0, 1}
    assert replayed == {basis.made_by[k] for k in touched}


# -- rational reference for the fraction-free lift ---------------------------
#
# The library replays the derivation log fraction-free: every replayed node
# is one integer polynomial denominator over polynomial numerators, and the
# witness is read off the reduced lift.  This reference is the earlier replay
# over F(x), by scalar_operator_product and RationalFunction arithmetic, whose
# witness clears the lifted cofactors by the lcm of their denominators.  The
# exact cofactors are unique, so w and every h_j must come out identical.

def lcm_of_denominators(operators, m):
    w = Polynomial.constant(1, m)
    for h in operators:
        for coeff in h.terms.values():
            w = poly_lcm(w, coeff.den)
    return w


def rational_replay(log):
    """(combine, cofactors_of) over F(x) for a derivation log."""
    memo = {j: {j: log.one} for j in range(log.generators)}

    def combine(terms):
        total = {}
        for multiplier, source in terms:
            for g, c in cofactors_of(source).items():
                contribution = scalar_operator_product(multiplier, c)
                total[g] = contribution if g not in total else total[g] + contribution
        return {g: c for g, c in total.items() if not c.is_zero()}

    def cofactors_of(i):
        if i not in memo:
            node = log.nodes[i - log.generators]
            memo[i] = {g: c.left_scale(node.scale) for g, c in combine(node.terms).items()}
        return memo[i]

    return combine, cofactors_of


def rational_witness(basis, q, count):
    """(w, [h_j]) by the rational replay and the lcm of the denominators."""
    combine, _ = rational_replay(basis.derivation)
    trace = reduce_full(q, basis.elements)
    lifted = combine((step, basis.made_by[k]) for k, step in trace.cofactors.items())
    hs = [lifted.get(g, OperatorVector.zero(basis.m, 1)) for g in range(count)]
    w = lcm_of_denominators(hs, basis.m)
    return w, [h.left_scale(w) for h in hs]


def random_gaussian_operator(rng, m, n, order, degree):
    """A random operator whose coefficients have Gaussian rational entries."""
    built = OperatorVector.zero(m, n)
    for _ in range(rng.randint(1, 2)):
        alpha = [0] * m
        for _ in range(rng.randint(0, order)):
            alpha[rng.randrange(m)] += 1
        terms = {}
        for _ in range(2):
            mono = [0] * m
            for _ in range(rng.randint(0, degree)):
                mono[rng.randrange(m)] += 1
            terms[tuple(mono)] = GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
        built = built + OperatorVector.from_derivative(
            Derivative(rng.randint(1, n), tuple(alpha)), m, n,
            RationalFunction(Polynomial(terms, m)))
    return built


def lift_cases():
    """(generators, candidates) for the lift oracle.

    Random systems in each bench-shaped (m, n, generators) class, two
    generators in two variables, Gaussian systems, then the zero candidate
    and a unit collapse whose witness has w of degree 24.
    """
    rng = random.Random(9009)
    cases = []
    for m, n, count in METAMORPHIC_CLASSES * 4 + [(2, 1, 2), (2, 2, 2)] * 4:
        degree = 1 if count == 2 and m == 2 else 2
        gens = random_generators(rng, m, n, count, order=2, degree=degree, terms=2)
        member = OperatorVector.zero(m, n)
        for g in gens:
            member = member + scalar_operator_product(
                random_operator(rng, m, 1, order=1, degree=1, terms=1), g)
        other = random_operator(rng, m, n, order=2, degree=degree, terms=2)
        cases.append((gens, [member, other]))
    for m, n, count in [(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1), (1, 1, 2), (2, 1, 2)] * 2:
        degree = 1 if count == 2 and m == 2 else 2
        gens = [random_gaussian_operator(rng, m, n, order=2, degree=degree)
                for _ in range(count)]
        gens = [g for g in gens if not g.is_zero()] or [op("1", m, n)]
        member = OperatorVector.zero(m, n)
        for g in gens:
            member = member + scalar_operator_product(
                random_gaussian_operator(rng, m, 1, order=1, degree=1), g)
        cases.append((gens, [member, random_gaussian_operator(rng, m, n, 2, degree)]))
    cases.append(([op("x^2*D^2 - 2*x*D + 2")], [op("0")]))
    cases.append(([op("D1 - x2", 2), op("D2", 2)], [op("0", 2), op("x1*D1^2", 2)]))
    cases.append((UNIT_COLLAPSE, [UNIT_COLLAPSE_Q]))
    return cases


# an m = n = 1 pair whose basis is {1}: the witness needs w of degree 24
UNIT_COLLAPSE = [op("(-2*x^2 - 2)*D^2 + 1"), op("(-x^2 + 1)*D^2 + (-2*x^2 + 3)*D")]
UNIT_COLLAPSE_Q = op("(2*x^2 - 2)*D^3 + (4*x^2 + 4*x - 6)*D^2 + 8*x*D")


def _is_gaussian(c):
    return any(isinstance(v, GaussianRational) for v in c.num.terms.values())


def test_fraction_free_lift_matches_the_rational_reference():
    members = gaussian = cleared = 0
    for gens, candidates in lift_cases():
        for q in candidates:
            result = weyl_closure_member(q, gens)
            if not result.member:
                continue
            members += 1
            gaussian += any(_is_gaussian(c) for g in gens for c in g.terms.values())
            cleared += not result.witness.w.is_constant()
            w, hs = rational_witness(result.basis, q, len(gens))
            assert result.witness.w == w
            assert result.witness.cofactors == hs
            _, cofactors_of = rational_replay(result.basis.derivation)
            assert result.basis.generator_cofactors == [
                cofactors_of(i) for i in result.basis.made_by]
    assert members >= 60 and gaussian >= 15 and cleared >= 25


def test_unit_collapse_witness_has_a_high_degree_w():
    result = weyl_closure_member(UNIT_COLLAPSE_Q, UNIT_COLLAPSE)
    assert result.basis.elements == [op("1")]
    w = result.witness.w
    assert max(k for (k,) in w.terms) == 24 and w.leading_coefficient() == 1
    assert (w, result.witness.cofactors) == rational_witness(
        result.basis, UNIT_COLLAPSE_Q, 2)


@pytest.mark.parametrize("gens, q", [
    (UNIT_COLLAPSE, UNIT_COLLAPSE_Q),
    ([op("D1^2 - x2", 2), op("x1*D2 + 1", 2)], op("D1^2*D2", 2)),
    ([parse_operator("(x + i)*D^2 - i*x*D + 3", 1, 1, "complex")],
     parse_operator("(D + i*x)*((x + i)*D^2 - i*x*D + 3)", 1, 1, "complex")),
])
def test_lift_does_no_rational_function_arithmetic(gens, q, monkeypatch):
    expected = weyl_closure_member(q, gens)
    assert expected.member
    basis = complete_to_riquier_basis(gens, q.m, q.n)
    trace = reduce_full(q, basis.elements)

    def refuse(*args):
        raise AssertionError("the lift did F(x) arithmetic")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "derivative"):
        monkeypatch.setattr(RationalFunction, name, refuse)
    w, cofactors = basis.lift(trace.cofactors)
    monkeypatch.undo()
    assert w == expected.witness.w
    assert [cofactors.get(g, OperatorVector.zero(q.m, 1)) for g in range(len(gens))] \
        == expected.witness.cofactors


# (m, n, generators, q, basis, w, h_j), as printed before the gcd kernel
# changed: each lift cancels a nonconstant gcd in riquier._cancelled.  In
# x2^2 - x1 the lex leader (x1, which a dense gcd makes positive) and the
# graded-lex leader (x2^2) have opposite signs.
PINNED_WITNESSES = [
    (1, 2, ["((-1/2*x^2 + 3*x)) [u1] + 6*x^2*D^2 [u2]", "((-x^2 - 3*x)*D^2) [u2]"],
     "((3*x^2 - 8)*D^2) [u2]",
     ["1 [u1]", "D^2 [u2]"], "x^2 + 3*x", ["0", "-3*x^2 + 8"]),
    (1, 1, ["-x + 2"], "(-2*x^2 + 8)*D^2 - 3*x*D",
     ["1"], "x^2 - 4*x + 4",
     ["(2*x^3 - 4*x^2 - 8*x + 16)*D^2 + (-x^2 - 6*x + 16)*D + x + 8"]),
    (2, 1, ["(x2^2 - x1)*x2"], "D1*D2",
     ["1"], "x2^8 - 3*x1*x2^6 + 3*x1^2*x2^4 - x1^3*x2^2",
     ["(x2^5 - 2*x1*x2^3 + x1^2*x2)*D1*D2 + (-3*x2^4 + 4*x1*x2^2 - x1^2)*D1"
      " + (x2^3 - x1*x2)*D2 - 5*x2^2 + x1"]),
    (2, 1, ["(-2*x2 + 1/2)*(x2^2 - x1)*D2"], "(1/2*x1 - 2*x2)*D1*D2",
     ["D2"], "x2^5 - 2*x1*x2^3 - 1/4*x2^4 + x1^2*x2 + 1/2*x1*x2^2 - 1/4*x1^2",
     ["(-1/4*x1*x2^2 + x2^3 + 1/4*x1^2 - x1*x2)*D1 - 1/4*x1 + x2"]),
]


@pytest.mark.parametrize("m, n, gens, q, basis, w, hs", PINNED_WITNESSES)
def test_witness_strings_after_a_cancelled_gcd_are_pinned(m, n, gens, q, basis, w, hs,
                                                           monkeypatch):
    cancelled = []
    original = riquier._cancelled

    def spy(lifted):
        out = original(lifted)
        cancelled.append(out is not lifted)
        return out

    monkeypatch.setattr(riquier, "_cancelled", spy)
    result = weyl_closure_member(parse_operator(q, m, n), [parse_operator(g, m, n) for g in gens])
    assert any(cancelled)
    assert [format_operator(e) for e in result.basis.elements] == basis
    assert format_polynomial(result.witness.w) == w
    assert [format_operator(h) if not h.is_zero() else "0"
            for h in result.witness.cofactors] == hs


def test_lift_sums_over_denominators_with_integer_content_stay_over_their_lcm():
    # a lift denominator carries integer content: a coefficient 1/2 gives v = 2
    x, = PolyRing(["x"], ZZ, grlex).gens
    parts = [riquier._Lifted(x.ring.ground_new(d), {(0, (0,)): x}) for d in (2, 4, 4)]
    total = riquier._sum(parts)
    assert total.den == 4 and total.numerators == {(0, (0,)): 4 * x}


def test_a_product_keeps_each_term_exact_over_the_growing_lcm():
    # the multiplier's denominators v1 = x2^2 - x1 and v1 * (x1 + 3*x2 + 1):
    # sympy's dense gcd of the lcm with v1 is -v1, so a base read off the
    # lcm's cofactor would flip the sign of the D1 term
    source = RationalFunction(Polynomial.variable(2, 2), Polynomial.variable(1, 2) + 1)
    multiplier = op("1/(x2^2 - x1)*D1 + 3/((x2^2 - x1)*(x1 + 3*x2 + 1))", 2)
    num, den = polynomials.integer_pair(source)
    lifted = riquier._product(riquier._pairs(multiplier),
                              riquier._Lifted(den, {(0, (0, 0)): num}))
    expected = scalar_operator_product(multiplier, OperatorVector.scalar_function(source, 2))
    assert riquier._operators(lifted.numerators, lifted.den, 2) == {0: expected}


def _units(domain):
    return ZZ_I.units if domain is ZZ_I else [ZZ(1), ZZ(-1)]


def _divides(a, b):
    """a divides b in their integer ring: sympy's cofactor of a by gcd(a, b) is a unit."""
    a, b = polynomials._sparse(a), polynomials._sparse(b)
    _, cofactor, _ = a.cofactors(b)
    return cofactor.is_ground and cofactor.LC in _units(a.ring.domain)


def assert_cancels(lifted):
    """_cancelled keeps every ratio N/den, over a divisor of den whose gcd with
    all the new numerators is constant."""
    cancelled = riquier._cancelled(lifted)
    den, new_den = lifted.den, cancelled.den
    assert cancelled.numerators.keys() == lifted.numerators.keys()
    for key, value in lifted.numerators.items():
        assert new_den * value == den * cancelled.numerators[key]
    assert _divides(new_den, den)
    common = polynomials._sparse(new_den)
    for value in cancelled.numerators.values():
        common = common.gcd(polynomials._sparse(value))
    assert common.is_ground


@st.composite
def planted_rows(draw):
    """A _Lifted in one variable (coefficient lists) or two (sympy's rows) over ZZ,
    whose denominator G * D and numerators share a planted nonconstant factor G.

    One numerator is a multiple of the denominator, which every running common
    factor divides; another is G * A, which the running factor G * D need not.
    """
    nvars = draw(st.integers(1, 2))
    one = polynomials._one(nvars)
    monomials = st.tuples(*[st.integers(0, 2)] * nvars)

    def element(constant=True):
        terms = draw(st.dictionaries(monomials, st.integers(-3, 3).filter(bool),
                                     min_size=1 if constant else 2, max_size=3))
        return one.new({m: ZZ(c) for m, c in terms.items()})

    g, d = element(constant=False), element()
    den = g * d
    values = [g * element(), den * element()] + [g * element()
                                                 for _ in range(draw(st.integers(0, 2)))]
    return riquier._Lifted(den, {(k, (0,) * nvars): v for k, v in enumerate(values)})


@settings(deadline=None, max_examples=80)
@given(planted_rows())
def test_cancelled_keeps_every_ratio_over_a_divisor_with_no_common_factor(lifted):
    assert_cancels(lifted)


def test_cancelled_over_gaussian_rows():
    x, = polynomials._one(1, ZZ_I).ring.gens
    g = x + ZZ_I(0, 1)  # x + i
    d = x * x + ZZ_I(2, 0)
    den = g * g * d
    rows = {(0, (0,)): g * (x + ZZ_I(1, 1)), (1, (0,)): den * (x - ZZ_I(3, 0)),
            (1, (1,)): g * g * ZZ_I(0, 2)}
    lifted = riquier._Lifted(den, rows)
    assert_cancels(lifted)
    # the common factor is g: the reduced denominator is g * d up to a unit
    assert riquier._cancelled(lifted).den.degree() == 3


# -- metamorphic checks: the reduced monic basis depends only on the module --

# (m, n, number of generators), as in the benchmark's systems
METAMORPHIC_CLASSES = [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (2, 1, 1), (2, 2, 1)]


def _nonzero_polynomial(rng, m):
    return random_polynomial(rng, m, degree=1, allow_zero=False)


def _same_module(seed, change):
    """The basis of a random system and of the system that ``change`` makes of it."""
    rng = random.Random(seed)
    m, n, count = METAMORPHIC_CLASSES[seed % len(METAMORPHIC_CLASSES)]
    gens = random_generators(rng, m, n, count, order=2, degree=1)
    changed = change(rng, list(gens), m)
    return (complete_to_riquier_basis(gens, m, n).elements,
            complete_to_riquier_basis(changed, m, n).elements)


def _permute(rng, gens, m):
    rng.shuffle(gens)
    return gens


def _add_redundant(rng, gens, m):
    # p_0 + f*p_k lies in the module already
    k = rng.randrange(len(gens))
    return gens + [gens[0] + gens[k].left_scale(_nonzero_polynomial(rng, m))]


def _rescale_one(rng, gens, m):
    # f is a unit of F(x), so f*p_j generates what p_j does
    j = rng.randrange(len(gens))
    gens[j] = gens[j].left_scale(_nonzero_polynomial(rng, m))
    return gens


@pytest.mark.parametrize("change", [_permute, _add_redundant, _rescale_one],
                         ids=["permuted", "redundant generator", "left multiple"])
def test_the_reduced_basis_depends_only_on_the_module(change):
    for seed in range(60):
        before, after = _same_module(seed, change)
        assert after == before, f"seed {seed}"
