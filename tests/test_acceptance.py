"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import random
from fractions import Fraction
from functools import lru_cache

from weylclosure import (
    Derivative,
    GaussianRational,
    OperatorVector,
    ParseError,
    Polynomial,
    RationalFunction,
    apply_to_jet,
    basis_denominators,
    check_jet_constraints,
    complete_to_riquier_basis,
    constraint_matrix,
    constraint_nullspace,
    formal_solve,
    format_operator,
    left_multiply_by_d,
    membership_via_lemma1,
    oracle_division_member_1d,
    parse_operator,
    pick_regular_point,
    reduce_full,
    scalar_operator_product,
    solution_space_dim,
    verify_witness,
    weyl_closure_member,
)
from conftest import random_generators, random_nonzero_operator, random_operator

from test_parsing import CORPUS


def report(number, ok, label):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {label}", flush=True)
    assert ok, f"acceptance criterion {number} failed: {label}"


def op(text, m=1, n=1):
    return parse_operator(text, m, n)


# -- 1 ---------------------------------------------------------------------

def test_acceptance_1_negative_membership_three_paths():
    q = op("D + x")
    p = op("(-D + x)*(D + x)")
    ok = (not weyl_closure_member(q, [p]).member
          and not membership_via_lemma1(q, [p])
          and not oracle_division_member_1d(q, p))
    report(1, ok, "D + x is rejected by all three decision paths")


# -- 2 ---------------------------------------------------------------------

def test_acceptance_2_positive_membership_with_certificate():
    q = op("D^3")
    p = op("x^2*D^2 - 2*x*D + 2")
    result = weyl_closure_member(q, [p])
    ok = result.member and verify_witness(result.witness, q, [p])
    # independent confirmation of the reference identity x^2*D^3 = D*p
    ok = ok and scalar_operator_product(op("D"), p) == q.left_scale(op("x^2").coefficient(Derivative(1, (0,))).num)
    report(2, ok, "D^3 membership witness verifies and matches the hand identity")


# -- 3 (and the instance pool shared with 9) -------------------------------

@lru_cache(maxsize=1)
def witness_sweep():
    """>= 200 randomized membership instances with their full results."""
    rng = random.Random(5_4_1)
    instances = []
    while len(instances) < 200:
        m = rng.randint(1, 2)
        n = rng.randint(1, 2)
        gens = random_generators(rng, m, n, rng.randint(1, 3),
                                 order=2, degree=2, terms=2)
        for variant in range(2):
            if variant == 0:
                # an exact A_m-combination of the generators: always a member
                q = OperatorVector.zero(m, n)
                for g in gens:
                    a = random_operator(rng, m, 1, order=1, degree=1, terms=1)
                    q = q + scalar_operator_product(a, g)
            else:
                q = random_operator(rng, m, n, order=2, degree=2, terms=2)
            instances.append((q, gens, weyl_closure_member(q, gens)))
    return instances


def test_acceptance_3_witness_soundness_sweep():
    instances = witness_sweep()
    members = [(q, gens, r) for q, gens, r in instances if r.member]
    ok = len(instances) >= 200 and len(members) >= 50
    for q, gens, result in members:
        ok = ok and verify_witness(result.witness, q, gens)
    report(3, ok, f"{len(members)} member=true of {len(instances)} instances, "
           "all witnesses exact")


# -- 4 ---------------------------------------------------------------------

def test_acceptance_4_path_agreement():
    rng = random.Random(424242)
    ok = True
    for k in range(50):
        p = random_nonzero_operator(rng, 1, 1, order=3, degree=2, terms=2)
        if k % 2 == 0:
            a = random_operator(rng, 1, 1, order=1, degree=1, terms=1)
            q = scalar_operator_product(a, p)
        else:
            q = random_operator(rng, 1, 1, order=3, degree=2, terms=2)
        ok = ok and (weyl_closure_member(q, [p]).member
                     == oracle_division_member_1d(q, p))
    for k in range(50):
        m = rng.randint(1, 2)
        n = rng.randint(1, 2)
        gens = random_generators(rng, m, n, rng.randint(1, 2),
                                 order=2, degree=1, terms=2)
        if k % 2 == 0:
            q = OperatorVector.zero(m, n)
            for g in gens:
                a = random_operator(rng, m, 1, order=1, degree=1, terms=1)
                q = q + scalar_operator_product(a, g)
        else:
            q = random_operator(rng, m, n, order=2, degree=1, terms=2)
        ok = ok and (weyl_closure_member(q, gens).member
                     == membership_via_lemma1(q, gens))
    report(4, ok, "reduction agrees with Euclidean division and linear solving")


# -- 5 ---------------------------------------------------------------------

def _all_s_pairs_reduce(basis):
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


def test_acceptance_5_completion_correctness():
    collapsing = complete_to_riquier_basis([op("D1 - x2", 2), op("D2", 2)])
    ok = (collapsing.elements == [op("1", 2)]
          and collapsing.parametric_up_to(3) == [])
    gradient = complete_to_riquier_basis([op("D1", 2), op("D2", 2)])
    ok = ok and sorted(p.head.alpha for p in gradient.elements) == [(0, 1), (1, 0)]
    bases = [collapsing, gradient]
    rng = random.Random(55555)
    for _ in range(10):
        m = rng.randint(1, 2)
        n = rng.randint(1, 2)
        gens = random_generators(rng, m, n, rng.randint(1, 2), order=2, degree=1)
        bases.append(complete_to_riquier_basis(gens, m, n))
    for basis in bases:
        ok = ok and _all_s_pairs_reduce(basis)
    report(5, ok, "collapsing and gradient systems complete correctly; "
           "all S-pairs re-reduce to zero")


# -- 6 ---------------------------------------------------------------------

def test_acceptance_6_jet_round_trip():
    rng = random.Random(660066)
    ok = True
    checked = 0
    while checked < 100:
        m = rng.randint(1, 2)
        n = rng.randint(1, 2)
        gens = random_generators(rng, m, n, rng.randint(1, 2),
                                 order=2, degree=1, terms=2)
        basis = complete_to_riquier_basis(gens, m, n)
        point = pick_regular_point(basis_denominators(basis), m)
        s = basis.s0 + rng.randint(1, 2)
        big = basis.s0 + 4
        system = constraint_matrix(basis, s, point)
        jets = constraint_nullspace(system)
        ok = ok and len(jets) == len(basis.parametric_up_to(s))
        big_system = constraint_matrix(basis, big, point) if jets else None
        for jet in jets:
            init = {d: jet.value(d) for d in basis.parametric_up_to(big)
                    if jet.values.get(d) is not None}
            extended = formal_solve(basis, point, init, big)
            ok = ok and extended.truncate(s) == jet
            ok = ok and check_jet_constraints(extended, big_system)
        checked += 1
    report(6, ok, f"{checked} nullspace-jet extension round trips, "
           "nullity always equals the parametric count")


# -- 7 ---------------------------------------------------------------------

def test_acceptance_7_solution_space_dimensions():
    one = (Fraction(1),)
    zero = (Fraction(0),)
    euler = complete_to_riquier_basis([op("x^2*D^2 - 2*x*D + 2")])
    ok = all(solution_space_dim(euler, s, one) == 2 for s in range(2, 6))
    system = constraint_matrix(euler, 4, one)
    from weylclosure.operators import Jet
    x_jet = Jet(one, 4, 1, 1, {Derivative(1, (k,)): Fraction(v)
                               for k, v in enumerate([1, 1, 0, 0, 0])})
    x2_jet = Jet(one, 4, 1, 1, {Derivative(1, (k,)): Fraction(v)
                                for k, v in enumerate([1, 2, 2, 0, 0])})
    ok = ok and check_jet_constraints(x_jet, system)
    ok = ok and check_jet_constraints(x2_jet, system)
    hermite = complete_to_riquier_basis([op("D^2 - x^2 + 1")])
    ok = ok and solution_space_dim(hermite, 2, zero) == 2
    report(7, ok, "dimension 2 throughout for the two reference equations, "
           "with x and x^2 jets in the nullspace")


# -- 8 ---------------------------------------------------------------------

def test_acceptance_8_formal_solver_exactness():
    basis = complete_to_riquier_basis([op("D - 1")])
    u = formal_solve(basis, (Fraction(0),), {Derivative(1, (0,)): Fraction(1)}, 8)
    values = [u.value(Derivative(1, (k,))) for k in range(9)]
    ok = values == [Fraction(1)] * 9
    report(8, ok, "the exponential jet has derivative values exactly 1 "
           "through order 8")


# -- 9 ---------------------------------------------------------------------

def test_acceptance_9_annihilation_consistency():
    rng = random.Random(999)
    ok = True
    count = 0
    for q, gens, result in witness_sweep():
        if not result.member or q.is_zero():
            continue
        basis = result.basis
        if not basis.elements:
            continue
        trace = reduce_full(q, basis.elements)
        avoid = basis_denominators(basis) + [
            c.den for h in trace.cofactors.values() for c in h.terms.values()
        ]
        point = pick_regular_point(avoid, q.m)
        order = max(basis.s0, q.degree()) + 2
        for _ in range(5):
            init = {d: Fraction(rng.randint(-3, 3))
                    for d in basis.parametric_up_to(order)}
            u = formal_solve(basis, point, init, order)
            ok = ok and apply_to_jet(q, u).is_zero()
        count += 1
    ok = ok and count > 0
    report(9, ok, f"q annihilates 5 random formal solutions for each of "
           f"{count} member=true instances")


# -- 10 --------------------------------------------------------------------

def test_acceptance_10_parser_round_trip_and_fuzz():
    ok = True
    for text, m, n, field in CORPUS:
        p = parse_operator(text, m, n, field)
        ok = ok and parse_operator(format_operator(p), m, n, field) == p
    rng = random.Random(101010)
    alphabet = "xyD123i+-*/^()[]u. "
    for _ in range(10_000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))
        m = rng.randint(1, 3)
        n = rng.randint(1, 2)
        try:
            p = parse_operator(text, m, n)
            ok = ok and parse_operator(format_operator(p), m, n) == p
        except ParseError:
            pass
        except Exception:
            ok = False
            break
    report(10, ok, "format/parse identity holds and 10,000 fuzzed inputs "
           "never crash")


# -- 11 --------------------------------------------------------------------

# (m, n, number of generators) of the complex sweep's systems, taken in turn
COMPLEX_CLASSES = [(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 2, 1)]
GAUSSIAN_FACTORS = [GaussianRational(0, 1), GaussianRational(1, 1), GaussianRational(2, -1)]


def gaussian_scaled(rng, p):
    """p with about three in four coefficients scaled by i, 1 + i or 2 - i.

    Each coefficient is built from its Gaussian terms, as the parser builds one.
    """
    terms = {}
    for d, c in p.terms.items():
        factor = rng.choice(GAUSSIAN_FACTORS) if rng.random() < 0.75 else 1
        terms[d] = RationalFunction(
            Polynomial({e: factor * v for e, v in c.num.terms.items()}, p.m))
    return OperatorVector(terms, p.m, p.n)


def test_acceptance_11_complex_mode_sweep():
    rng = random.Random(11_2016)
    ops = members = 0
    failed = []
    for k in range(150):
        m, n, count = COMPLEX_CLASSES[(k // 2) % len(COMPLEX_CLASSES)]
        gens = [gaussian_scaled(rng, g)
                for g in random_generators(rng, m, n, count, order=2, degree=2, terms=2)]
        constructed = k % 2 == 0
        if constructed:
            q = OperatorVector.zero(m, n)
            for g in gens:
                a = random_operator(rng, m, 1, order=1, degree=1, terms=1)
                q = q + scalar_operator_product(gaussian_scaled(rng, a), g)
        else:
            q = gaussian_scaled(rng, random_operator(rng, m, n, order=2, degree=2, terms=2))
        result = weyl_closure_member(q, gens)
        ops += 1
        members += result.member
        if constructed and not result.member:
            failed.append((k, "constructed member answered no"))
        if result.member and not verify_witness(result.witness, q, gens):
            failed.append((k, "witness rejected"))
        if membership_via_lemma1(q, gens) != result.member:
            failed.append((k, "lemma1 disagrees"))
        if (m, n, count) == (1, 1, 1) and oracle_division_member_1d(q, gens[0]) != result.member:
            failed.append((k, "Euclidean division disagrees"))
    ok = not failed and members >= 75 and ops - members >= 30
    report(11, ok, f"{members} member=true of {ops} Gaussian instances, witnesses exact, "
           f"lemma1 and division agree; failures: {failed}")
