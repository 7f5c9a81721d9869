"""Membership decisions, witness verification and the independent cross-checks."""

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.orderings import grlex
from sympy.polys.rings import PolyRing

from weylclosure import (
    Derivative,
    GaussianRational,
    InvalidInput,
    OperatorVector,
    Polynomial,
    RationalFunction,
    Witness,
    complete_to_riquier_basis,
    format_operator,
    format_polynomial,
    lemma1_solve,
    membership_via_lemma1,
    oracle_division_member_1d,
    parse_operator,
    parse_rational,
    reduce_full,
    scalar_operator_product,
    verify_witness,
    weyl_closure_member,
)
from weylclosure import closure, operators, polynomials, riquier
from weylclosure.polynomials import integer_pair
from weylclosure.riquier import RiquierBasis
from conftest import random_operator, random_generators, random_polynomial, returns_within


def op(text, m=1, n=1):
    return parse_operator(text, m, n)


def rat(text, m=1):
    return parse_rational(text, m)


def combine(cofactors, generators):
    total = OperatorVector.zero(generators[0].m, generators[0].n)
    for h, g in zip(cofactors, generators):
        total = total + scalar_operator_product(h, g)
    return total


# -- worked membership examples --------------------------------------------

def test_d3_is_in_closure_of_euler_type_operator():
    result = weyl_closure_member(op("D^3"), [op("x^2*D^2 - 2*x*D + 2")])
    assert result.member
    assert result.witness.w == rat("x^2").num
    assert result.witness.cofactors == [op("D")]


def test_half_integer_euler_operator_excludes_d2():
    # x^2*D^2 - x*D + 3/4 only annihilates sqrt(x) and x*sqrt(x), which are
    # not power series; D^2 stays outside the closure.
    gens = [op("x^2*D^2 - x*D + 3/4")]
    result = weyl_closure_member(op("D^2"), gens)
    assert not result.member
    assert not membership_via_lemma1(op("D^2"), gens)


def test_d_plus_x_not_in_closure_of_its_left_multiple():
    q = op("D + x")
    p = op("(-D + x)*(D + x)")
    result = weyl_closure_member(q, [p])
    assert not result.member
    assert result.witness is None
    assert not result.normal_form.is_zero()
    assert not membership_via_lemma1(q, [p])
    assert not oracle_division_member_1d(q, p)


def test_generators_belong_with_trivial_witness():
    gens = [op("D1 + x2*D2", 2), op("x1*D2^2", 2)]
    for j, g in enumerate(gens):
        result = weyl_closure_member(g, gens)
        assert result.member
        assert combine(result.witness.cofactors, gens) == g.left_scale(result.witness.w)


def test_zero_candidate_is_always_a_member():
    result = weyl_closure_member(op("0"), [op("D^2 + x")])
    assert result.member
    assert result.witness.w == rat("1").num


def test_nonzero_candidate_against_empty_system():
    result = weyl_closure_member(op("D"), [op("0")])
    assert not result.member
    # no generators at all: N = 0
    assert not weyl_closure_member(op("D"), []).member
    assert not membership_via_lemma1(op("D"), [])


def test_vector_candidate_membership():
    gens = [op("D [u1]", 1, 2), op("1 [u2]", 1, 2)]
    result = weyl_closure_member(op("D^2 [u1] + x [u2]", 1, 2), gens)
    assert result.member
    assert verify_witness(result.witness, op("D^2 [u1] + x [u2]", 1, 2), gens)


@pytest.mark.parametrize("copy_of", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_values_and_results_survive_pickle_and_deepcopy(copy_of, fresh_completion):
    gaussian = parse_operator("(x + i)*D^2 - i*x*D + 3", 1, 1, "complex")
    values = [
        rat("(x^2 + 1)/(2*x - 3)").num,
        rat("(x^2 + 1)/(2*x - 3)"),
        gaussian.coefficient(Derivative(1, (1,))),
        op("(1/x)*D^2 [u1] + x [u2]", 1, 2),
        gaussian,
    ]
    for value in values:
        again = copy_of(value)
        assert again == value and hash(again) == hash(value)
    gens = [op("x^2*D^2 - 2*x*D + 2")]
    result = weyl_closure_member(op("D^3"), gens)
    again = copy_of(result)
    assert again.member and again.witness == result.witness
    assert again.normal_form == result.normal_form
    assert again.basis.elements == result.basis.elements
    assert verify_witness(again.witness, op("D^3"), gens)
    # the copy replays its own derivation log
    trace = reduce_full(op("D^3"), again.basis.elements)
    assert again.basis.lift(trace.cofactors) == result.basis.lift(trace.cofactors)
    assert again.basis.generator_cofactors == result.basis.generator_cofactors
    # a basis never lifted has no replay state; its copy lifts to the same witness
    fresh_completion()
    basis = complete_to_riquier_basis(gens)
    again = copy_of(basis)
    assert again.heads == basis.heads
    assert [p.head for p in again.elements] == basis.heads
    trace = reduce_full(op("D^3"), again.elements)
    assert again.lift(trace.cofactors) == basis.lift(trace.cofactors) == (
        result.witness.w, dict(enumerate(result.witness.cofactors)))


def test_rational_coefficients_are_rejected():
    with pytest.raises(InvalidInput):
        weyl_closure_member(op("(1/x)*D"), [op("D")])
    with pytest.raises(InvalidInput):
        weyl_closure_member(op("D"), [op("(1/x)*D")])


# -- witness verification --------------------------------------------------

def test_verify_witness_rejects_zero_w():
    gens = [op("D")]
    assert not verify_witness(Witness(rat("0").num, [op("1")]), op("D"), gens)


def test_verify_witness_rejects_wrong_cofactor_count():
    gens = [op("D"), op("x")]
    assert not verify_witness(Witness(rat("1").num, [op("1")]), op("D"), gens)


def test_verify_witness_rejects_wrong_identity():
    gens = [op("D")]
    assert not verify_witness(Witness(rat("1").num, [op("x")]), op("D"), gens)


@pytest.mark.parametrize("case", ["w in two variables", "w not a polynomial",
                                  "cofactor in two variables", "cofactor with two unknowns",
                                  "cofactor outside N^m"])
def test_verify_witness_rejects_a_certificate_of_the_wrong_shape(case):
    gens, q = [op("D")], op("D^2")
    w, h = rat("1").num, op("D")
    assert verify_witness(Witness(w, [h]), q, gens)  # the right shape passes
    if case == "w in two variables":
        w = Polynomial.constant(1, 2)
    elif case == "w not a polynomial":  # its numerator 1 would pass
        w = rat("1/x")
    elif case == "cofactor in two variables":
        h = op("D1", m=2)
    elif case == "cofactor with two unknowns":
        h = op("D [u1]", n=2)
    else:
        h = h + outside()
    with returns_within(2):
        assert verify_witness(Witness(w, [h]), q, gens) is False


def test_verify_witness_accepts_hand_built_identity():
    # x^2 * D^3 = D * (x^2*D^2 - 2*x*D + 2)
    gens = [op("x^2*D^2 - 2*x*D + 2")]
    assert verify_witness(Witness(rat("x^2").num, [op("D")]), op("D^3"), gens)


# -- the lift's integer rows, checked inside weyl_closure_member ----------------

def test_a_member_answer_validates_its_rows_once(monkeypatch):
    calls = []
    validate = closure._validate_polynomial_rows
    monkeypatch.setattr(closure, "_validate_polynomial_rows",
                        lambda q, gens: calls.append(q) or validate(q, gens))
    gens = [op("x^2*D^2 - 2*x*D + 2")]
    result = weyl_closure_member(op("D^3"), gens)
    assert result.member and len(calls) == 1
    # the public check stays independent and validates on its own
    assert verify_witness(result.witness, op("D^3"), gens) and len(calls) == 2


@pytest.mark.parametrize("field", ["real", "complex"])
def test_a_wrong_lift_cannot_pass_the_internal_check(monkeypatch, field):
    gens = [parse_operator("x^2*D^2 - 2*x*D + 2", 1, 1, field)]
    q = parse_operator("(x + i)*D^3" if field == "complex" else "D^3", 1, 1, field)
    assert weyl_closure_member(q, gens).member
    lift_rows = RiquierBasis.lift_rows

    def one_wrong_numerator(basis, multipliers):
        lifted = lift_rows(basis, multipliers)
        key, value = next(iter(lifted.numerators.items()))
        return lifted._replace(numerators={**lifted.numerators, key: value + lifted.den})

    monkeypatch.setattr(RiquierBasis, "lift_rows", one_wrong_numerator)
    with pytest.raises(RuntimeError, match="internal error"):
        weyl_closure_member(q, gens)


def test_the_internal_check_takes_rows_of_either_integer_ring():
    # den * q = h * p with den = 1 and h = 1, one side real and the other Gaussian:
    # real rows against a Gaussian den, and Gaussian rows against a real den of
    # either kind, the lift's list and verify_witness's sparse element
    real, gaussian = op("D"), parse_operator("(x + i)*D", 1, 1, "complex")
    one = integer_pair(RationalFunction.constant(1, 1))[0]
    for row_of, p in ((lambda v: v, gaussian), (polynomials._sparse, gaussian),
                      (polynomials.gaussian, real)):
        den, numerators = row_of(one), {(0, (0,)): row_of(one)}
        assert closure._identity_holds(den, numerators, p, [p])
        assert not closure._identity_holds(den, numerators, p.left_scale(rat("2")), [p])
    # in two variables: x2 * p = x2 * p for p = (x1 + i) D1, a real den and h
    # against Gaussian rows, and the Gaussian den i against real ones
    p = parse_operator("(x1 + i)*D1", 2, 1, "complex")
    x2 = integer_pair(Polynomial.variable(2, 2))[0]
    assert closure._identity_holds(x2, {(0, (0, 0)): x2}, p, [p])
    assert not closure._identity_holds(x2, {(0, (0, 0)): x2}, scalar_operator_product(
        op("x2", 2), p), [p])
    i = integer_pair(RationalFunction.constant(GaussianRational(0, 1), 2))[0]
    q = op("x1*D2 + 1", 2)
    assert closure._identity_holds(i, {(0, (0, 0)): i}, q, [q])
    assert not closure._identity_holds(i, {(0, (0, 0)): i}, q, [op("x1*D2", 2)])



def _lift_rows_of(q, gens):
    basis = complete_to_riquier_basis(gens, q.m, q.n)
    lifted = basis.lift_rows(reduce_full(q, basis.elements).cofactors)
    return [lifted.den] + list(lifted.numerators.values())


def test_the_lift_rows_are_coefficient_lists_only_in_one_variable_over_zz():
    gens = [op("x^2*D^2 - 2*x*D + 2")]
    rows = _lift_rows_of(op("D^3"), gens)
    assert all(type(v) is polynomials.CoefficientList for v in rows)
    two = [parse_operator("x1*D1 - x2^2*D2 + 1", 2, 1)]
    gaussian = [parse_operator("x^2*D^2 - 2*x*D + 2", 1, 1, "complex")]
    for q, gens in ((scalar_operator_product(op("D1 + x2", 2), two[0]), two),
                    (parse_operator("(x + i)*D^3", 1, 1, "complex"), gaussian)):
        rows = _lift_rows_of(q, gens)
        assert rows and not any(type(v) is polynomials.CoefficientList for v in rows)


def _membership_outputs():
    """(answer, lift rows) for 24 random one-variable members, each answer printed:
    built and decided on whatever elements the library's core holds."""
    rng = random.Random(1801)
    for k in range(24):
        n, count = [(1, 1), (1, 2), (2, 1), (2, 2)][k % 4]
        gens = random_generators(rng, 1, n, count)
        q = combine([random_operator(rng, 1, 1, order=1, degree=1) for _ in gens], gens)
        result = weyl_closure_member(q, gens)
        assert verify_witness(result.witness, q, gens)
        yield (result.member, format_operator(result.normal_form),
               [format_operator(e) for e in result.basis.elements],
               format_polynomial(result.witness.w),
               [format_operator(h) for h in result.witness.cofactors]), _lift_rows_of(q, gens)


def test_the_lift_on_coefficient_lists_gives_the_witness_of_sympys_elements(monkeypatch):
    on_lists = []
    for output, rows in _membership_outputs():
        assert output[0] and all(type(v) is polynomials.CoefficientList for v in rows)
        on_lists.append(output)
    # the same systems with the whole core on sympy's elements: ZZ[x] in one
    # variable is sympy's ring, the lift's one included, and the caches of
    # values made from it start empty
    sparse_one = PolyRing(["t"], ZZ, grlex).one
    one = polynomials._one

    def sparse(nvars, domain=ZZ):
        return sparse_one if nvars == 1 and domain is ZZ else one(nvars, domain)

    for module in (polynomials, riquier):
        monkeypatch.setattr(module, "_one", sparse)
    for module, cache in ((polynomials, "_ZEROS"), (polynomials, "_ONE_POLYNOMIALS"),
                          (riquier, "_ONE_OPERATORS")):
        monkeypatch.setattr(module, cache, {})
    on_sympy = []
    for output, rows in _membership_outputs():
        assert rows and all(v.ring is sparse_one.ring for v in rows)
        on_sympy.append(output)
    assert on_sympy == on_lists


def test_verify_witness_runs_no_coefficient_list_arithmetic(monkeypatch):
    gens = [op("x^2*D^2 - 2*x*D + 2"), op("(x - 1)*D + 3")]
    q = combine([op("D + x"), op("x^2*D")], gens)
    witness = weyl_closure_member(q, gens).witness
    wrong = Witness(witness.w, [witness.cofactors[0], witness.cofactors[1] + op("1")])

    def refuse(*args, **kwargs):
        raise AssertionError("verify_witness ran the lift's row arithmetic")

    lists = polynomials.CoefficientList
    for name in ("__mul__", "__add__", "__sub__", "__neg__", "diff", "mul_ground"):
        monkeypatch.setattr(lists, name, refuse)
    for name in ("_trimmed", "_packed_gcd", "_term_gcd", "_image_gcd", "gcd_cofactors"):
        monkeypatch.setattr(polynomials, name, refuse)
    assert verify_witness(witness, q, gens)
    assert not verify_witness(wrong, q, gens)

def _verify_over_fx(witness, q, generators):
    """The reference check: the residue w*q - sum h_j * p_j multiplied out over F(x)."""
    if witness.w.is_zero() or witness.w.nvars != q.m:
        return False
    if len(witness.cofactors) != len(generators):
        return False
    if not all(h.m == q.m and h.n == 1 and h.is_polynomial_row() for h in witness.cofactors):
        return False
    residue = q.left_scale(witness.w)
    for h, g in zip(witness.cofactors, generators):
        residue = residue - scalar_operator_product(h, g)
    return residue.is_zero()


def _made_gaussian(rng, p):
    """p with each coefficient times a constant with a nonzero imaginary part."""
    return OperatorVector({d: c * RationalFunction.constant(
        GaussianRational(Fraction(rng.randint(-2, 2)), Fraction(rng.choice([-2, -1, 1, 3]), 2)),
        p.m) for d, c in p.terms.items()}, p.m, p.n)


def _witness_cases(seed, m, field):
    """(witness, q, generators, valid) for a random member and its tampered witnesses.

    ``field`` makes the generators and cofactors real, Gaussian, or a mix in
    which the generators are Gaussian and the cofactors and w real.
    """
    rng = random.Random(seed)
    n, count = rng.randint(1, 2), rng.randint(1, 2)
    gens = random_generators(rng, m, n, count, order=2, degree=1, polynomial_coeffs=True)
    multipliers = [random_operator(rng, m, 1, order=1, degree=1, terms=2,
                                   polynomial_coeffs=True) for _ in gens]
    w = random_polynomial(rng, m, degree=1, allow_zero=False)
    if field != "real":
        gens = [_made_gaussian(rng, g) for g in gens]
    if field == "gaussian":
        multipliers = [_made_gaussian(rng, a) for a in multipliers]
        w = w * Polynomial.constant(GaussianRational(Fraction(1), Fraction(-2)), m)
    q = combine(multipliers, gens)
    # w * q = sum (w * a_j) * p_j, with w * a_j the left product by a function
    cofactors = [a.left_scale(w) for a in multipliers]
    valid = Witness(w, cofactors)
    yield valid, q, gens, True
    yield Witness(w + Polynomial.constant(1, m), cofactors), q, gens, None
    changed = list(cofactors)
    j = rng.randrange(count)
    d = next(iter(changed[j].terms), Derivative(1, (0,) * m))
    bump = OperatorVector.from_derivative(d, m, 1, RationalFunction(
        Polynomial.variable(rng.randint(1, m), m) + Polynomial.constant(1, m)))
    changed[j] = changed[j] + bump
    yield Witness(w, changed), q, gens, None
    if count == 2:
        yield Witness(w, cofactors[::-1]), q, gens, None
    yield Witness(w, cofactors + [OperatorVector.zero(m, 1)]), q, gens, False
    yield Witness(w, [OperatorVector(h.terms, m, 2) for h in cofactors]), q, gens, False
    if (m, n, count) in {(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1)}:
        result = weyl_closure_member(q, gens)
        yield result.witness, q, gens, True


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32), st.sampled_from([1, 2]),
       st.sampled_from(["real", "gaussian", "mixed"]))
def test_verify_witness_agrees_with_the_residue_over_fx(seed, m, field):
    for witness, q, gens, valid in _witness_cases(seed, m, field):
        verdict = verify_witness(witness, q, gens)
        assert verdict is _verify_over_fx(witness, q, gens)
        if valid is not None:
            assert verdict is valid


def test_verify_witness_rejects_rows_that_are_not_polynomial():
    witness = Witness(rat("1").num, [op("1")])
    with pytest.raises(InvalidInput):
        verify_witness(witness, op("(1/x)*D"), [op("(1/x)*D")])
    with pytest.raises(InvalidInput):
        verify_witness(witness, op("D"), [op("D [u1]", 1, 2)])


def test_witnesses_of_high_order_are_checked_without_recursion():
    # each shifted generator row is built from the one before it, so a
    # cofactor of order 1500 needs no call stack of that depth
    result = weyl_closure_member(op("D^1500"), [op("D")])
    assert result.member
    assert result.witness.w == rat("1").num
    assert result.witness.cofactors == [op("D^1499")]
    assert verify_witness(Witness(rat("1").num, [op("D^1500")]), op("D^1501"), [op("D")])
    assert not verify_witness(Witness(rat("1").num, [op("D^1500")]), op("D^1500"), [op("D")])
    gens = [op("D1", m=2)]
    q = op("D1^751*D2^750", m=2)
    assert verify_witness(Witness(rat("1", m=2).num, [op("D1^750*D2^750", m=2)]), q, gens)


def outside():
    """D^(-1), a term outside N^1 that the parser cannot write."""
    return OperatorVector.from_derivative(Derivative(1, (-1,)), 1, 1)


@pytest.mark.parametrize("decide", [weyl_closure_member, membership_via_lemma1])
def test_membership_rejects_a_multi_index_outside_n_m(decide):
    # D + D^(-1) is no operator; it once gave the answer false with normal form -1
    with returns_within(2):
        with pytest.raises(InvalidInput) as info:
            decide(op("D^2"), [op("D") + outside()])
        assert str(info.value) == ("generator 0 term given for unknown 1 with multi-index "
                                   "(-1,), which does not fit 1 variable(s) and 1 unknown(s)")
        with pytest.raises(InvalidInput, match="candidate term"):
            decide(op("D^2") + outside(), [op("D")])


# -- the F(x)-linear solver ------------------------------------------------

def test_lemma1_solve_single_relation():
    f = [rat("x"), rat("1")]
    gs = [[rat("x^2"), rat("x")]]
    assert lemma1_solve(f, gs) == [rat("1/x")]


def test_lemma1_solve_inconsistent():
    assert lemma1_solve([rat("1"), rat("0")], [[rat("0"), rat("1")]]) is None


def test_lemma1_solve_empty_family():
    assert lemma1_solve([], []) == []
    assert lemma1_solve([rat("x")], []) is None


def test_lemma1_reconstructs_solution(rng):
    for _ in range(10):
        gs = [[rat(f"{rng.randint(-3, 3)}") + rat("x") * RationalFunction.constant(k, 1)
               for k in range(3)] for _ in range(2)]
        coeffs = [rat("x"), rat("1/(x + 1)")]
        f = [sum((c * g[k] for c, g in zip(coeffs, gs)),
                 RationalFunction.zero(1)) for k in range(3)]
        sol = lemma1_solve(f, gs)
        assert sol is not None
        for k in range(3):
            total = sum((c * g[k] for c, g in zip(sol, gs)), RationalFunction.zero(1))
            assert total == f[k]


def test_lemma1_builds_each_shift_once(monkeypatch):
    # the slices of D^beta (D + x), beta = 0..3, take one derivation each,
    # where rebuilding each shift from D + x takes 1+2+3
    calls = []
    single = operators.apply_single_d

    def counting(j, p):
        calls.append(j)
        return single(j, p)

    monkeypatch.setattr(operators, "apply_single_d", counting)
    membership_via_lemma1(op("D^4"), [op("D + x")])
    assert len(calls) == 3


# -- Euclidean left-division oracle ----------------------------------------

def test_oracle_division_exact_left_multiple():
    p = op("x^2*D^2 - 2*x*D + 2")
    assert oracle_division_member_1d(scalar_operator_product(op("D + x"), p), p)


def test_oracle_division_degree_too_small():
    assert not oracle_division_member_1d(op("D"), op("D^2"))


def test_oracle_division_rejects_higher_dimension():
    with pytest.raises(InvalidInput):
        oracle_division_member_1d(op("D1", 2), op("D2", 2))


def test_oracle_division_by_zero():
    with pytest.raises(InvalidInput):
        oracle_division_member_1d(op("D"), op("0"))


def test_oracle_division_rejects_a_multi_index_outside_n_m():
    # both once answered false
    with pytest.raises(InvalidInput, match="candidate term"):
        oracle_division_member_1d(op("D^2") + outside(), op("D"))
    with pytest.raises(InvalidInput, match="divisor term"):
        oracle_division_member_1d(op("D^2"), op("D") + outside())


# -- structural properties -------------------------------------------------

def test_closure_is_a_left_module(rng):
    # if q is a member then so is a*q for any polynomial-coefficient operator a
    gens = [op("x^2*D^2 - 2*x*D + 2")]
    q = op("D^3")
    for _ in range(8):
        a = random_operator(rng, 1, 1, order=2, degree=2, terms=2,
                            polynomial_coeffs=True)
        result = weyl_closure_member(scalar_operator_product(a, q), gens)
        assert result.member


def test_membership_paths_agree_randomized(rng):
    for _ in range(12):
        m = rng.randint(1, 2)
        n = rng.randint(1, 2)
        gens = random_generators(rng, m, n, rng.randint(1, 2), order=2, degree=1,
                                 polynomial_coeffs=True)
        q = random_operator(rng, m, n, order=2, degree=1, polynomial_coeffs=True)
        result = weyl_closure_member(q, gens)
        assert result.member == membership_via_lemma1(q, gens)
        if result.member:
            assert verify_witness(result.witness, q, gens)


# -- metamorphic checks: membership is invariant under automorphisms ----------
#
# phi(x_j) = l_j * x_s(j), phi(D_j) = D_s(j) / l_j, for a permutation s and
# nonzero scalars l_j, keeps [D_j, x_k] = delta_jk, so it is an automorphism
# of the Weyl algebra acting on each component.  It maps a member q of the
# closure of the p_j to a member phi(q) of the closure of the phi(p_j), and
# a witness w*q = sum h_j p_j to phi(w)*phi(q) = sum phi(h_j) phi(p_j).

# (m, n, number of generators), as in the benchmark's systems
MEMBERSHIP_CLASSES = [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (2, 1, 1), (2, 2, 1)]
SCALES = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(-1, 2)]
I = GaussianRational(0, 1)


def _map_polynomial(p, s, scales, factor=1):
    terms = {}
    for e, v in p.terms.items():
        moved = [0] * len(e)
        for j, k in enumerate(e):
            moved[s[j]] = k
            for _ in range(k):
                v = v * scales[j]
        terms[tuple(moved)] = v * factor
    return Polynomial(terms, p.nvars)


def _map_operator(p, s, scales):
    terms = {}
    for d, c in p.terms.items():
        factor, alpha = 1, [0] * p.m
        for j, a in enumerate(d.alpha):
            alpha[s[j]] = a
            for _ in range(a):
                factor = factor / scales[j]
        terms[Derivative(d.component, tuple(alpha))] = RationalFunction(
            _map_polynomial(c.num, s, scales, factor))
    return OperatorVector(terms, p.m, p.n)


def _permuted(rng, m):
    # a rotation, so no system in two or more variables keeps its order
    k = rng.randrange(1, m) if m > 1 else 0
    return [(j + k) % m for j in range(m)], [Fraction(1)] * m


def _rescaled(rng, m):
    return list(range(m)), [rng.choice(SCALES) for _ in range(m)]


def _made_complex(rng, m):
    # x -> i x, D -> -i D
    return list(range(m)), [I] * m


def _membership_cases():
    """Random systems shaped like conftest's, each with a constructed member and a random q."""
    for seed in range(40):
        rng = random.Random(seed)
        m, n, count = MEMBERSHIP_CLASSES[seed % len(MEMBERSHIP_CLASSES)]
        gens = random_generators(rng, m, n, count, order=2, degree=1, polynomial_coeffs=True)
        member = OperatorVector.zero(m, n)
        for g in gens:
            a = random_operator(rng, m, 1, order=1, degree=1, terms=2, polynomial_coeffs=True)
            member = member + scalar_operator_product(a, g)
        other = random_operator(rng, m, n, order=2, degree=1, polynomial_coeffs=True)
        yield rng, gens, [member, other]


@pytest.mark.parametrize("draw_map", [_permuted, _rescaled, _made_complex],
                         ids=["permuted variables", "rescaled variables", "x -> i x"])
def test_membership_is_invariant_under_weyl_automorphisms(draw_map):
    members = nonmembers = 0
    for rng, gens, candidates in _membership_cases():
        s, scales = draw_map(rng, gens[0].m)
        mapped_gens = [_map_operator(g, s, scales) for g in gens]
        for q in candidates:
            result = weyl_closure_member(q, gens)
            mapped_q = _map_operator(q, s, scales)
            mapped = weyl_closure_member(mapped_q, mapped_gens)
            assert mapped.member == result.member
            if not result.member:
                nonmembers += 1
                continue
            members += 1
            assert verify_witness(mapped.witness, mapped_q, mapped_gens)
            image = Witness(_map_polynomial(result.witness.w, s, scales),
                            [_map_operator(h, s, scales) for h in result.witness.cofactors])
            assert verify_witness(image, mapped_q, mapped_gens)
    assert members >= 40 and nonmembers >= 10
