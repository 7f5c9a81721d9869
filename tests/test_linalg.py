"""Exact elimination against sympy's reduced row echelon form."""

import copy
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from weylclosure import complete_to_riquier_basis, parse_operator
from weylclosure.linalg import nullspace_basis, nullity, row_echelon, solve_linear_combination
from weylclosure.operators import coefficient_vector, multi_indices, shifts
from weylclosure.polynomials import RationalFunction
from weylclosure.scalars import ZERO


@st.composite
def sparse_matrices(draw):
    """Mostly-zero Fraction matrices, wide or tall, some rows and columns all zero.

    A zero entry is the shared ``ZERO`` or a zero of its own, as in the
    jets' matrices, whose evaluated rows can hold zeros that cancelled.
    """
    nrows = draw(st.integers(1, 8))
    ncols = draw(st.integers(1, 8))
    zero_rows = draw(st.sets(st.integers(0, nrows - 1), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=2))
    # out of ten entries, about this many are nonzero
    density = draw(st.integers(1, 4))
    rng = draw(st.randoms(use_true_random=False))
    rows = []
    for i in range(nrows):
        row = []
        for j in range(ncols):
            if i in zero_rows or j in zero_cols or rng.randrange(10) >= density:
                row.append(ZERO if rng.randrange(4) else Fraction(0))
            else:
                row.append(Fraction(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 5)))
        rows.append(row)
    return rows


def assert_same_entries(a, b, zero, *inputs):
    """Equal lists of equal values; each zero of ``a`` is ``zero`` itself or a
    zero entry of ``inputs`` that the elimination never touched."""
    assert a == b
    kept = {id(v) for values in inputs for v in values if not v}
    assert all(v is zero or id(v) in kept for v in a if not v)


@settings(deadline=None, max_examples=300)
@given(sparse_matrices(), st.randoms(use_true_random=False))
def test_elimination_matches_sympy_rref_and_nullspace_annihilates_rows(rows, rng):
    reference, reference_pivots = sympy.Matrix(rows).rref()
    want = [[Fraction(int(e.p), int(e.q)) for e in reference.row(i)]
            for i in range(reference.rows)]
    # the shared zero and a zero that is no entry of the matrix (so every
    # identity test fails on it) give sympy's values and pivots, and every
    # entry that cancels is the zero passed
    own_zero = Fraction(0)
    assert own_zero is not ZERO
    for zero in (ZERO, own_zero):
        mat, pivots = row_echelon(rows, zero)
        assert pivots == list(reference_pivots)
        assert len(mat) == len(want)
        for got, expected in zip(mat, want):
            assert_same_entries(got, expected, zero, *rows)
    ncols = len(rows[0])
    assert nullity(rows, ncols, ZERO) == nullity(rows, ncols, own_zero) == ncols - len(pivots)
    vectors = nullspace_basis(rows, ncols, ZERO, Fraction(1))
    unshared = nullspace_basis(rows, ncols, own_zero, Fraction(1))
    assert len(vectors) == len(unshared) == ncols - len(pivots)
    for vec, other in zip(vectors, unshared):
        assert_same_entries(vec, other, ZERO)
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0
    # the rows as vectors: a random combination of them is solved, and a
    # target off their span (when there is one) is not
    target = [ZERO] * ncols
    for row in rows:
        c = Fraction(rng.randint(-2, 2))
        target = [t + c * a for t, a in zip(target, row)]
    solution = solve_linear_combination(target, rows, ZERO)
    assert_same_entries(solution, solve_linear_combination(target, rows, own_zero),
                        ZERO, target, *rows)
    for i in range(ncols):
        assert sum(h * row[i] for h, row in zip(solution, rows)) == target[i]
    if vectors:
        # a nonzero nullspace vector is orthogonal to every row, so off their span
        off = vectors[0]
        assert solve_linear_combination(off, rows, ZERO) is None
        assert solve_linear_combination(off, rows, own_zero) is None


def lemma1_family(texts, q_text, m):
    """(target, family) as membership_via_lemma1 builds them: the coefficient
    slices of q and of the shifts of the basis of the generators."""
    basis = complete_to_riquier_basis([parse_operator(t, m) for t in texts], m, 1)
    q = parse_operator(q_text, m)
    s = max([q.degree()] + [p.degree() for p in basis.elements])
    family = []
    for p in basis.elements:
        shifted = shifts(p)
        for beta in multi_indices(m, s - p.degree()):
            family.append(coefficient_vector(shifted(beta), s))
    return coefficient_vector(q, s), family


@pytest.mark.parametrize("texts, q_text, m, member", [
    (["x*D - 1"], "D*(x*D - 1)", 1, True),
    (["x*D - 1"], "D", 1, False),
    (["x^2*D^2 - 2*x*D + 2"], "(x + 1)*D^3", 1, True),
    (["x2*D1 - x1*D2", "D1^2 + D2^2"],
     "(x1 + x2)*D2*(x2*D1 - x1*D2) + D1*(D1^2 + D2^2)", 2, True),
    (["x2*D1 - x1*D2"], "D1", 2, False),
])
def test_rational_function_elimination_with_and_without_the_shared_zero(
        texts, q_text, m, member):
    target, family = lemma1_family(texts, q_text, m)
    zero = RationalFunction.zero(m)
    own_zero = copy.copy(zero)
    assert own_zero is not zero and own_zero == zero
    columns = [list(c) for c in zip(*family)] if family else []
    augmented = [row + [t] for row, t in zip(columns, target)]
    mat, pivots = row_echelon(augmented, own_zero)
    shared, shared_pivots = row_echelon(augmented, zero)
    assert shared_pivots == pivots
    for got, want in zip(shared, mat):
        assert_same_entries(got, want, zero, *augmented)
    solution = solve_linear_combination(target, family, zero)
    assert (solution is not None) == member
    assert solve_linear_combination(target, family, own_zero) == solution
    if member:
        assert_same_entries(solution, solution, zero, target)
        for i, t in enumerate(target):
            total = zero
            for h, vector in zip(solution, family):
                total = total + h * vector[i]
            assert total == t
