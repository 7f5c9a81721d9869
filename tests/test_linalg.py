"""Exact elimination against sympy's reduced row echelon form."""

from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from weylclosure.linalg import nullspace_basis, row_echelon


@st.composite
def sparse_matrices(draw):
    """Mostly-zero Fraction matrices, wide or tall, some rows and columns all zero."""
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
                row.append(Fraction(0))
            else:
                row.append(Fraction(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 5)))
        rows.append(row)
    return rows


@settings(deadline=None, max_examples=300)
@given(sparse_matrices())
def test_elimination_matches_sympy_rref_and_nullspace_annihilates_rows(rows):
    mat, pivots = row_echelon(rows)
    reference, reference_pivots = sympy.Matrix(rows).rref()
    assert pivots == list(reference_pivots)
    assert mat == [[Fraction(int(e.p), int(e.q)) for e in reference.row(i)]
                   for i in range(reference.rows)]
    ncols = len(rows[0])
    vectors = nullspace_basis(rows, ncols, Fraction(0), Fraction(1))
    assert len(vectors) == ncols - len(pivots)
    for vec in vectors:
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0
