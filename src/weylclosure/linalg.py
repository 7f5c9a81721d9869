"""Gaussian elimination over an arbitrary exact field.

Works uniformly for scalar matrices (Fraction / GaussianRational entries) and
for symbolic matrices over the rational function field: entries only need
+, -, *, /, truthiness and equality.  Elimination skips zeros: it does
arithmetic only on the nonzero entries of each pivot row, which is most of
the saving on constraint matrices, since they are mostly zeros.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple


def row_echelon(rows: List[list]) -> Tuple[List[list], List[int]]:
    """Reduced row echelon form (in place on a copy) and the pivot column list.

    Scaling the pivot row and eliminating with it touch only the pivot row's
    nonzero entries: where it is zero, no entry of any row changes.
    """
    mat = [list(r) for r in rows]
    if not mat:
        return mat, []
    ncols = len(mat[0])
    pivots: List[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        row = mat[r]
        # left of col the pivot row is zero: earlier pivots cleared it
        support = [j for j in range(col, ncols) if row[j]]
        inv = row[col]
        if inv != 1:
            for j in support:
                row[j] = row[j] / inv
        for i, other in enumerate(mat):
            factor = other[col]
            if factor and i != r:
                for j in support:
                    other[j] = other[j] - factor * row[j]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def rank(rows: List[list]) -> int:
    return len(row_echelon(rows)[1])


def nullity(rows: List[list], ncols: int) -> int:
    return ncols - rank(rows)


def nullspace_basis(rows: List[list], ncols: int, zero, one) -> List[list]:
    """A basis of the right nullspace, one vector per free column."""
    if not rows:
        return [[one if j == i else zero for j in range(ncols)] for i in range(ncols)]
    mat, pivots = row_echelon(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [zero] * ncols
        vec[f] = one
        for r, c in enumerate(pivots):
            if mat[r][f]:
                vec[c] = -mat[r][f]
        basis.append(vec)
    return basis


def solve_linear_combination(target: Sequence, vectors: Sequence[Sequence],
                             zero) -> Optional[list]:
    """Coefficients h with target = sum h_j vectors[j], or None if unsolvable."""
    t = len(target)
    k = len(vectors)
    if k == 0:
        return [] if not any(target) else None
    augmented = [[vectors[j][i] for j in range(k)] + [target[i]] for i in range(t)]
    mat, pivots = row_echelon(augmented)
    if k in pivots:
        return None  # pivot in the augmented column: inconsistent
    solution = [zero] * k
    for r, c in enumerate(pivots):
        solution[c] = mat[r][k]
    return solution
