"""Jet constraints and truncated formal solutions of a Riquier-basis system.

The constraint matrix realizes the truncated equivalence: a tuple of
derivative values at a point extends to a formal solution iff it is
annihilated by every row ``cf(D^beta p)|_{x0}`` with ``|beta| <= s - deg p``.
The formal solver fills in principal-derivative values in ranking order from
the substitution rules, which is the constructive half of that equivalence.
It compiles those rules at a point into a solve plan, kept on the basis: over
Delta_T in ranking order, each entry is either parametric or a row of
(earlier position, value) pairs.  Delta_s is a prefix of Delta_(s+1), so one
plan per point serves every order, and a solve is one pass of exact
multiply-adds over a prefix of it.

Both evaluate first and differentiate second.  Each coefficient c of a basis
element is Taylor-expanded at x0 once, as a truncated power series over Q or
Q(i), and the evaluated row of ``D^beta p`` is read off the numeric Leibniz
rule: column ``delta + gamma`` gets ``sum C(beta, gamma) d^(beta-gamma) c(x0)``
over the terms ``c D^delta`` of p and ``gamma <= beta``.  No rational-function
arithmetic happens here; ``operators.apply_to_jet`` keeps the symbolic shifts
as an independent check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import EvaluationAtPole, InvalidInput, SBelowS0
from .formatting import format_derivative
from .linalg import nullity, nullspace_basis
from .operators import (
    Derivative,
    Jet,
    MultiIndex,
    OperatorVector,
    derivatives_up_to,
    multi_indices,
)
from .polynomials import Polynomial, RationalFunction
from .ranking import pick_rule
from .riquier import RiquierBasis
from .scalars import Scalar, format_point


@dataclass
class ConstraintSystem:
    """The homogeneous linear system of Prop-style jet constraints at a point."""

    rows: List[List[Scalar]]
    row_labels: List[Tuple[int, MultiIndex]]  # (basis element index, beta)
    columns: List[Derivative]
    s: int
    point: Tuple[Scalar, ...]
    basis: RiquierBasis


def constraint_matrix(basis: RiquierBasis, s: int,
                      point: Sequence[Scalar]) -> ConstraintSystem:
    """All rows cf(D^beta p)|_point over Delta_s, for p in the basis, |beta| <= s - deg p."""
    if s < basis.s0:
        raise SBelowS0(f"requested order {s} is below the basis degree {basis.s0}")
    point = _check_point(basis, point)
    columns = derivatives_up_to(basis.m, basis.n, s)
    zero = Fraction(0)
    rows: List[List[Scalar]] = []
    labels: List[Tuple[int, MultiIndex]] = []
    for index, p in enumerate(basis.elements):
        reach = s - p.degree()
        table = _derivative_table(p, point, reach)
        for beta in sorted(multi_indices(basis.m, reach), key=lambda b: (sum(b), b)):
            row = _leibniz_row(table, beta)
            rows.append([row.get(d, zero) for d in columns])
            labels.append((index, beta))
    return ConstraintSystem(rows, labels, columns, s, point, basis)


def _check_point(basis: RiquierBasis, point: Sequence[Scalar]) -> Tuple[Scalar, ...]:
    """The point as a tuple; InvalidInput unless it has one coordinate per variable."""
    point = tuple(point)
    if len(point) != basis.m:
        raise InvalidInput(f"expected {basis.m} coordinate(s), got {len(point)}")
    return point


def check_jet_constraints(jet: Jet, system: ConstraintSystem) -> bool:
    """True iff every constraint row annihilates the jet."""
    if jet.order != system.s:
        raise InvalidInput(f"jet order {jet.order} does not match system order {system.s}")
    if jet.base_point != system.point:
        raise InvalidInput("jet base point does not match the constraint system")
    vector = [jet.value(d) for d in system.columns]
    for row in system.rows:
        total: Scalar = Fraction(0)
        for a, b in zip(row, vector):
            total = total + a * b
        if total:
            return False
    return True


class SolvePlan:
    """The substitution rules of a basis compiled at one point.

    ``derivatives`` is Delta_order in ranking order and ``index`` maps each
    derivative to its position.  ``rows[i]`` is None when ``derivatives[i]``
    is parametric; otherwise the value there is ``sum(c * value[j])`` over
    the ``(j, c)`` pairs of the row, every j < i: the shifted rule's other
    terms, negated, with zero coefficients dropped.  Under the standard
    ranking Delta_s is a prefix of Delta_(s+1), so one plan serves every
    order: a solve at a higher order extends it, a lower order reads a prefix.
    """

    def __init__(self) -> None:
        self.order = -1
        self.derivatives: List[Derivative] = []
        self.index: Dict[Derivative, int] = {}
        self.rows: List[Optional[Tuple[Tuple[int, Scalar], ...]]] = []

    def extend(self, basis: RiquierBasis, point: Tuple[Scalar, ...], order: int) -> None:
        """Compile the rows up to ``order``; no row is added if this raises."""
        if order <= self.order:
            return
        start = len(self.rows)
        self.derivatives = derivatives_up_to(basis.m, basis.n, order)
        new = self.derivatives[start:]
        self.index.update((d, i) for i, d in enumerate(new, start))
        tables: Dict[int, Dict[Derivative, Dict[MultiIndex, Scalar]]] = {}
        rows = []
        for d in new:
            rule = pick_rule(d, basis.heads)
            if rule is None:
                rows.append(None)
                continue
            if rule not in tables:
                p = basis.elements[rule]
                tables[rule] = _derivative_table(p, point, order - p.degree())
            beta = tuple(a - b for a, b in zip(d.alpha, basis.heads[rule].alpha))
            # the head coefficient of the shifted rule is 1
            rows.append(tuple((self.index[delta], -value)
                              for delta, value in _leibniz_row(tables[rule], beta).items()
                              if delta != d and value))
        self.rows.extend(rows)
        self.order = order


def formal_solve(basis: RiquierBasis, point: Sequence[Scalar],
                 init: Mapping[Derivative, Scalar], order: int) -> Jet:
    """The unique order-T jet with the given parametric values solving the system.

    Principal-derivative values are computed in increasing ranking order from
    the substitution rule of the basis element whose head divides them, as
    one pass of exact multiply-adds over the basis's solve plan at the point
    (``basis.solve_plans``), which is compiled on the first solve there and
    extended when a later solve asks for a higher order.  Unspecified
    parametric values default to zero.  A value given for a derivative that
    does not fit the system's (m, n), lies above the truncation order or is
    principal raises InvalidInput, and so does a point without m coordinates.
    """
    if order < basis.s0:
        raise SBelowS0(f"truncation order {order} is below the basis degree {basis.s0}")
    for d in init:
        if (len(d.alpha) != basis.m or any(a < 0 for a in d.alpha)
                or not 1 <= d.component <= basis.n):
            raise InvalidInput(
                f"initial value given for unknown {d.component} with multi-index "
                f"{d.alpha}, which does not fit {basis.m} variable(s) and "
                f"{basis.n} unknown(s)")
        if d.order > order:
            raise InvalidInput(
                f"initial value given for {format_derivative(d, basis.m, basis.n)} "
                f"above the truncation order {order}")
    point = _check_point(basis, point)
    plan = basis.solve_plans.get(point)
    if plan is None:
        plan = basis.solve_plans[point] = SolvePlan()
    plan.extend(basis, point, order)
    size = basis.n * comb(order + basis.m, basis.m)  # |Delta_order|
    values: List[Scalar] = [Fraction(0)] * size
    for d, value in init.items():
        i = plan.index[d]
        if plan.rows[i] is not None:
            raise InvalidInput(
                f"initial value given for the principal derivative "
                f"{format_derivative(d, basis.m, basis.n)}; "
                f"only parametric derivatives take initial values")
        values[i] = value
    for i, row in enumerate(plan.rows[:size]):
        if row is not None:
            total: Scalar = Fraction(0)
            for j, c in row:
                v = values[j]
                if v:
                    total = total + c * v
            values[i] = total
    return Jet(point, order, basis.m, basis.n, dict(zip(plan.derivatives, values)))


# -- evaluate-first Leibniz rows --------------------------------------------


def _shifted_series(f: Polynomial, point: Tuple[Scalar, ...],
                    order: int) -> Dict[MultiIndex, Scalar]:
    """Coefficients of f(point + y) as a polynomial in y, truncated at total degree order."""
    series: Dict[MultiIndex, Scalar] = {}
    for mono, c in f.terms.items():
        # expand prod_j (x0_j + y_j)^e_j binomially, one variable at a time
        partial: Dict[MultiIndex, Scalar] = {(): c}
        for x, e in zip(point, mono):
            powers = [Fraction(1)]
            for _ in range(e):  # GaussianRational has no __pow__
                powers.append(powers[-1] * x)
            grown: Dict[MultiIndex, Scalar] = {}
            for mu, value in partial.items():
                for k in range(min(e, order - sum(mu)) + 1):
                    grown[mu + (k,)] = value * comb(e, k) * powers[e - k]
            partial = grown
        for mu, value in partial.items():
            series[mu] = series.get(mu, 0) + value
    return series


def _coefficient_derivatives(c: RationalFunction, point: Tuple[Scalar, ...],
                             order: int) -> Dict[MultiIndex, Scalar]:
    """The nonzero values d^mu c(point) for |mu| <= order, from the Taylor series of c."""
    if len(point) != c.nvars:
        raise ValueError("point dimension mismatch")
    series = _shifted_series(c.num, point, order)
    if not c.den.is_constant():  # a constant denominator is 1: it is monic
        num, den = series, _shifted_series(c.den, point, order)
        lead = den.pop((0,) * len(point), 0)
        if not lead:
            raise EvaluationAtPole(f"denominator vanishes at {format_point(point)}")
        # power-series division num/den, in increasing total degree
        series = {}
        for mu in multi_indices(len(point), order):
            total = num.get(mu, 0)
            for nu, value in den.items():
                rest = tuple(a - b for a, b in zip(mu, nu))
                if min(rest) >= 0:
                    total = total - value * series[rest]
            series[mu] = total / lead
    derivatives: Dict[MultiIndex, Scalar] = {}
    for mu, value in series.items():
        if value:
            for a in mu:
                value = value * factorial(a)
            derivatives[mu] = value
    return derivatives


def _derivative_table(p: OperatorVector, point: Tuple[Scalar, ...],
                      order: int) -> Dict[Derivative, Dict[MultiIndex, Scalar]]:
    """For each term c*D^delta of p, the values d^mu c(point) with |mu| <= order."""
    return {delta: _coefficient_derivatives(c, point, order)
            for delta, c in p.terms.items()}


def _leibniz_row(table: Dict[Derivative, Dict[MultiIndex, Scalar]],
                 beta: MultiIndex) -> Dict[Derivative, Scalar]:
    """The coefficients of D^beta p at the point, from p's derivative table.

    D^beta (c D^delta) = sum over gamma <= beta of
    C(beta, gamma) (d^(beta-gamma) c) D^(delta+gamma).
    """
    row: Dict[Derivative, Scalar] = {}
    for delta, derivatives in table.items():
        for mu, value in derivatives.items():
            gamma = tuple(b - a for a, b in zip(mu, beta))
            if min(gamma) < 0:
                continue
            for b, g in zip(beta, gamma):
                value = value * comb(b, g)
            column = delta.differentiate(gamma)
            row[column] = row.get(column, 0) + value
    return row


def solution_space_dim(basis: RiquierBasis, s: int, point: Sequence[Scalar]) -> int:
    """Nullity of the constraint matrix: the number of free jet parameters."""
    system = constraint_matrix(basis, s, point)
    return nullity(system.rows, len(system.columns))


def constraint_nullspace(system: ConstraintSystem) -> List[Jet]:
    """A basis of jets spanning the solutions of the constraint system."""
    vectors = nullspace_basis(system.rows, len(system.columns),
                              Fraction(0), Fraction(1))
    jets = []
    for vec in vectors:
        jets.append(Jet(system.point, system.s, system.basis.m, system.basis.n,
                        dict(zip(system.columns, vec))))
    return jets


def pick_regular_point(avoid: Sequence[Polynomial], m: int,
                       search_radius: int = 25) -> Tuple[Fraction, ...]:
    """First small rational point where none of the given polynomials vanishes.

    "First" is in the lexicographic order of the grid whose coordinates run
    through 0, 1, -1, ..., r, -r for r = search_radius.  The grid is searched
    depth-first, one coordinate at a time, and a candidate is skipped as soon
    as fixing it leaves some polynomial identically zero, since no point that
    extends it can then be regular.
    """
    candidates: List[Fraction] = [Fraction(0)]
    for k in range(1, search_radius + 1):
        candidates.append(Fraction(k))
        candidates.append(Fraction(-k))
    polys = [p for p in avoid if not p.is_zero()]
    if any(p.nvars != m for p in polys):
        raise ValueError("point dimension mismatch")

    def search(terms: List[Mapping[MultiIndex, Scalar]],
               left: int) -> Optional[Tuple[Fraction, ...]]:
        # every polynomial in terms is nonzero in the ``left`` free variables
        if left == 0:
            return ()
        for c in candidates:
            fixed = [_fix_first_variable(t, c) for t in terms]
            if all(fixed):
                rest = search(fixed, left - 1)
                if rest is not None:
                    return (c,) + rest
        return None

    point = search([p.terms for p in polys], m)
    if point is None:
        raise EvaluationAtPole("no regular point found in the search range")
    return point


def _fix_first_variable(terms: Mapping[MultiIndex, Scalar],
                        c: Fraction) -> Dict[MultiIndex, Scalar]:
    """The nonzero terms of p(c, x_2, ...) as a polynomial in the remaining variables."""
    fixed: Dict[MultiIndex, Scalar] = {}
    for mono, coeff in terms.items():
        fixed[mono[1:]] = fixed.get(mono[1:], 0) + coeff * c ** mono[0]
    return {mono: value for mono, value in fixed.items() if value}


def basis_denominators(basis: RiquierBasis) -> List[Polynomial]:
    return [
        coeff.den
        for element in basis.elements
        for coeff in element.terms.values()
    ]
