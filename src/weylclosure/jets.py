"""Jet constraints and truncated formal solutions of a Riquier-basis system.

The constraint matrix realizes the truncated equivalence: a tuple of
derivative values at a point extends to a formal solution iff it is
annihilated by every row ``cf(D^beta p)|_{x0}`` with ``|beta| <= s - deg p``.
The formal solver fills in principal-derivative values in ranking order from
the substitution rules, which is the constructive half of that equivalence.

Both evaluate first and differentiate second.  Each coefficient c of a basis
element is Taylor-expanded at x0 once, as a truncated power series over Q or
Q(i), and the evaluated row of ``D^beta p`` is read off the numeric Leibniz
rule: column ``delta + gamma`` gets ``sum C(beta, gamma) d^(beta-gamma) c(x0)``
over the terms ``c D^delta`` of p and ``gamma <= beta``.  No rational-function
arithmetic happens here; ``operators.apply_to_jet`` keeps the symbolic shifts
as an independent check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Dict, List, Mapping, Sequence, Tuple

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
from .ranking import _pick_rule
from .riquier import DerivativeClass, RiquierBasis
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
    point = tuple(point)
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


def formal_solve(basis: RiquierBasis, point: Sequence[Scalar],
                 init: Mapping[Derivative, Scalar], order: int) -> Jet:
    """The unique order-T jet with the given parametric values solving the system.

    Principal-derivative values are computed in increasing ranking order from
    the substitution rule of the basis element whose head divides them.
    Unspecified parametric values default to zero.  A value given for a
    derivative that does not fit the system's (m, n), lies above the
    truncation order or is principal raises InvalidInput.  The evaluated rule
    rows are kept in ``basis.rule_rows``, so later solves at the same point
    reuse them.
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
        name = format_derivative(d, basis.m, basis.n)
        if d.order > order:
            raise InvalidInput(
                f"initial value given for {name} above the truncation order {order}")
        if basis.classify(d) is DerivativeClass.PRINCIPAL:
            raise InvalidInput(
                f"initial value given for the principal derivative {name}; "
                f"only parametric derivatives take initial values")
    point = tuple(point)
    tables: Dict[int, Dict[Derivative, Dict[MultiIndex, Scalar]]] = {}
    values: Dict[Derivative, Scalar] = {}
    for d in derivatives_up_to(basis.m, basis.n, order):
        rule = _pick_rule(d, basis.heads)
        if rule is None:
            values[d] = init.get(d, Fraction(0))
            continue
        row = basis.rule_rows.get((point, d))
        if row is None:
            if rule not in tables:
                p = basis.elements[rule]
                tables[rule] = _derivative_table(p, point, order - p.degree())
            beta = tuple(a - b for a, b in zip(d.alpha, basis.heads[rule].alpha))
            row = [(delta, value)
                   for delta, value in _leibniz_row(tables[rule], beta).items()
                   if delta != d]
            basis.rule_rows[(point, d)] = row
        total: Scalar = Fraction(0)
        for delta, value in row:
            total = total + value * values[delta]
        values[d] = -total  # head coefficient of the shifted rule is 1
    return Jet(point, order, basis.m, basis.n, values)


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
    """First small rational point where none of the given polynomials vanishes."""
    candidates: List[Fraction] = [Fraction(0)]
    for k in range(1, search_radius + 1):
        candidates.append(Fraction(k))
        candidates.append(Fraction(-k))
    for point in itertools.product(candidates, repeat=m):
        if all(p.evaluate(point) for p in avoid if not p.is_zero()):
            return point
    raise EvaluationAtPole("no regular point found in the search range")


def basis_denominators(basis: RiquierBasis) -> List[Polynomial]:
    return [
        coeff.den
        for element in basis.elements
        for coeff in element.terms.values()
    ]
