"""Jet constraints and truncated formal solutions of a Riquier-basis system.

The constraint matrix realizes the truncated equivalence: a tuple of
derivative values at a point extends to a formal solution iff it is
annihilated by every row ``cf(D^beta p)|_{x0}`` with ``|beta| <= s - deg p``.
The formal solver fills in principal-derivative values in ranking order from
the substitution rules, which is the constructive half of that equivalence.

The basis is evaluated at a point in one place, its plan there
(``SolvePlan``, kept in ``basis.solve_plans``), which the constraint matrix
and every solve at that point share.  Both evaluate first and differentiate
second.  Each element's Taylor table is built once: a polynomial coefficient
c is expanded at x0 in full, since its series is finite, and a rational one,
as a truncated power series over Q or Q(i), to the highest order asked, and
again only when a higher order is asked.  Each evaluated row of ``D^beta p``
is read once off the numeric Leibniz rule: column ``delta + gamma`` gets
``sum C(beta, gamma) d^(beta-gamma) c(x0)`` over the terms ``c D^delta`` of p
and ``gamma <= beta``.  No rational-function arithmetic happens here;
``operators.apply_to_jet`` keeps the symbolic shifts as an independent check.

The plan compiles the substitution rules over Delta_T in ranking order and
stores them transposed: for each position, the later rows that read it, with
their coefficients.  Delta_s is a prefix of Delta_(s+1), so one plan per
point serves every order, and a solve pushes each nonzero value forward over
a prefix of it, never visiting a row whose inputs are all zero.  Delta_T and
its positions are ranked once per (m, n) (``riquier.ranked_delta``), and the
principal/parametric classification once per basis
(``RiquierBasis.ranked_up_to``): the plans and the constraint matrix's
columns read both.

The arithmetic is only what the answers need: integer factors (binomials,
factorials) are multiplied out before one Fraction product per entry, and
none when that product is 1; zero Taylor terms are never formed; absent and
vanishing values are the one shared ``scalars.ZERO``.  Requests whose Delta_s
or constraint matrix would exceed ``operators.MAX_JET_SIZE`` are refused with
InvalidInput before anything is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, repeat
from math import comb, factorial, prod
from operator import add
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .errors import EvaluationAtPole, InvalidInput, SBelowS0
from .formatting import format_derivative
from .linalg import nullity, nullspace_basis
from .operators import (
    MAX_JET_SIZE,
    Derivative,
    Jet,
    MultiIndex,
    OperatorVector,
    check_fits,
    multi_indices,
)
from .polynomials import Polynomial, RationalFunction
from .riquier import RiquierBasis
from .scalars import ZERO, Scalar, format_point


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
    """All rows cf(D^beta p)|_point over Delta_s, for p in the basis, |beta| <= s - deg p.

    The rows are read off the basis's evaluation at the point
    (``basis.solve_plans``), which the solve plan there shares.
    InvalidInput, before anything is built, when the matrix would have more
    than MAX_JET_SIZE entries.
    """
    if s < basis.s0:
        raise SBelowS0(f"requested order {s} is below the basis degree {basis.s0}")
    point = _check_point(basis, point)
    nrows = sum(comb(s - p.degree() + basis.m, basis.m) for p in basis.elements)
    ncols = basis.n * comb(s + basis.m, basis.m)
    if nrows * ncols > MAX_JET_SIZE:
        raise InvalidInput(
            f"the constraint matrix of order {s} has {nrows} rows and {ncols} columns, "
            f"{nrows * ncols} entries, more than the limit of {MAX_JET_SIZE}")
    size = basis.ranked_up_to(s)  # before reading ranked, which this may replace
    columns = basis.ranked[:size]
    position = basis.position
    plan = _plan(basis, point)
    rows: List[List[Scalar]] = []
    labels: List[Tuple[int, MultiIndex]] = []
    for index, p in enumerate(basis.elements):
        reach = s - p.degree()
        for beta in sorted(multi_indices(basis.m, reach), key=lambda b: (sum(b), b)):
            row = [ZERO] * ncols
            for key, value in plan.row(basis, index, beta, reach).items():
                row[position[key]] = value
            rows.append(row)
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
        total: Scalar = ZERO
        for a, b in zip(row, vector):
            total = total + a * b
        if total:
            return False
    return True


class SolvePlan:
    """The basis evaluated at one point, and its substitution rules compiled there.

    It is the one place where the basis is evaluated at the point.  Element
    k's derivative table (``_derivative_table``) is built on first use: the
    values d^mu c(point) of its polynomial coefficients in full, and of its
    rational ones through the highest order asked, expanded again only when a
    higher order is asked.  Each evaluated row of D^beta p_k is built once,
    by ``row``; ``constraint_matrix`` and the solve plan read the same rows.

    The solve plan covers Delta_order in the basis's ranking: ``rows[i]`` is
    the row that solves position i, the shifted rule whose head is
    ``basis.ranked[i]``, or None when that derivative is parametric.  It is
    stored transposed: ``readers[j]`` lists, in increasing i, the (i, c) with
    j < i such that the value at i has the term c * (value at j), the
    shifted rule's other terms negated, zero coefficients dropped.  So a
    solve pushes each nonzero value forward and never visits a row whose
    inputs are all zero.  One plan serves every order: a solve at a higher
    order extends it, a lower order reads a prefix.
    """

    def __init__(self, point: Tuple[Scalar, ...]) -> None:
        self.point = point
        self.order = -1
        self.rows: List[Optional[Dict[Derivative, Scalar]]] = []
        self.readers: List[List[Tuple[int, Scalar]]] = []
        # per element index: its derivative table and the order it was built for
        self._tables: Dict[int, Tuple[Dict[Derivative, Dict[MultiIndex, Scalar]], int]] = {}
        self._rows: Dict[Tuple[int, MultiIndex], Dict[Derivative, Scalar]] = {}

    def row(self, basis: RiquierBasis, k: int, beta: MultiIndex,
            reach: int) -> Dict[Derivative, Scalar]:
        """The evaluated row of D^beta p_k, built once; ``reach`` >= |beta| is
        the order to expand p_k's table to, should the row need it expanded."""
        row = self._rows.get((k, beta))
        if row is None:
            held = self._tables.get(k)
            if held is None or held[1] < sum(beta):
                table = _derivative_table(basis.elements[k], self.point, reach,
                                          None if held is None else held[0])
                held = self._tables[k] = table, reach
            row = self._rows[k, beta] = _leibniz_row(held[0], beta)
        return row

    def extend(self, basis: RiquierBasis, order: int) -> None:
        """Compile the plan up to ``order``; no position is added if this raises."""
        if order <= self.order:
            return
        start = len(self.rows)
        size = basis.ranked_up_to(order)
        position = basis.position
        ranked = basis.ranked
        rows = []
        for i in range(start, size):
            rule = basis.ranked_rules[i]
            if rule is None:
                rows.append(None)
                continue
            head = basis.heads[rule]
            beta = tuple(a - b for a, b in zip(ranked[i].alpha, head.alpha))
            rows.append(self.row(basis, rule, beta, order - head.order))
        # every row is built: nothing below raises
        readers = self.readers
        readers.extend([] for _ in rows)
        for i, row in enumerate(rows, start):
            if row is not None:
                d = ranked[i]
                for key, value in row.items():
                    # the head coefficient of the shifted rule, at d itself, is 1
                    if key != d and value:
                        readers[position[key]].append((i, -value))
        self.rows.extend(rows)
        self.order = order


def _plan(basis: RiquierBasis, point: Tuple[Scalar, ...]) -> SolvePlan:
    """The basis's evaluation at the point, made on first use."""
    plan = basis.solve_plans.get(point)
    if plan is None:
        plan = basis.solve_plans[point] = SolvePlan(point)
    return plan


def formal_solve(basis: RiquierBasis, point: Sequence[Scalar],
                 init: Mapping[Derivative, Scalar], order: int) -> Jet:
    """The unique order-T jet with the given parametric values solving the system.

    Principal-derivative values are computed in increasing ranking order from
    the substitution rule of the basis element whose head divides them: the
    basis's solve plan at the point (``basis.solve_plans``), compiled on the
    first solve there and extended when a later solve asks for a higher
    order, pushes each nonzero value forward to the rows that read it.
    Unspecified parametric values default to zero.  A value given for a
    derivative that does not fit the system's (m, n), lies above the
    truncation order or is principal raises InvalidInput, and so does a point
    without m coordinates.  Each value is checked by one lookup of its
    position; the checks by fit and by order run only when a lookup fails.
    """
    if order < basis.s0:
        raise SBelowS0(f"truncation order {order} is below the basis degree {basis.s0}")
    size = basis.n * comb(order + basis.m, basis.m)
    found = list(map(basis.position.get, init, repeat(size, len(init))))
    missed = max(found, default=0) >= size
    if missed:
        check_fits(init, basis.m, basis.n, "initial value")
        for d in init:
            if d.order > order:
                raise InvalidInput(
                    f"initial value given for {format_derivative(d, basis.m, basis.n)} "
                    f"above the truncation order {order}")
    point = _check_point(basis, point)
    plan = _plan(basis, point)
    plan.extend(basis, order)
    if missed:  # the ranking covers Delta_order now
        found = list(map(basis.position.__getitem__, init))
    values: List[Scalar] = [ZERO] * size
    for i, (d, value) in zip(found, init.items()):
        if plan.rows[i] is not None:
            raise InvalidInput(
                f"initial value given for the principal derivative "
                f"{format_derivative(d, basis.m, basis.n)}; "
                f"only parametric derivatives take initial values")
        values[i] = value
    readers = plan.readers
    # every push goes to a later position, so enumerate meets each value after
    # all its pushes; most values are the shared ZERO, which ``is`` skips cheaply
    for j, v in enumerate(values):
        if v is not ZERO and v:
            for i, c in readers[j]:
                if i >= size:
                    break
                values[i] = values[i] + c * v
    return Jet(point, order, basis.m, basis.n, dict(zip(basis.ranked, values)))


# -- evaluate-first Leibniz rows --------------------------------------------


def _shifted_series(f: Polynomial, point: Tuple[Scalar, ...],
                    order: Optional[int] = None) -> Dict[MultiIndex, Scalar]:
    """Coefficients of f(point + y) as a polynomial in y, truncated at total degree order.

    With no order, every term is kept.
    """
    series: Dict[MultiIndex, Scalar] = {}
    for mono, c in f.terms.items():
        # expand prod_j (x0_j + y_j)^e_j binomially, one variable at a time,
        # through the nonzero terms C(e, k) x0_j^(e-k) y_j^k: at x0_j = 0 only y_j^e
        partial: Dict[MultiIndex, Scalar] = {(): c}
        for x, e in zip(point, mono):
            if x:
                powers = [1]
                for _ in range(e):  # GaussianRational has no __pow__
                    powers.append(powers[-1] * x)
                factors = {k: comb(e, k) * powers[e - k] for k in range(e + 1)}
            else:
                factors = {e: 1}
            grown: Dict[MultiIndex, Scalar] = {}
            for mu, value in partial.items():
                room = e if order is None else order - sum(mu)  # k never passes e
                for k, factor in factors.items():
                    if k <= room:
                        grown[mu + (k,)] = value if factor == 1 else value * factor
            partial = grown
        for mu, value in partial.items():
            known = series.get(mu)
            series[mu] = value if known is None else known + value
    return series


def _coefficient_derivatives(c: RationalFunction, point: Tuple[Scalar, ...],
                             order: int) -> Dict[MultiIndex, Scalar]:
    """The nonzero values d^mu c(point), from the Taylor series of c.

    All of them for a polynomial c, whose series is finite, and those with
    |mu| <= order for any other c.
    """
    if len(point) != c.nvars:
        raise ValueError("point dimension mismatch")
    if c.is_polynomial():  # a polynomial's denominator is 1: it is monic
        series = _shifted_series(c.num, point)
    else:
        num = _shifted_series(c.num, point, order)
        den = _shifted_series(c.den, point, order)
        lead = den.pop((0,) * len(point), 0)
        if not lead:
            raise EvaluationAtPole(f"denominator vanishes at {format_point(point)}")
        # power-series division num/den, in increasing total degree
        series = {}
        for mu in multi_indices(len(point), order):
            total = num.get(mu, ZERO)
            for nu, value in den.items():
                rest = tuple(a - b for a, b in zip(mu, nu))
                if min(rest) >= 0 and series[rest]:
                    total = total - value * series[rest]
            series[mu] = total if lead == 1 else total / lead
    derivatives: Dict[MultiIndex, Scalar] = {}
    for mu, value in series.items():
        if value:
            factor = prod(map(factorial, mu))
            derivatives[mu] = value if factor == 1 else value * factor
    return derivatives


def _derivative_table(p: OperatorVector, point: Tuple[Scalar, ...], order: int,
                      held: Optional[Dict[Derivative, Dict[MultiIndex, Scalar]]] = None
                      ) -> Dict[Derivative, Dict[MultiIndex, Scalar]]:
    """For each term c*D^delta of p, the values d^mu c(point) of ``_coefficient_derivatives``.

    The complete values of a polynomial c are taken from the table ``held``
    built before, when there is one.
    """
    return {delta: held[delta] if held is not None and c.is_polynomial()
            else _coefficient_derivatives(c, point, order)
            for delta, c in p.terms.items()}


def _leibniz_row(table: Dict[Derivative, Dict[MultiIndex, Scalar]],
                 beta: MultiIndex) -> Dict[Derivative, Scalar]:
    """The coefficients of D^beta p at the point, from p's derivative table.

    D^beta (c D^delta) = sum over gamma <= beta of
    C(beta, gamma) (d^(beta-gamma) c) D^(delta+gamma).  Each column is keyed
    by the plain tuple (component, alpha), which equals its Derivative.
    """
    row: Dict[Derivative, Scalar] = {}
    for (component, alpha), derivatives in table.items():
        for mu, value in derivatives.items():
            gamma = tuple(b - a for a, b in zip(mu, beta))
            if min(gamma) < 0:
                continue
            factor = prod(map(comb, beta, gamma))
            if factor != 1:
                value = value * factor
            column = (component, tuple(map(add, alpha, gamma)))
            known = row.get(column)
            row[column] = value if known is None else known + value
    return row


def solution_space_dim(basis: RiquierBasis, s: int, point: Sequence[Scalar]) -> int:
    """Nullity of the constraint matrix: the number of free jet parameters."""
    system = constraint_matrix(basis, s, point)
    return nullity(system.rows, len(system.columns))


def constraint_nullspace(system: ConstraintSystem) -> List[Jet]:
    """A basis of jets spanning the solutions of the constraint system."""
    vectors = nullspace_basis(system.rows, len(system.columns), ZERO, Fraction(1))
    jets = []
    for vec in vectors:
        jets.append(Jet(system.point, system.s, system.basis.m, system.basis.n,
                        dict(zip(system.columns, vec))))
    return jets


def pick_regular_point(avoid: Sequence[Polynomial], m: int) -> Tuple[Fraction, ...]:
    """The first integer point where none of the given polynomials vanishes.

    "First" is lexicographic, with each coordinate running through 0, 1, -1,
    2, -2, ...  Each coordinate in turn is fixed to the first candidate that
    leaves every polynomial nonzero in the remaining variables, and some point
    extends that choice, so no choice is ever undone.  A candidate c fails only
    when x - c divides some polynomial, so one of the first 1 + (sum of the
    polynomials' degrees in that variable) candidates succeeds.  Each
    candidate is made when the search reaches it.  A nonzero constant never
    vanishes, so only the nonconstant polynomials are searched.
    """
    polys = [p for p in avoid if not p.is_zero()]
    if any(p.nvars != m for p in polys):
        raise ValueError("point dimension mismatch")
    terms: List[Mapping[MultiIndex, Scalar]] = [p.terms for p in polys if not p.is_constant()]
    point = []
    for _ in range(m):
        for c in _candidates():
            fixed = [_fix_first_variable(t, c) for t in terms]
            if all(fixed):
                break
        point.append(c)
        terms = fixed
    return tuple(point)


def _candidates() -> Iterator[Fraction]:
    """The integers in the order 0, 1, -1, 2, -2, ..."""
    yield ZERO
    for k in count(1):
        yield Fraction(k)
        yield Fraction(-k)


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
