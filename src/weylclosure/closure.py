"""Weyl-closure membership with verifiable witnesses, plus two independent cross-checks.

The primary decision reduces the candidate against a Riquier basis of the
generated F(x)-submodule.  A reduction to zero is turned into an exact
identity ``w * q = sum_j h_j * p_j`` with polynomial w and cofactors: the
basis lifts the reduction trace to the generators, replaying its derivation
log fraction-free and only for the basis elements the trace touches, and
hands back its integer rows: a denominator and numerators keyed by
(generator, multi-index), in ZZ[x] (ZZ_I[x] for Gaussian operands), of the
kind that ``polynomials`` chooses.  The identity is checked on those rows
before they are cleared into w, the monic lcm of the cofactors'
denominators, and the h_j, by multiplying it out with a Leibniz kernel of
its own (``_identity_holds``, the one function that multiplies out a
witness identity).  That check shares with the lift only the arithmetic of
its rows: their products, sums, differences, derivatives and scalar
multiples, and the scaling of q and the generators to rows of the same
kind.  It shares none of the lift's own steps: not its Leibniz expansion,
its sums over lcms or its gcds.  ``verify_witness`` runs ``_identity_holds``
on a witness from outside, on the rows that ``integer_polynomials`` hands
out with no row to match, which share the least arithmetic with the lift.
A non-member answer replays nothing.
The cross-checks are F(x)-linear solving on coefficient slices and, for a
single operator in one variable, Euclidean left division.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from .errors import InvalidInput
from .linalg import solve_linear_combination
from .operators import (
    OperatorVector,
    check_fits,
    coefficient_vector,
    fits,
    multi_indices,
    shifts,
    stepwise,
)
from .polynomials import Polynomial, RationalFunction, gaussian, integer_polynomials
from .ranking import reduce_full
from .riquier import RiquierBasis, cleared, complete_to_riquier_basis


@dataclass
class Witness:
    """A nonzero polynomial w and cofactors h_j with w*q = sum_j h_j * p_j."""

    w: Polynomial
    cofactors: List[OperatorVector]


@dataclass
class MembershipResult:
    member: bool
    witness: Optional[Witness]
    normal_form: OperatorVector
    basis: RiquierBasis


def _validate_polynomial_rows(q: OperatorVector,
                              generators: Sequence[OperatorVector]) -> None:
    if not q.is_polynomial_row():
        raise InvalidInput("candidate has non-polynomial coefficients")
    check_fits(q.terms, q.m, q.n, "candidate term")
    for j, g in enumerate(generators):
        if not g.is_polynomial_row():
            raise InvalidInput(f"generator {j} has non-polynomial coefficients")
        if (g.m, g.n) != (q.m, q.n):
            raise InvalidInput(f"generator {j} has mismatched dimensions")


def _shifts(row: dict):
    """beta -> the row D^beta * row, keyed by derivative, zeros dropped.

    ``D_j (c D^alpha) = d_j(c) D^alpha + c D^(alpha + e_j)``.  Each shifted row
    is built once, from the one of beta - e_j for the last j with beta_j > 0,
    so each derivative of a coefficient is taken once; ``operators.stepwise``
    walks there without recursion, so any order is fine.
    """
    def step(j, previous, beta):
        found = {}
        for d, c in previous.items():
            component, alpha = d
            key = (component, alpha[:j] + (alpha[j] + 1,) + alpha[j + 1:])
            found[key] = found[key] + c if key in found else c
            dc = c.diff(j)
            if dc:
                found[d] = found[d] + dc if d in found else dc
        return {key: value for key, value in found.items() if value}

    return stepwise(row, step)


def verify_witness(witness: Witness, q: OperatorVector,
                   generators: Sequence[OperatorVector]) -> bool:
    """Check the identity w*q - sum_j h_j * p_j = 0 by multiplying it out on integer rows.

    w and every h_j are scaled by one integer L, to den = L w and
    numerators[j, beta] = L h_j[beta] in ZZ[x] (ZZ_I[x] if one is Gaussian),
    for ``_identity_holds``, as ``integer_polynomials`` hands them out with no
    row to match: the rows that share the least arithmetic with the lift.

    A certificate of the wrong shape is rejected: a zero w, a w that is not a
    polynomial, a w in another number of variables, a wrong number of
    cofactors, or a cofactor that is not a scalar operator (n = 1) with
    polynomial coefficients in q's variables and multi-indices in N^m.  A q or
    generator that is not a polynomial row of q's shape raises InvalidInput.
    """
    if witness.w.is_zero() or not witness.w.is_polynomial() or witness.w.nvars != q.m:
        return False
    if len(witness.cofactors) != len(generators):
        return False
    if not all(h.m == q.m and h.n == 1 and h.is_polynomial_row()
               and all(fits(d, q.m, 1) for d in h.terms) for h in witness.cofactors):
        return False
    _validate_polynomial_rows(q, generators)
    entries = {(j, d.alpha): c for j, h in enumerate(witness.cofactors) for d, c in h.terms.items()}
    ((_, (den, *numerators)),) = integer_polynomials([[witness.w, *entries.values()]])
    return _identity_holds(den, dict(zip(entries, numerators)), q, generators)


def _identity_holds(den, numerators, q: OperatorVector,
                    generators: Sequence[OperatorVector]) -> bool:
    """Whether ``den * q = sum numerators[g, beta] * D^beta p_g``, multiplied out on integer rows.

    ``den`` and the numerators, keyed by (g, beta), are in one integer ring.
    Only q and the generators with a numerator are scaled, to Q = L_q q and
    P_g = L_g p_g, rows of den's kind.
    For M the lcm of those scales, every entry of ``(M / L_q) den Q - sum
    (M / L_g) N_(g, beta) D^beta P_g`` must cancel.  Each ``D^beta P_g`` is
    built once (``_shifts``); if one side is Gaussian, both go to ZZ_I[x].
    """
    used = list(dict.fromkeys(g for g, _ in numerators))
    operands = [q] + [generators[g] for g in used]
    scaled = integer_polynomials([list(p.terms.values()) for p in operands], like=den)
    if any(values and values[0].ring is not den.ring for _, values in scaled):
        den, numerators = gaussian(den), {key: gaussian(v) for key, v in numerators.items()}
        scaled = [(scale, [gaussian(v) for v in values]) for scale, values in scaled]
    (q_scale, q_row), *rows = scaled
    top = math.lcm(q_scale, *[scale for scale, _ in rows])
    if top != q_scale:
        den = den.mul_ground(top // q_scale)
    residue = {key: den * c for key, c in zip(q.terms, q_row)}
    shifted = {g: (top // scale, _shifts(dict(zip(generators[g].terms, row))))
               for g, (scale, row) in zip(used, rows)}
    for (g, beta), h in numerators.items():
        k, shifts_of_p = shifted[g]
        if k != 1:
            h = h.mul_ground(k)
        for key, c in shifts_of_p(beta).items():
            term = h * c
            residue[key] = residue[key] - term if key in residue else -term
    return not any(residue.values())


def weyl_closure_member(q: OperatorVector,
                        generators: Sequence[OperatorVector]) -> MembershipResult:
    """Decide q in F(x)N ∩ A_m(F)^n and extract a verified witness when true."""
    _validate_polynomial_rows(q, generators)
    m, n = q.m, q.n
    basis = complete_to_riquier_basis(generators, m, n)
    trace = reduce_full(q, basis.elements)
    if not trace.normal_form.is_zero():
        return MembershipResult(False, None, trace.normal_form, basis)

    # q = sum_k trace.cofactors[k] * basis_k and each basis element is an exact
    # combination of the generators, so the lift of the trace is the witness.
    # Its identity is checked on the lift's own integer rows before they are
    # cleared into the witness.
    lifted = basis.lift_rows(trace.cofactors)
    if not _identity_holds(lifted.den, lifted.numerators, q, generators):
        raise RuntimeError("internal error: extracted witness failed verification")
    w, cofactors = cleared(lifted, m)
    witness = Witness(w, [cofactors.get(g, OperatorVector.zero(m, 1))
                          for g in range(len(generators))])
    return MembershipResult(True, witness, trace.normal_form, basis)


def lemma1_solve(f: Sequence[RationalFunction],
                 gs: Sequence[Sequence[RationalFunction]]) -> Optional[List[RationalFunction]]:
    """Coefficients h_j over F(x) with f = sum h_j g_j, or None."""
    if gs:
        nvars = gs[0][0].nvars if gs[0] else 0
    elif f:
        nvars = f[0].nvars
    else:
        return []
    zero = RationalFunction.zero(nvars)
    return solve_linear_combination(list(f), [list(g) for g in gs], zero)


def membership_via_lemma1(q: OperatorVector,
                          generators: Sequence[OperatorVector]) -> bool:
    """Independent decision path: F(x)-linear solving on coefficient slices.

    Solving is independent of the reduction, but its family is the shifts of
    the basis elements; the basis is the completion's kept one when the
    caller has just completed the same generators, as ``member
    --cross-check`` has.
    """
    _validate_polynomial_rows(q, generators)
    basis = complete_to_riquier_basis(generators, q.m, q.n)
    if q.is_zero():
        return True
    if not basis.elements:
        return False  # N = 0 and q is nonzero
    s = max([q.degree()] + [p.degree() for p in basis.elements])
    family = []
    for p in basis.elements:
        shifted = shifts(p)
        for beta in multi_indices(q.m, s - p.degree()):
            family.append(coefficient_vector(shifted(beta), s))
    target = coefficient_vector(q, s)
    return lemma1_solve(target, family) is not None


def oracle_division_member_1d(q: OperatorVector, p: OperatorVector) -> bool:
    """Euclidean left-division membership test in B_1(F): valid only for m = n = 1."""
    if q.m != 1 or q.n != 1 or p.m != 1 or p.n != 1:
        raise InvalidInput("Euclidean oracle requires m = n = 1")
    if p.is_zero():
        raise InvalidInput("division by the zero operator")
    check_fits(q.terms, 1, 1, "candidate term")
    check_fits(p.terms, 1, 1, "divisor term")
    p_head = p.head
    shifted = shifts(p)
    remainder = q
    while not remainder.is_zero():
        r_head = remainder.head
        if r_head.order < p_head.order:
            return False
        coeff = remainder.terms[r_head] / p.terms[p_head]
        step = shifted((r_head.order - p_head.order,)).left_scale(coeff)
        remainder = remainder - step
    return True
