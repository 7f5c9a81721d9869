"""Completion of operator systems into Riquier bases.

The completion is Buchberger-style over the rational-function coefficient
field: make generators monic, adjoin reduced S-pairs to a fixpoint, then
autoreduce.  Every basis element carries exact scalar-operator cofactors that
express it in terms of the original generators, which is what later turns a
reduction to zero into a checkable witness identity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .operators import (
    Derivative,
    OperatorVector,
    derivatives_up_to,
    left_multiply_by_d,
    scalar_operator_product,
)
from .ranking import head_of, reduce_full
from .polynomials import RationalFunction
from .scalars import Scalar

Cofactors = Dict[int, OperatorVector]


class DerivativeClass(enum.Enum):
    PRINCIPAL = "principal"
    PARAMETRIC = "parametric"


@dataclass
class _Entry:
    """A basis element under construction plus its expression in the generators."""

    op: OperatorVector
    cofactors: Cofactors

    def left_scale(self, f: RationalFunction) -> "_Entry":
        return _Entry(
            self.op.left_scale(f),
            {g: c.left_scale(f) for g, c in self.cofactors.items()},
        )

    def shift(self, gamma) -> "_Entry":
        d_op = OperatorVector.from_derivative(
            Derivative(1, tuple(gamma)), self.op.m, 1
        )
        return _Entry(
            left_multiply_by_d(tuple(gamma), self.op),
            {g: scalar_operator_product(d_op, c) for g, c in self.cofactors.items()},
        )

    def __sub__(self, other: "_Entry") -> "_Entry":
        cof = dict(self.cofactors)
        for g, c in other.cofactors.items():
            cur = cof.get(g)
            cof[g] = -c if cur is None else cur - c
        return _Entry(self.op - other.op, {g: c for g, c in cof.items() if not c.is_zero()})


def _reduce_entry(entry: _Entry, basis: List[_Entry]) -> _Entry:
    trace = reduce_full(entry.op, [b.op for b in basis])
    cof = dict(entry.cofactors)
    for j, step in trace.cofactors.items():
        for g, c in basis[j].cofactors.items():
            contribution = scalar_operator_product(step, c)
            cur = cof.get(g)
            total = -contribution if cur is None else cur - contribution
            if total.is_zero():
                cof.pop(g, None)
            else:
                cof[g] = total
    return _Entry(trace.normal_form, cof)


def _make_monic(entry: _Entry) -> _Entry:
    return entry.left_scale(head_of(entry.op).coefficient.inverse())


class RiquierBasis:
    """A monic, autoreduced, confluent generating set with generator cofactors."""

    def __init__(self, elements: Sequence[OperatorVector],
                 generator_cofactors: Sequence[Cofactors], m: int, n: int):
        self.elements = list(elements)
        self.generator_cofactors = [dict(c) for c in generator_cofactors]
        self.m = m
        self.n = n
        self.heads = [head_of(p).head for p in self.elements]
        # evaluated substitution rules, keyed by (point, principal derivative);
        # filled by jets.formal_solve so that repeated solves reuse the rows
        self.rule_rows: Dict[Tuple[tuple, Derivative], List[Tuple[Derivative, Scalar]]] = {}

    @property
    def s0(self) -> int:
        """Maximum degree over the basis (0 for the empty basis)."""
        if not self.elements:
            return 0
        return max(h.order for h in self.heads)

    def classify(self, d: Derivative) -> DerivativeClass:
        if any(head.divides(d) for head in self.heads):
            return DerivativeClass.PRINCIPAL
        return DerivativeClass.PARAMETRIC

    def parametric_up_to(self, s: int) -> List[Derivative]:
        """All parametric derivatives in Delta_s, in ranking order."""
        return [
            d for d in derivatives_up_to(self.m, self.n, s)
            if self.classify(d) is DerivativeClass.PARAMETRIC
        ]


def _s_pair(f: _Entry, g: _Entry) -> Tuple[Derivative, _Entry]:
    hf, hg = head_of(f.op).head, head_of(g.op).head
    gamma = tuple(max(a, b) for a, b in zip(hf.alpha, hg.alpha))
    common = Derivative(hf.component, gamma)
    shifted_f = f.shift(tuple(c - a for c, a in zip(gamma, hf.alpha)))
    shifted_g = g.shift(tuple(c - b for c, b in zip(gamma, hg.alpha)))
    return common, shifted_f - shifted_g


def complete_to_riquier_basis(generators: Sequence[OperatorVector],
                              m: Optional[int] = None,
                              n: Optional[int] = None) -> RiquierBasis:
    """Complete a generating set to a Riquier basis of the same F(x)-submodule."""
    gens = list(generators)
    if m is None or n is None:
        if not gens:
            raise ValueError("dimensions required for an empty generator list")
        m, n = gens[0].m, gens[0].n

    one = RationalFunction.constant(1, m)
    agenda: List[_Entry] = [
        _Entry(g, {j: OperatorVector.scalar_function(one, m)})
        for j, g in enumerate(gens) if not g.is_zero()
    ]

    basis: List[_Entry] = []
    pairs: List[Tuple[int, int]] = []

    def adjoin(entry: _Entry) -> None:
        reduced = _reduce_entry(entry, basis)
        if reduced.op.is_zero():
            return
        reduced = _make_monic(reduced)
        new_index = len(basis)
        new_comp = head_of(reduced.op).head.component
        for j, existing in enumerate(basis):
            if head_of(existing.op).head.component == new_comp:
                pairs.append((j, new_index))
        basis.append(reduced)

    for entry in agenda:
        adjoin(entry)

    def pair_rank(idx_pair):
        j, k = idx_pair
        hj = head_of(basis[j].op).head
        hk = head_of(basis[k].op).head
        gamma = tuple(max(a, b) for a, b in zip(hj.alpha, hk.alpha))
        return Derivative(hj.component, gamma).rank_key()

    while pairs:
        # Normal strategy: lowest-ranking common head multiple first.
        pairs.sort(key=pair_rank)
        j, k = pairs.pop(0)
        _, spair = _s_pair(basis[j], basis[k])
        adjoin(spair)

    # Autoreduce to a fixpoint; heads can only disappear, never change.
    changed = True
    while changed:
        changed = False
        for idx in range(len(basis)):
            others = basis[:idx] + basis[idx + 1:]
            if not others:
                continue
            reduced = _reduce_entry(_Entry(basis[idx].op, dict(basis[idx].cofactors)),
                                    others)
            if reduced.op == basis[idx].op:
                continue
            changed = True
            if reduced.op.is_zero():
                del basis[idx]
            else:
                basis[idx] = _make_monic(reduced)
            break

    basis.sort(key=lambda e: head_of(e.op).head.rank_key())
    return RiquierBasis(
        [e.op for e in basis], [e.cofactors for e in basis], m, n
    )
