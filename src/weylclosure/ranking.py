"""The standard ranking, heads, monic normalization, and multi-step reduction.

Reduction rewrites the ranking-highest derivative that is divisible by some
rule head, using the rule as a substitution, and keeps exact scalar-operator
cofactors so that ``input = sum_j cofactors[j] * rules[j] + normal_form``
holds identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from .errors import InvalidInput, ZeroOperator
from .operators import (
    Derivative,
    OperatorVector,
    left_multiply_by_d,
    scalar_operator_product,
)
from .polynomials import RationalFunction


def compare_derivatives(d1: Derivative, d2: Derivative) -> int:
    """-1, 0 or 1 as d1 precedes, equals or follows d2 in the standard ranking."""
    k1, k2 = d1.rank_key(), d2.rank_key()
    if k1 < k2:
        return -1
    if k1 > k2:
        return 1
    return 0


@dataclass(frozen=True)
class HeadData:
    head: Derivative
    coefficient: RationalFunction
    degree: int


def head_of(p: OperatorVector) -> HeadData:
    """Ranking-maximal derivative of p with its coefficient and total degree."""
    if p.is_zero():
        raise ZeroOperator("zero operator has no head")
    head = max(p.terms, key=Derivative.rank_key)
    return HeadData(head, p.terms[head], head.order)


def make_monic(p: OperatorVector) -> OperatorVector:
    """Left-divide p by its head coefficient."""
    return p.left_scale(head_of(p).coefficient.inverse())


@dataclass
class ReductionTrace:
    """Result of a full reduction: normal form plus exact cofactors per rule index."""

    normal_form: OperatorVector
    cofactors: Dict[int, OperatorVector] = field(default_factory=dict)

    def reconstruct(self, rules: Sequence[OperatorVector]) -> OperatorVector:
        """The operator this trace represents: sum of cofactor*rule plus normal form."""
        total = self.normal_form
        for j, cof in self.cofactors.items():
            total = total + scalar_operator_product(cof, rules[j])
        return total


def pick_rule(delta: Derivative, heads: Sequence[Derivative]) -> int | None:
    """Index of the rule whose head divides delta: ranking-highest head, then lowest index.

    This is the one rule selector: reduction, ``is_reduced``, the principal/
    parametric classification and the solve plans all choose through it.
    """
    best = None
    for j, head in enumerate(heads):
        if head.divides(delta) and (best is None or compare_derivatives(heads[best], head) < 0):
            best = j
    return best


def reduce_full(p: OperatorVector, rules: Sequence[OperatorVector]) -> ReductionTrace:
    """Fully reduce p by a list of monic rules, eliminating every reducible derivative."""
    heads: List[Derivative] = []
    for j, rule in enumerate(rules):
        if (rule.m, rule.n) != (p.m, p.n):
            raise InvalidInput(f"rule {j} has mismatched dimensions")
        if rule.is_zero():
            raise InvalidInput("reduction rules must be nonzero")
        data = head_of(rule)
        if data.coefficient != 1:
            raise InvalidInput("reduction rules must be monic")
        heads.append(data.head)

    work = p
    cofactors: Dict[int, OperatorVector] = {}
    while True:
        target = None
        rule_index = None
        for delta in sorted(work.terms, key=Derivative.rank_key, reverse=True):
            j = pick_rule(delta, heads)
            if j is not None:
                target, rule_index = delta, j
                break
        if target is None:
            break
        head = heads[rule_index]
        gamma = tuple(a - b for a, b in zip(target.alpha, head.alpha))
        coeff = work.coefficient(target)
        shifted = left_multiply_by_d(gamma, rules[rule_index])
        work = work - shifted.left_scale(coeff)
        step = OperatorVector.from_derivative(Derivative(1, gamma), p.m, 1, coeff)
        existing = cofactors.get(rule_index)
        cofactors[rule_index] = step if existing is None else existing + step
    return ReductionTrace(work, cofactors)


def is_reduced(p: OperatorVector, rules: Sequence[OperatorVector]) -> bool:
    """True iff no derivative of p is divisible by any rule head."""
    for j, rule in enumerate(rules):
        if (rule.m, rule.n) != (p.m, p.n):
            raise InvalidInput(f"rule {j} has mismatched dimensions")
    heads = [head_of(rule).head for rule in rules if not rule.is_zero()]
    return all(pick_rule(delta, heads) is None for delta in p.terms)
