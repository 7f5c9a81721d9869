"""Rule selection by the standard ranking, and multi-step reduction.

Reduction rewrites the ranking-highest derivative that is divisible by some
rule head, using the rule as a substitution, and keeps exact scalar-operator
cofactors so that ``input = sum_j cofactors[j] * rules[j] + normal_form``
holds identically.  It does only the arithmetic its answer needs: a rule's
head is the one it keeps (``OperatorVector.head``), the rule is checked
monic on its canonical head coefficient, each shift ``D^gamma * rule`` is
built once per call by ``operators.shifts``, the targets come off a
max-heap by rank, and the working operator is one term dict changed in
place.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from operator import neg
from typing import Callable, Dict, List, Sequence

from .errors import InvalidInput
from .operators import (
    Derivative,
    MultiIndex,
    OperatorVector,
    add_term,
    scalar_operator_product,
    shifts,
)
from .polynomials import RationalFunction


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

    This is the one rule selector: reduction, the principal/parametric
    classification and the solve plans all choose through it.
    """
    best = None
    for j, head in enumerate(heads):
        if head.divides(delta) and (best is None or heads[best].rank_key() < head.rank_key()):
            best = j
    return best


def _descending(d: Derivative):
    """A heap key that pops derivatives from the ranking-highest down."""
    return (-d.order, -d.component, tuple(map(neg, d.alpha[:-1])))


def reduce_full(p: OperatorVector, rules: Sequence[OperatorVector]) -> ReductionTrace:
    """Fully reduce p by a list of monic rules, eliminating every reducible derivative.

    Each step rewrites the ranking-highest reducible derivative.  A rule's
    head is the one the rule keeps, found at most once in the rule's life,
    and its shifts ``D^gamma * rule`` come from ``operators.shifts``, each
    built once per call.  Every term of a shifted monic rule other than its
    head ranks below the target it rewrites.  So the targets come off a
    max-heap of the terms in strictly decreasing rank, a term popped is never
    made again, and the target's own term cancels exactly and is dropped
    without arithmetic.
    """
    heads: List[Derivative] = []
    for j, rule in enumerate(rules):
        if (rule.m, rule.n) != (p.m, p.n):
            raise InvalidInput(f"rule {j} has mismatched dimensions")
        if rule.is_zero():
            raise InvalidInput("reduction rules must be nonzero")
        head = rule.head
        if not rule.terms[head].is_one():
            raise InvalidInput("reduction rules must be monic")
        heads.append(head)

    terms = dict(p.terms)
    cofactors: Dict[int, Dict[Derivative, RationalFunction]] = {}
    if heads and terms:
        shifted_rules: Dict[int, Callable[[MultiIndex], OperatorVector]] = {}
        queue = [(_descending(d), d) for d in terms]
        heapq.heapify(queue)
        queued = set(terms)
        while queue:
            target = heapq.heappop(queue)[1]
            coeff = terms.get(target)
            if coeff is None:  # cancelled by an earlier step
                continue
            j = pick_rule(target, heads)
            if j is None:
                continue
            shifted = shifted_rules.get(j)
            if shifted is None:
                shifted = shifted_rules[j] = shifts(rules[j])
            gamma = tuple(a - b for a, b in zip(target.alpha, heads[j].alpha))
            del terms[target]
            for d, c in shifted(gamma).terms.items():
                if d != target:
                    if d not in queued:
                        queued.add(d)
                        heapq.heappush(queue, (_descending(d), d))
                    add_term(terms, d, -(coeff * c))
            # targets strictly decrease, so no (rule, gamma) comes twice
            cofactors.setdefault(j, {})[Derivative(1, gamma)] = coeff
    if not cofactors:  # p is reduced already
        return ReductionTrace(p, {})
    return ReductionTrace(OperatorVector(terms, p.m, p.n),
                          {j: OperatorVector(cof, p.m, 1) for j, cof in cofactors.items()})

