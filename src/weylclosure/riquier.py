"""Completion of operator systems into Riquier bases.

The completion is Buchberger-style over the rational-function coefficient
field: make generators monic, adjoin reduced S-pairs to a fixpoint, then
autoreduce.  Each element's head is computed once, when it is adjoined.
Pending pairs wait in a heap keyed by the lcm of their heads, lowest first
(the normal strategy), ties in the order the pairs were formed.  The final
autoreduction is one forward pass: the basis is confluent by then, so an
element either reduces to zero or keeps its head, and no change makes an
earlier element reducible again.

The completion computes with operators only.  Each element it adjoins or
autoreduces appends one node to a derivation log, which records how the
element was made from earlier nodes and the generators; a reduction to zero
records nothing.  The exact scalar-operator cofactors that express a basis
element in the generators are replayed from the log on demand, forward and
only over the element's ancestors, when a membership witness needs them.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from typing import (TYPE_CHECKING, Dict, Iterable, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple)

from .errors import InvalidInput
from .operators import (
    Derivative,
    OperatorVector,
    derivatives_up_to,
    left_multiply_by_d,
    scalar_operator_product,
)
from .ranking import ReductionTrace, head_of, pick_rule, reduce_full
from .polynomials import RationalFunction

if TYPE_CHECKING:
    from .jets import SolvePlan

Cofactors = Dict[int, OperatorVector]
# (scalar multiplier, source id): the source contributes multiplier * source
Term = Tuple[OperatorVector, int]


class DerivativeClass(enum.Enum):
    PRINCIPAL = "principal"
    PARAMETRIC = "parametric"


class _Node(NamedTuple):
    """An element made as scale * sum(multiplier * source) over its terms."""

    terms: Tuple[Term, ...]
    scale: RationalFunction


class DerivationLog:
    """How each element of a completion was made, for lifting to the generators.

    Ids ``0 .. generators - 1`` are the generator leaves; id
    ``generators + k`` is ``nodes[k]``.  A node's sources always have smaller
    ids, so replaying in id order meets every source before its users.
    """

    def __init__(self, generators: int, m: int):
        # the multiplier 1, which also is each leaf's cofactor
        self.one = OperatorVector.scalar_function(RationalFunction.constant(1, m), m)
        self.generators = generators
        self.nodes: List[_Node] = []
        self._replayed: Dict[int, Cofactors] = {j: {j: self.one} for j in range(generators)}

    def append(self, terms: Iterable[Term], scale: RationalFunction) -> int:
        self.nodes.append(_Node(tuple(terms), scale))
        return self.generators + len(self.nodes) - 1

    def replay(self, ids: Iterable[int]) -> List[Cofactors]:
        """The generator cofactors of each id, replaying the ancestors not yet replayed."""
        ids = list(ids)
        todo = set()
        stack = [i for i in ids if i not in self._replayed]
        while stack:
            i = stack.pop()
            if i in todo or i in self._replayed:
                continue
            todo.add(i)
            stack.extend(source for _, source in self.nodes[i - self.generators].terms)
        for i in sorted(todo):
            node = self.nodes[i - self.generators]
            self._replayed[i] = {
                g: c.left_scale(node.scale) for g, c in self._combine(node.terms).items()
            }
        return [self._replayed[i] for i in ids]

    def lift(self, terms: Iterable[Term]) -> Cofactors:
        """The generator cofactors of sum(multiplier * source) over the terms."""
        terms = list(terms)
        self.replay(source for _, source in terms)
        return self._combine(terms)

    def _combine(self, terms: Iterable[Term]) -> Cofactors:
        # every source is replayed already
        total: Cofactors = {}
        for multiplier, source in terms:
            for g, c in self._replayed[source].items():
                contribution = scalar_operator_product(multiplier, c)
                cur = total.get(g)
                total[g] = contribution if cur is None else cur + contribution
        return {g: c for g, c in total.items() if not c.is_zero()}


class RiquierBasis:
    """A monic, autoreduced, confluent generating set with its derivation log."""

    def __init__(self, elements: Sequence[OperatorVector], m: int, n: int,
                 derivation: DerivationLog, made_by: Sequence[int]):
        self.elements = list(elements)
        self.m = m
        self.n = n
        self.heads = [head_of(p).head for p in self.elements]
        # the log and, per element, the log id that made it
        self.derivation = derivation
        self.made_by = list(made_by)
        # the substitution rules compiled at each point, one plan per point
        # for every truncation order; built and extended by jets.formal_solve
        self.solve_plans: Dict[tuple, "SolvePlan"] = {}
        self._parametric: Dict[int, List[Derivative]] = {}

    @property
    def generator_cofactors(self) -> List[Cofactors]:
        """Per element, exact cofactors over the generators (replayed on first use)."""
        return [dict(c) for c in self.derivation.replay(self.made_by)]

    def lift(self, multipliers: Mapping[int, OperatorVector]) -> Cofactors:
        """Generator cofactors of sum_k multipliers[k] * elements[k].

        Only the elements named in ``multipliers`` and their ancestors in the
        log are replayed.
        """
        return self.derivation.lift(
            (multiplier, self.made_by[k]) for k, multiplier in multipliers.items())

    @property
    def s0(self) -> int:
        """Maximum degree over the basis (0 for the empty basis)."""
        if not self.elements:
            return 0
        return max(h.order for h in self.heads)

    def classify(self, d: Derivative) -> DerivativeClass:
        """Principal or parametric; InvalidInput unless d is a derivative of the system's (m, n)."""
        if (len(d.alpha) != self.m or any(a < 0 for a in d.alpha)
                or not 1 <= d.component <= self.n):
            raise InvalidInput(
                f"derivative given for unknown {d.component} with multi-index "
                f"{d.alpha}, which does not fit {self.m} variable(s) and "
                f"{self.n} unknown(s)")
        if pick_rule(d, self.heads) is not None:
            return DerivativeClass.PRINCIPAL
        return DerivativeClass.PARAMETRIC

    def parametric_up_to(self, s: int) -> List[Derivative]:
        """All parametric derivatives in Delta_s, in ranking order, as a fresh list.

        The classification is computed once per s; a negative s raises InvalidInput.
        """
        if s < 0:
            raise InvalidInput(f"order s must be nonnegative, got {s}")
        parametric = self._parametric.get(s)
        if parametric is None:
            parametric = self._parametric[s] = [
                d for d in derivatives_up_to(self.m, self.n, s)
                if self.classify(d) is DerivativeClass.PARAMETRIC
            ]
        return list(parametric)


def _monic_and_logged(trace: ReductionTrace, terms: List[Term], rule_ids: Sequence[int],
                      log: DerivationLog) -> Tuple[OperatorVector, int]:
    """The monic normal form of a nonzero trace, and the log id that records it.

    ``terms`` make the reduced operator; each reduction step by rule k adds
    the term ``(-step, rule_ids[k])``.
    """
    scale = head_of(trace.normal_form).coefficient.inverse()
    terms = terms + [(-step, rule_ids[k]) for k, step in trace.cofactors.items()]
    return trace.normal_form.left_scale(scale), log.append(terms, scale)


def complete_to_riquier_basis(generators: Sequence[OperatorVector],
                              m: Optional[int] = None,
                              n: Optional[int] = None) -> RiquierBasis:
    """Complete a generating set to a Riquier basis of the same F(x)-submodule."""
    gens = list(generators)
    if m is None or n is None:
        if not gens:
            raise ValueError("dimensions required for an empty generator list")
        m, n = gens[0].m, gens[0].n
    for j, g in enumerate(gens):
        if (g.m, g.n) != (m, n):
            raise InvalidInput(f"generator {j} has mismatched dimensions")

    log = DerivationLog(len(gens), m)
    # in step: each element, its head and the log id that made it
    basis: List[OperatorVector] = []
    heads: List[Derivative] = []
    made_by: List[int] = []
    # pending pairs (lcm rank key, formation count, j, k, lcm of the heads)
    pairs: List[Tuple[tuple, int, int, int, Derivative]] = []
    formed = itertools.count()

    def adjoin(op: OperatorVector, terms: List[Term]) -> None:
        trace = reduce_full(op, basis)
        if trace.normal_form.is_zero():
            return
        element, node = _monic_and_logged(trace, terms, made_by, log)
        head = head_of(element).head
        for j, other in enumerate(heads):
            if other.component == head.component:
                lcm = Derivative(head.component, tuple(map(max, other.alpha, head.alpha)))
                heapq.heappush(pairs, (lcm.rank_key(), next(formed), j, len(basis), lcm))
        basis.append(element)
        heads.append(head)
        made_by.append(node)

    for j, g in enumerate(gens):
        if not g.is_zero():
            adjoin(g, [(log.one, j)])

    # Normal strategy: lowest-ranking lcm first, ties in formation order.  The
    # basis only grows here, so a pending pair's key never changes.
    while pairs:
        _, _, j, k, lcm = heapq.heappop(pairs)
        shift_j = tuple(c - a for c, a in zip(lcm.alpha, heads[j].alpha))
        shift_k = tuple(c - b for c, b in zip(lcm.alpha, heads[k].alpha))
        d_j = OperatorVector.from_derivative(Derivative(1, shift_j), m, 1)
        d_k = OperatorVector.from_derivative(Derivative(1, shift_k), m, 1)
        spair = left_multiply_by_d(shift_j, basis[j]) - left_multiply_by_d(shift_k, basis[k])
        adjoin(spair, [(d_j, made_by[j]), (-d_k, made_by[k])])

    # Autoreduce in one forward pass.  The basis is confluent now, so an
    # element whose head another head divides reduces to zero, and any other
    # element keeps its head: the heads only disappear, so an element found
    # reduced stays reduced, and no later change needs an earlier re-check.
    idx = 0
    while idx < len(basis) and len(basis) > 1:
        others = basis[:idx] + basis[idx + 1:]
        trace = reduce_full(basis[idx], others)
        if trace.normal_form.is_zero():
            del basis[idx], heads[idx], made_by[idx]
            continue
        if trace.normal_form != basis[idx]:
            basis[idx], made_by[idx] = _monic_and_logged(
                trace, [(log.one, made_by[idx])], made_by[:idx] + made_by[idx + 1:], log)
        idx += 1

    order = sorted(range(len(basis)), key=lambda i: heads[i].rank_key())
    return RiquierBasis([basis[i] for i in order], m, n, log, [made_by[i] for i in order])
