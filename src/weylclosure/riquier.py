"""Completion of operator systems into Riquier bases.

The completion is Buchberger-style over the rational-function coefficient
field: make generators monic, adjoin reduced S-pairs to a fixpoint, then
autoreduce.  Each element keeps its own head (``OperatorVector.head``): it
is found when the reduced operator is made monic, carried to the monic
element, and read from there by the pairs, the unit stop, the
autoreduction, the final sort and every later reduction by the basis.
Adjoining an element is Gebauer and Moeller's basis update: the new head
retires every live element whose head it divides.  A retired element is left
out of every later reduction and pair, and its pending pairs are dropped but
for its pair with the new element, which reduces it again; so the live heads
of each component form an antichain.  Pending pairs wait in a heap keyed by
the lcm of their heads, lowest first (the normal strategy), ties in the order
the pairs were formed.  Once every component has an order-0 head, those are
the only live elements and every pending pair would reduce to zero, so the
completion drops them (the unit stop, checked only when an order-0 head is
adjoined).  The final autoreduction is one forward pass that reduces tails:
no head divides another, so every element keeps its head, and no change makes
an earlier element reducible again.  An S-pair's shifted elements come from
``operators.left_multiply_by_d``, which reads them off ``operators.shifts``.

The completion computes with operators only.  Each element it adjoins or
autoreduces appends one node to a derivation log, which records how the
element was made from earlier nodes and the generators; a reduction to zero
records nothing.  The exact scalar-operator cofactors that express a basis
element in the generators are replayed from the log on demand, forward and
only over the element's ancestors, when a membership witness needs them; a
completion that is never lifted builds no replay state at all.

The replay does no F(x) arithmetic.  Each replayed element holds its
cofactors as polynomial numerators over one polynomial denominator, all in
the integer ring ZZ[x] (ZZ_I[x] in complex mode), the numerators in one
table keyed by (g, alpha) for the D^alpha entry of generator g's cofactor;
only ``_operators``, at the edge, groups them by g.  ``polynomials.integer_pair``
chooses their form by the ring: in one variable over ZZ they are
``polynomials.CoefficientList`` rows, and otherwise sympy's sparse elements.
They keep that form from the multipliers to ``cleared``, which hands them to
``integer_ratio`` and ``monic_polynomial``; the code here runs unchanged on
either, as the two answer the same ring interface.  A product with a
multiplier expands ``D^beta * 1/B`` by the Leibniz rule, summing the factors
of each shift first so that each shifted numerator is multiplied once, and a
sum goes over the lcm of the denominators.  Each result is divided by the
gcd of its denominator and all its numerators, a chain of gcds that stops
once it is constant.  Every gcd, lcm and quotient here comes from
``polynomials.gcd_cofactors``, the library's one gcd kernel: a quotient is
one of its cofactors, never a trial division.  The lift of a reduction is
then over the lcm of the cofactors' reduced denominators: made monic, that
is the witness's w.
Rational functions appear only at the edge, in the cofactors handed out.

A basis ranks Delta_T, the derivatives up to order T, for its jets.  The
list in ranking order and the position of each derivative come from
``ranked_delta``, which enumerates and sorts them once per (m, n) in the
process, and every basis of that (m, n) shares them, read-only; each basis
classifies its own derivatives as principal or parametric
(``RiquierBasis.ranked_up_to``).
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
from typing import (TYPE_CHECKING, Any, Dict, Iterable, List, Mapping, NamedTuple, Optional,
                    Sequence, Set, Tuple)

from .errors import InvalidInput
from .operators import (
    Derivative,
    MultiIndex,
    OperatorVector,
    add_term,
    check_fits,
    derivatives_up_to,
    left_multiply_by_d,
    stepwise,
)
from .ranking import ReductionTrace, pick_rule, reduce_full
from .polynomials import (Polynomial, RationalFunction, gaussian, gcd_cofactors, integer_pair,
                          integer_ratio, monic_polynomial)

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


Row = Tuple[int, MultiIndex]  # (g, alpha): the D^alpha entry of generator g's cofactor


class _Lifted(NamedTuple):
    """Generator cofactors over one denominator, with integer-ring entries.

    Generator g's cofactor is the sum of ``numerators[g, alpha] / den * D^alpha``;
    ``den`` and every numerator are elements of one ring ZZ[x] or ZZ_I[x]:
    CoefficientLists in one variable over ZZ, sympy elements otherwise.
    """

    den: Any
    numerators: Dict[Row, Any]


def _gaussian(lifted: _Lifted) -> _Lifted:
    return _Lifted(gaussian(lifted.den),
                   {key: gaussian(v) for key, v in lifted.numerators.items()})


# a scalar operator as (beta, (u, v)) per term (u/v) D^beta, u and v integral
Pairs = List[Tuple[MultiIndex, Tuple[Any, Any]]]


def _pairs(multiplier: OperatorVector) -> Pairs:
    return [(d.alpha, integer_pair(c)) for d, c in multiplier.terms.items()]


def _product(pairs: Pairs, source: _Lifted) -> _Lifted:
    """The scalar operator ``pairs`` times source, over one denominator.

    For source = P / B and a multiplier term (u/v) D^beta, the Leibniz rule
    gives ``D^beta (1/B) P = sum over gamma <= beta of C(beta, gamma)
    d^gamma(1/B) D^(beta - gamma) P`` with ``d^gamma(1/B) = Q_gamma /
    B^(|gamma| + 1)``, ``Q_0 = 1`` and ``Q_(gamma + e_j) = d_j(Q_gamma) B -
    (|gamma| + 1) Q_gamma d_j(B)``.  Every term is put over ``L * B^e``, for
    ``L`` the lcm of the multiplier's denominators v and ``e`` one more than
    the multiplier's order (1 for a constant B, whose derivatives vanish).
    The factors of all (beta, gamma) with one shift ``delta = beta - gamma``
    are summed first, so each ``D^delta P`` is multiplied once.
    """
    if not pairs:
        return _Lifted(source.den, {})
    ring = source.den.ring
    if any(u.ring is not ring for _, (u, _) in pairs):
        source = _gaussian(source)
        pairs = [(beta, (gaussian(u), gaussian(v))) for beta, (u, v) in pairs]
    if len(pairs) == 1 and not any(pairs[0][0]):  # a function: (u/v) * P/B = u P / (v B)
        u, v = pairs[0][1]
        return _Lifted(source.den if v == 1 else v * source.den,
                       source.numerators if u == 1 else {
                           key: u * value for key, value in source.numerators.items()})
    den, x = source.den, source.den.ring.gens
    one = den.ring.one
    # the lcm L of the v so far, and each term's base u * (L / v), kept exact
    # as L grows: with (g, L/g, v/g) = gcd_cofactors(L, v), L * (v/g) / v = L/g
    lcm, bases = pairs[0][1][1], [pairs[0][1][0]]
    for _, (u, v) in pairs[1:]:
        if v == lcm:
            bases.append(u)
            continue
        _, lcm_g, v_g = gcd_cofactors(lcm, v)
        if v_g != 1:
            bases = [base * v_g for base in bases]
            lcm = lcm * v_g
        bases.append(u * lcm_g)
    ground = den.is_ground
    top = 0 if ground else max(sum(beta) for beta, _ in pairs)
    powers = [one, den]  # B^k for k <= top + 1
    while len(powers) < top + 2:
        powers.append(powers[-1] * den)
    zero = (0,) * len(x)

    def q_step(j, q, gamma):
        return q.diff(x[j]) * den - (q * den.diff(x[j])).mul_ground(sum(gamma))

    def d_step(j, numerators, delta):
        # D_j (N D^alpha) = d_j(N) D^alpha + N D^(alpha + e_j)
        out: Dict[Row, Any] = {}
        for (g, alpha), v in numerators.items():
            dv = v.diff(x[j])
            if dv:
                add_term(out, (g, alpha), dv)
            add_term(out, (g, alpha[:j] + (alpha[j] + 1,) + alpha[j + 1:]), v)
        return out

    q_at = stepwise(one, q_step)  # Q_gamma
    # the factor of each shift delta = beta - gamma, summed over its (beta, gamma)
    factors: Dict[MultiIndex, Any] = {}
    for (beta, _), base in zip(pairs, bases):
        # a constant B has no derivatives, so only gamma = 0 contributes
        gammas = [zero] if ground else itertools.product(*(range(b + 1) for b in beta))
        for gamma in gammas:
            order = sum(gamma)
            factor = base
            if order:
                q = q_at(gamma)
                if not q:  # d^gamma(1/B) = 0, as when B is free of a variable in gamma
                    continue
                factor = factor * q
                binomial = math.prod(map(math.comb, beta, gamma))
                if binomial != 1:
                    factor = factor.mul_ground(binomial)
            if order < top:
                factor = factor * powers[top - order]
            add_term(factors, tuple(b - c for b, c in zip(beta, gamma)), factor)
    # each shifted numerator D^delta P is multiplied once, by its summed factor
    shift = stepwise(source.numerators, d_step)
    total: Dict[Row, Any] = {}
    for delta, factor in factors.items():
        unit = factor == one
        for key, value in shift(delta).items():
            add_term(total, key, value if unit else factor * value)
    scale = powers[top + 1]
    return _Lifted(scale if lcm == one else lcm * scale, total)


def _sum(parts: List[_Lifted]) -> _Lifted:
    """The sum of a nonempty list of parts, over the lcm of their denominators.

    The parts may share their dicts with replayed elements, so none is changed.
    """
    if len(parts) == 1:
        return parts[0]
    if any(part.den.ring is not parts[0].den.ring for part in parts):
        parts = [_gaussian(part) for part in parts]
    den, total = parts[0].den, dict(parts[0].numerators)
    for part in parts[1:]:
        factor = None
        if part.den != den:
            _, factor, other = gcd_cofactors(den, part.den)  # den/gcd, part.den/gcd
            if other != 1:
                total = {key: other * v for key, v in total.items()}
                den = den * other
        for key, value in part.numerators.items():
            add_term(total, key, value if factor is None else factor * value)
    return _Lifted(den, total)


def _cancelled(lifted: _Lifted) -> _Lifted:
    """The cofactors over den/G, for G the gcd of den and every numerator.

    Once G is constant no polynomial factor is common, so den/G is the lcm of
    the cofactors' reduced denominators (up to a constant factor).  G starts
    as den and takes one gcd with each numerator in turn, so every quotient
    is a cofactor of that gcd: with (G', G/G', N/G') = gcd_cofactors(G, N),
    the earlier quotients, over G, and the rest of den are multiplied by
    G/G' before N/G' is stored.
    """
    if lifted.den.is_ground:
        return lifted
    common, rest = lifted.den, lifted.den.ring.one  # den = common * rest
    quotients: Dict[Row, Any] = {}  # numerator / common
    # short numerators first: the gcd with them is cheap and often constant
    # (the length of a row is its number of terms, or its degree + 1 for a
    # CoefficientList: either way a size)
    for key, value in sorted(lifted.numerators.items(), key=lambda entry: len(entry[1])):
        common, shrink, quotient = gcd_cofactors(common, value)
        if common.is_ground:
            return lifted
        if shrink != 1:
            rest = rest * shrink
            quotients = {row: q * shrink for row, q in quotients.items()}
        quotients[key] = quotient
    return _Lifted(rest, quotients)


def _operators(numerators: Dict[Row, Any], den, m: int) -> Cofactors:
    """The cofactors numerators/den as scalar operators over F(x), at the replay's edge:
    the one place that groups the rows by generator."""
    terms: Dict[int, Dict[Derivative, RationalFunction]] = {}
    for (g, alpha), v in numerators.items():
        terms.setdefault(g, {})[Derivative(1, alpha)] = integer_ratio(v, den)
    return {g: OperatorVector(cof, m, 1) for g, cof in terms.items()}


def cleared(lifted: _Lifted, m: int) -> Tuple[Polynomial, Cofactors]:
    """(w, h) of a lift's integer rows: w is den made monic, and h[g] is the
    rows numerators[g, alpha] over den's leading coefficient, as a scalar operator."""
    den = lifted.den
    return monic_polynomial(den), _operators(lifted.numerators, den.ring.ground_new(den.LC), m)


_ONE_OPERATORS: Dict[int, OperatorVector] = {}  # the multiplier 1 in each number of variables
_ONE_ROWS: Dict[int, Any] = {}  # its integer numerator, the one of the lift's ring


class DerivationLog:
    """How each element of a completion was made, for lifting to the generators.

    Ids ``0 .. generators - 1`` are the generator leaves; id
    ``generators + k`` is ``nodes[k]``.  A node's sources always have smaller
    ids, so replaying in id order meets every source before its users.  The
    replay is fraction-free: each replayed id holds its cofactors over one
    integer polynomial denominator (``_Lifted``), reduced by the gcd of that
    denominator and every numerator.  That cache, ``_replayed``, is None
    until the first replay builds it, the generator leaves included.
    """

    def __init__(self, generators: int, m: int):
        # the multiplier 1, which also is each leaf's cofactor
        self.one = _ONE_OPERATORS.get(m)
        if self.one is None:
            self.one = _ONE_OPERATORS[m] = OperatorVector.scalar_function(
                RationalFunction.constant(1, m), m)
        self.generators = generators
        self.m = m
        self.nodes: List[_Node] = []
        self._replayed: Optional[Dict[int, _Lifted]] = None

    def _unit(self):
        """The one of ZZ[x], the numerator of the multiplier 1."""
        unit = _ONE_ROWS.get(self.m)
        if unit is None:
            (one,) = self.one.terms.values()
            unit = _ONE_ROWS[self.m] = integer_pair(one)[0]
        return unit

    def __getstate__(self):
        # the replayed cofactors are a cache of integer rows, and sympy's ring
        # elements among them do not pickle (sympy 1.14); a copy replays
        # again when it needs them
        return {**self.__dict__, "_replayed": None}

    def append(self, terms: Iterable[Term], scale: RationalFunction) -> int:
        self.nodes.append(_Node(tuple(terms), scale))
        return self.generators + len(self.nodes) - 1

    def replay(self, ids: Iterable[int]) -> List[_Lifted]:
        """The lifted cofactors of each id, replaying the ancestors not yet replayed."""
        ids = list(ids)
        if self._replayed is None:
            one = self._unit()
            self._replayed = {j: _Lifted(one, {(j, (0,) * self.m): one})
                              for j in range(self.generators)}
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
            scale = [((0,) * self.m, integer_pair(node.scale))]
            self._replayed[i] = _cancelled(_product(scale, self._combine(node.terms)))
        return [self._replayed[i] for i in ids]

    def cofactors(self, ids: Iterable[int]) -> List[Cofactors]:
        """The generator cofactors of each id over F(x)."""
        return [_operators(lifted.numerators, lifted.den, self.m) for lifted in self.replay(ids)]

    def lift_rows(self, terms: Iterable[Term]) -> _Lifted:
        """(den, numerators) with den * sum(multiplier * source) = sum over
        (g, alpha) of numerators[g, alpha] * D^alpha * generator g, on integer
        rows with no polynomial factor common to den and every numerator;
        ``cleared`` makes them (w, h).
        """
        terms = list(terms)
        self.replay(source for _, source in terms)
        return _cancelled(self._combine(terms))

    def _combine(self, terms: Iterable[Term]) -> _Lifted:
        # every source is replayed already
        parts = [_product(_pairs(multiplier), self._replayed[source])
                 for multiplier, source in terms]
        return _sum(parts) if parts else _Lifted(self._unit(), {})


# Per (m, n): Delta_T in ranking order, for the highest order T asked in the
# process, and the position there of each derivative.  An extension publishes
# a new list and a new map, so a list or map handed out never changes.
_RANKINGS: Dict[Tuple[int, int], Tuple[List[Derivative], Dict[Derivative, int]]] = {}


def ranked_delta(m: int, n: int, order: int) -> Tuple[List[Derivative], Dict[Derivative, int]]:
    """(Delta_T in ranking order, the position of each of its derivatives), T >= order.

    One list and one map serve every basis of the same (m, n), so each order
    of Delta is enumerated and sorted once per process: a higher order appends
    the new derivatives to copies of the list and the map it had, and a lower
    order returns them as they are, longer than Delta_order.  Both are shared,
    so they are read-only.  InvalidInput, from ``derivatives_up_to``, when
    Delta_order has more than MAX_JET_SIZE derivatives.
    """
    ranked, position = _RANKINGS.get((m, n), ([], {}))
    if order >= 0 and n * math.comb(order + m, m) > len(ranked):
        held = ranked[-1].order if ranked else -1
        new = derivatives_up_to(m, n, order, above=held)
        position = dict(position)
        position.update(zip(new, itertools.count(len(ranked))))
        ranked = ranked + new
        _RANKINGS[m, n] = ranked, position
    return ranked, position


class RiquierBasis:
    """A monic, autoreduced, confluent generating set with its derivation log.

    The basis also keeps the principal/parametric classification of Delta_T
    (``ranked_up_to``): each derivative is classified once per basis, by
    ``ranking.pick_rule``, and ``parametric_up_to``, the constraint matrix
    and the solve plans of ``jets`` all read that one list.  The ranking it
    classifies, ``ranked`` and ``position``, is ``ranked_delta``'s, shared by
    every basis of the same (m, n): both are read-only.
    """

    def __init__(self, elements: Sequence[OperatorVector], m: int, n: int,
                 derivation: DerivationLog, made_by: Sequence[int]):
        self.elements = list(elements)
        self.m = m
        self.n = n
        # each element keeps its head, so this reads them without a search
        self.heads = [p.head for p in self.elements]
        # the log and, per element, the log id that made it
        self.derivation = derivation
        self.made_by = list(made_by)
        # the shared Delta_T in ranking order and its positions (``ranked_delta``),
        # covering at least the highest order T asked so far, and per position
        # of Delta_T the index of the rule whose head divides it (None when it
        # is parametric); see ``ranked_up_to``
        self.ranked, self.position = ranked_delta(m, n, -1)
        self.ranked_rules: List[Optional[int]] = []
        # the basis evaluated at each point, one plan per point for every
        # order; built and extended by jets.constraint_matrix and formal_solve
        self.solve_plans: Dict[tuple, "SolvePlan"] = {}

    @property
    def generator_cofactors(self) -> List[Cofactors]:
        """Per element, exact cofactors over the generators (replayed on first use)."""
        return self.derivation.cofactors(self.made_by)

    def lift(self, multipliers: Mapping[int, OperatorVector]) -> Tuple[Polynomial, Cofactors]:
        """(w, h) with w * sum_k multipliers[k] * elements[k] = sum_g h[g] * generator g.

        w is a monic polynomial, the lcm of the denominators of the exact
        generator cofactors, and every h[g] has polynomial coefficients.  Only
        the elements named in ``multipliers`` and their ancestors in the log
        are replayed.
        """
        return cleared(self.lift_rows(multipliers), self.m)

    def lift_rows(self, multipliers: Mapping[int, OperatorVector]) -> _Lifted:
        """``lift`` before its edge: the integer rows (den, numerators) with
        den * sum_k multipliers[k] * elements[k] = sum over (g, alpha) of
        numerators[g, alpha] * D^alpha * generator g."""
        return self.derivation.lift_rows(
            (multiplier, self.made_by[k]) for k, multiplier in multipliers.items())

    @property
    def s0(self) -> int:
        """Maximum degree over the basis (0 for the empty basis)."""
        if not self.elements:
            return 0
        return max(h.order for h in self.heads)

    def classify(self, d: Derivative) -> DerivativeClass:
        """Principal or parametric; InvalidInput unless d is a derivative of the system's (m, n)."""
        check_fits([d], self.m, self.n, "derivative")
        if pick_rule(d, self.heads) is not None:
            return DerivativeClass.PRINCIPAL
        return DerivativeClass.PARAMETRIC

    def ranked_up_to(self, order: int) -> int:
        """|Delta_order|, after classifying every derivative of Delta_order.

        ``ranked`` and ``position`` are ``ranked_delta(m, n, order)``, and
        ``ranked_rules`` holds, per position, the index of the rule whose head
        divides the derivative there, or None when it is parametric.  Under
        the standard ranking Delta_s is a prefix of Delta_(s+1), so a higher
        order classifies the new derivatives, each once, and a lower order
        reads a prefix.
        """
        size = self.n * math.comb(order + self.m, self.m)
        start = len(self.ranked_rules)
        if size > start:
            if size > len(self.ranked):
                self.ranked, self.position = ranked_delta(self.m, self.n, order)
            self.ranked_rules.extend(pick_rule(d, self.heads) for d in self.ranked[start:size])
        return size

    def parametric_up_to(self, s: int) -> List[Derivative]:
        """All parametric derivatives in Delta_s, in ranking order, as a fresh list.

        They are read off ``ranked_up_to``; a negative s raises InvalidInput.
        """
        if s < 0:
            raise InvalidInput(f"order s must be nonnegative, got {s}")
        size = self.ranked_up_to(s)
        return [d for d, rule in zip(self.ranked[:size], self.ranked_rules) if rule is None]


def _monic_and_logged(trace: ReductionTrace, terms: List[Term], rule_ids: Sequence[int],
                      log: DerivationLog) -> Tuple[OperatorVector, int]:
    """The monic normal form of a nonzero trace, and the log id that records it.

    ``terms`` make the reduced operator; each reduction step by rule k adds
    the term ``(-step, rule_ids[k])``.
    """
    normal_form = trace.normal_form
    scale = normal_form.terms[normal_form.head].inverse()
    terms = terms + [(-step, rule_ids[k]) for k, step in trace.cofactors.items()]
    return normal_form.left_scale(scale), log.append(terms, scale)


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
        check_fits(g.terms, m, n, f"generator {j} term")

    log = DerivationLog(len(gens), m)
    # every element made (each keeps its head), keyed by the log id that made
    # it, and the live ones among them
    made: Dict[int, OperatorVector] = {}
    basis: Dict[int, OperatorVector] = {}
    # pending pairs (lcm rank key, formation count, j, k, lcm of the heads)
    pairs: List[Tuple[tuple, int, int, int, Derivative]] = []
    formed = itertools.count()
    # the components that have an order-0 head: once all n do, every
    # derivative is reducible, and every pending pair would reduce to zero
    units: Set[int] = set()

    def adjoin(op: OperatorVector, terms: List[Term]) -> None:
        trace = reduce_full(op, list(basis.values()))
        if trace.normal_form.is_zero():
            return
        element, node = _monic_and_logged(trace, terms, list(basis), log)
        made[node] = element
        head = element.head
        for j, other in list(basis.items()):
            if other.head.component == head.component:
                lcm = Derivative(head.component, tuple(map(max, other.head.alpha, head.alpha)))
                if lcm == other.head:  # the new head divides it: retire it
                    del basis[j]
                heapq.heappush(pairs, (lcm.rank_key(), next(formed), j, node, lcm))
        basis[node] = element
        if not head.order:
            units.add(head.component)
            if len(units) == n:
                pairs.clear()

    for j, g in enumerate(gens):
        if len(units) == n:
            break
        if not g.is_zero():
            adjoin(g, [(log.one, j)])

    # Normal strategy: lowest-ranking lcm first, ties in formation order.  A
    # retired element's pairs are dropped, but for the one with the element
    # that retired it: that pair reduces it again, and a nonzero remainder has
    # a head new to the head module, which only grows.
    while pairs:
        _, _, j, k, lcm = heapq.heappop(pairs)
        if lcm != made[j].head and (j not in basis or k not in basis):
            continue
        shift_j = tuple(c - a for c, a in zip(lcm.alpha, made[j].head.alpha))
        shift_k = tuple(c - b for c, b in zip(lcm.alpha, made[k].head.alpha))
        d_j = OperatorVector.from_derivative(Derivative(1, shift_j), m, 1)
        d_k = OperatorVector.from_derivative(Derivative(1, shift_k), m, 1)
        spair = left_multiply_by_d(shift_j, made[j]) - left_multiply_by_d(shift_k, made[k])
        adjoin(spair, [(d_j, j), (-d_k, k)])

    # Reduce the tails in one forward pass.  No live head divides another, so
    # every element keeps its head, and an element found reduced stays so.
    if len(basis) > 1:
        for j in list(basis):
            element = basis.pop(j)
            trace = reduce_full(element, list(basis.values()))
            if trace.normal_form != element:
                element, j = _monic_and_logged(trace, [(log.one, j)], list(basis), log)
            basis[j] = element

    order = sorted(basis, key=lambda j: basis[j].head.rank_key())
    return RiquierBasis([basis[j] for j in order], m, n, log, order)
