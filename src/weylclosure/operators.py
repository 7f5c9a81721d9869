"""Operators with rational-function coefficients in standard form, and truncated jets.

An operator vector is a finite left-linear combination of derivatives
``D^alpha e_i`` with coefficients in F(x).  Products are normal-ordered eagerly
through the commutation rule ``D_j f = f D_j + df/dx_j``, so equal operators
always have equal term maps.  The shifted operators ``D^beta * p`` of one p
come from one kernel, ``shifts(p)``, which builds each of them once, one
derivation from another: left products, S-pairs, reduction steps, the
lemma1 slices and the jet action all take their shifts from it.  (The
witness check multiplies on integer rows with a kernel of its own, so that
it shares no code with what it checks.)  An operator's head under the
standard ranking is found on first use and kept with the operator, whose
terms never change.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping, NamedTuple, Sequence,
                    Tuple, TypeVar)

from .errors import DegreeExceeded, InvalidInput, ZeroOperator
from .polynomials import Polynomial, RationalFunction
from .scalars import ZERO, Scalar

MultiIndex = Tuple[int, ...]
K = TypeVar("K")
T = TypeVar("T")
V = TypeVar("V")

# The most derivatives ``derivatives_up_to`` lists, and the most entries
# ``jets.constraint_matrix`` builds.  At the bound Delta_s takes about 40 MB
# and 0.4 s to build (2 vCPUs, Python 3.11), and a constraint matrix with
# that many entries already takes seconds to eliminate; the test suite and
# the benchmark build at most 56 derivatives and 3,192 entries.
MAX_JET_SIZE = 100_000


class Derivative(NamedTuple):
    """The derivative monomial D^alpha applied to unknown number ``component``.

    It is the plain tuple ``(component, alpha)``, which keys every
    derivative table of the library.  Tuples order by their entries, not by
    the ranking: sort derivatives with ``rank_key``.
    """

    component: int
    alpha: MultiIndex

    @property
    def order(self) -> int:
        return sum(self.alpha)

    def rank_key(self):
        """Standard-ranking key: lex on (|alpha|, component, alpha_1..alpha_{m-1})."""
        return (self.order, self.component, self.alpha[:-1])

    def differentiate(self, gamma: MultiIndex) -> "Derivative":
        return Derivative(self.component, tuple(a + g for a, g in zip(self.alpha, gamma)))

    def divides(self, other: "Derivative") -> bool:
        return self.component == other.component and all(
            a <= b for a, b in zip(self.alpha, other.alpha)
        )


def fits(d: Derivative, m: int, n: int) -> bool:
    """True iff d is D^alpha e_i with alpha in N^m and i in 1..n."""
    return len(d.alpha) == m and 1 <= d.component <= n and (not d.alpha or min(d.alpha) >= 0)


def check_fits(derivatives: Iterable[Derivative], m: int, n: int, what: str) -> None:
    """InvalidInput naming the first derivative that does not ``fit`` (m, n)."""
    for d in derivatives:
        if not fits(d, m, n):
            raise InvalidInput(
                f"{what} given for unknown {d.component} with multi-index "
                f"{d.alpha}, which does not fit {m} variable(s) and "
                f"{n} unknown(s)")


def multi_indices(m: int, max_total: int, min_total: int = 0) -> Iterator[MultiIndex]:
    """All alpha in N^m with min_total <= |alpha| <= max_total, in increasing total degree."""
    for total in range(min_total, max_total + 1):
        for cuts in itertools.combinations(range(total + m - 1), m - 1):
            parts = []
            prev = -1
            for c in cuts:
                parts.append(c - prev - 1)
                prev = c
            parts.append(total + m - 2 - prev)
            yield tuple(parts)


def stepwise(start: T, step: Callable[[int, T, MultiIndex], T]) -> Callable[[MultiIndex], T]:
    """A memoized f on multi-indices, built one derivation at a time.

    ``f(0) = start`` and ``f(alpha) = step(j, f(alpha - e_j), alpha)`` for the
    last (0-based) j with ``alpha_j > 0``; each value is computed once.
    """
    values: Dict[MultiIndex, T] = {}

    def f(alpha: MultiIndex) -> T:
        # down to a known value, then back up; f does not call itself, so it
        # is not in a reference cycle and is freed as soon as it is dropped
        path = []
        found = values.get(alpha)
        while found is None:
            if not any(alpha):
                found = values[alpha] = start
                break
            j = max(k for k, a in enumerate(alpha) if a)
            path.append((j, alpha))
            alpha = alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:]
            found = values.get(alpha)
        for j, target in reversed(path):
            found = values[target] = step(j, found, target)
        return found

    return f


def derivatives_up_to(m: int, n: int, s: int, above: int = -1) -> List[Derivative]:
    """The set Delta_s, sorted by the standard ranking.

    With ``above = t`` only the derivatives of order above t are listed: the
    ranking compares orders first, so they are the part of Delta_s that
    follows Delta_t.  InvalidInput when Delta_s has more than MAX_JET_SIZE
    derivatives, whatever ``above`` is.
    """
    size = n * math.comb(s + m, m) if s >= 0 else 0
    if size > MAX_JET_SIZE:
        raise InvalidInput(
            f"order {s} has {size} derivatives in {m} variable(s) and {n} unknown(s), "
            f"more than the limit of {MAX_JET_SIZE}")
    out = [
        Derivative(i, alpha)
        for alpha in multi_indices(m, s, above + 1)
        for i in range(1, n + 1)
    ]
    out.sort(key=Derivative.rank_key)
    return out


class OperatorVector:
    """An element of B_m(F)^n in standard form.

    ``terms`` is not changed after construction, so the head, once found,
    is kept in ``_head``; equality and hashing ignore it.
    """

    __slots__ = ("terms", "m", "n", "_head")

    def __init__(self, terms: Mapping[Derivative, RationalFunction], m: int, n: int):
        self.terms = {d: c for d, c in terms.items() if c}
        self.m = m
        self.n = n
        self._head = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, m: int, n: int) -> "OperatorVector":
        return cls({}, m, n)

    @classmethod
    def from_derivative(cls, d: Derivative, m: int, n: int, coeff=None) -> "OperatorVector":
        if coeff is None:
            coeff = RationalFunction.constant(1, m)
        return cls({d: coeff}, m, n)

    @classmethod
    def scalar_function(cls, f: RationalFunction, m: int, n: int = 1) -> "OperatorVector":
        return cls({Derivative(1, (0,) * m): f}, m, n)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, OperatorVector):
            return NotImplemented
        return self.m == other.m and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.m, self.n, frozenset(self.terms.items())))

    def __repr__(self):
        return f"OperatorVector({self.terms!r}, m={self.m}, n={self.n})"

    @property
    def head(self) -> Derivative:
        """The ranking-highest derivative, found on first use; ZeroOperator for zero."""
        head = self._head
        if head is None:
            if not self.terms:
                raise ZeroOperator("zero operator has no head")
            head = self._head = max(self.terms, key=Derivative.rank_key)
        return head

    def degree(self) -> int:
        """Max |alpha| over the support; -1 for the zero operator."""
        if not self.terms:
            return -1
        return max(d.order for d in self.terms)

    def coefficient(self, d: Derivative) -> RationalFunction:
        return self.terms.get(d, RationalFunction.zero(self.m))

    def is_polynomial_row(self) -> bool:
        """True iff every coefficient is a polynomial (element of A_m(F)^n)."""
        return all(c.is_polynomial() for c in self.terms.values())

    # -- linear structure --------------------------------------------------

    def __add__(self, other: "OperatorVector") -> "OperatorVector":
        if not isinstance(other, OperatorVector):
            return NotImplemented
        terms = dict(self.terms)
        for d, c in other.terms.items():
            add_term(terms, d, c)
        return OperatorVector(terms, self.m, self.n)

    def __neg__(self) -> "OperatorVector":
        return OperatorVector({d: -c for d, c in self.terms.items()}, self.m, self.n)

    def __sub__(self, other: "OperatorVector") -> "OperatorVector":
        if not isinstance(other, OperatorVector):
            return NotImplemented
        return self + (-other)

    def left_scale(self, f: RationalFunction | Polynomial | int) -> "OperatorVector":
        """Multiply on the left by a function (commutes past nothing: pure scaling)."""
        if isinstance(f, (Polynomial, int)):
            f = RationalFunction(f) if isinstance(f, Polynomial) else RationalFunction.constant(f, self.m)
        if not f:
            return OperatorVector.zero(self.m, self.n)
        scaled = OperatorVector({d: f * c for d, c in self.terms.items()}, self.m, self.n)
        scaled._head = self._head  # a nonzero factor keeps every term
        return scaled


def add_term(terms: Dict[K, V], key: K, c: V) -> None:
    """terms[key] += c for a nonzero c, dropping the entry when it cancels."""
    old = terms.get(key)
    s = c if old is None else old + c
    if s:
        terms[key] = s
    else:
        del terms[key]


def apply_single_d(j: int, p: OperatorVector) -> OperatorVector:
    """Standard form of D_j * p via the Leibniz rule D_j (f d) = (df/dx_j) d + f (D_j d)."""
    if not 1 <= j <= p.m:
        raise IndexError(f"derivation index {j} out of range 1..{p.m}")
    shift = tuple(1 if k == j - 1 else 0 for k in range(p.m))
    terms: Dict[Derivative, RationalFunction] = {}
    for d, f in p.terms.items():
        df = f.derivative(j)
        if df:
            add_term(terms, d, df)
        add_term(terms, d.differentiate(shift), f)
    return OperatorVector(terms, p.m, p.n)


def shifts(p: OperatorVector) -> Callable[[MultiIndex], OperatorVector]:
    """The memoized beta -> D^beta * p, for beta in N^m.

    Each shift is built once, by one ``apply_single_d`` from an earlier one;
    the derivations go in increasing index, D_1 first, as for D^beta read
    left to right.  The caller checks that beta is in N^m.
    """
    return stepwise(p, lambda j, q, beta: apply_single_d(j + 1, q))


def left_multiply_by_d(beta: MultiIndex, p: OperatorVector) -> OperatorVector:
    """Standard form of D^beta * p."""
    check_fits([Derivative(1, beta)], p.m, 1, "shift")
    return shifts(p)(beta)


def scalar_operator_product(h: OperatorVector, p: OperatorVector) -> OperatorVector:
    """Standard form of the left product h * p for a scalar operator h (n = 1)."""
    if h.n != 1:
        raise InvalidInput("left factor must be a scalar operator (n = 1)")
    if h.m != p.m:
        raise InvalidInput("variable counts differ")
    check_fits(h.terms, h.m, 1, "left factor term")
    check_fits(p.terms, p.m, p.n, "right factor term")
    shifted = shifts(p)
    result = OperatorVector.zero(p.m, p.n)
    for d, f in h.terms.items():
        result = result + shifted(d.alpha).left_scale(f)
    return result


def coefficient_vector(p: OperatorVector, s: int) -> List[RationalFunction]:
    """The coefficients of p at Delta_s in ranking order, unevaluated."""
    if p.degree() > s:
        raise DegreeExceeded(f"operator degree {p.degree()} exceeds slice order {s}")
    return [p.coefficient(d) for d in derivatives_up_to(p.m, p.n, s)]


def cf_slice(p: OperatorVector, s: int, point: Sequence[Scalar]) -> List[Scalar]:
    """The coefficients of p at Delta_s, evaluated at a point, in ranking order."""
    return [c.evaluate(point) for c in coefficient_vector(p, s)]


# -- jets ------------------------------------------------------------------


class Jet:
    """Derivative values of an n-tuple of formal series at a point, through order T.

    ``values`` is taken as given: it should hold derivatives of order at most
    T, and ``truncate`` is what drops the higher ones.
    """

    __slots__ = ("base_point", "order", "m", "n", "values")

    def __init__(self, base_point: Sequence[Scalar], order: int, m: int, n: int,
                 values: Mapping[Derivative, Scalar]):
        self.base_point = tuple(base_point)
        self.order = order
        self.m = m
        self.n = n
        self.values = dict(values)

    def value(self, d: Derivative) -> Scalar:
        return self.values.get(d, ZERO)

    def truncate(self, order: int) -> "Jet":
        return Jet(self.base_point, order, self.m, self.n,
                   {d: v for d, v in self.values.items() if d.order <= order})

    def is_zero(self) -> bool:
        return not any(self.values.values())

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        if (self.base_point, self.order, self.m, self.n) != (
            other.base_point, other.order, other.m, other.n
        ):
            return False
        keys = set(self.values) | set(other.values)
        return all(self.value(d) == other.value(d) for d in keys)

    def __repr__(self):
        return (f"Jet(base_point={self.base_point!r}, order={self.order}, "
                f"m={self.m}, n={self.n}, values={self.values!r})")


def apply_to_jet(p: OperatorVector, u: Jet) -> Jet:
    """The jet of p[u] at the same base point, exact through order T - deg p.

    Each D^beta p is shifted symbolically over F(x), once, from
    ``shifts(p)``, and only then evaluated.
    This stays apart from the Taylor-coefficient rows of ``jets`` on purpose:
    it is the independent check that formal solutions are annihilated.
    """
    if p.m != u.m or p.n != u.n:
        raise InvalidInput("operator and jet dimensions differ")
    check_fits(p.terms, p.m, p.n, "operator term")
    if p.is_zero():
        return Jet(u.base_point, u.order, u.m, 1, {})
    deg = p.degree()
    if u.order < deg:
        raise InvalidInput(
            f"jet order {u.order} below operator degree {deg}: truncation underflow"
        )
    out_order = u.order - deg
    values: Dict[Derivative, Scalar] = {}
    shifted = shifts(p)
    for beta in multi_indices(p.m, out_order):
        total: Scalar = Fraction(0)
        for d, c in shifted(beta).terms.items():
            total = total + c.evaluate(u.base_point) * u.value(d)
        values[Derivative(1, beta)] = total
    return Jet(u.base_point, out_order, u.m, 1, values)
