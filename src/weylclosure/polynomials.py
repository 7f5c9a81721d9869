"""Sparse multivariate polynomials and normalized rational functions over Q or Q(i).

A polynomial holds one element of a sympy sparse polynomial ring in
graded-lex order, over ``QQ`` when every coefficient is rational and over
``QQ_I`` when some coefficient has a nonzero imaginary part.  Every result is
moved back to the rational ring when its imaginary parts cancel, so equal
values are equal elements of the same ring.  Coefficients cross the module's
edge as ``Fraction`` or ``GaussianRational``.  Rational functions keep a
gcd-reduced numerator/denominator pair with a monic denominator (graded-lex
leading coefficient 1), which makes equality testing and witness extraction
canonical.  The constructor reduces any pair it is given; the arithmetic
keeps its operands reduced and, after Henrici, takes gcds only of the small
factors where a common factor can remain, never of the full cross products.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Tuple

from sympy.polys.domains import QQ, QQ_I
from sympy.polys.orderings import grlex
from sympy.polys.rings import PolyRing

from .errors import EvaluationAtPole
from .scalars import GaussianRational, Scalar, format_point

Monomial = Tuple[int, ...]

_RINGS: dict = {}


def _ring(nvars: int, complex_mode: bool = False) -> PolyRing:
    """The ring for (nvars, field), built once: sympy only combines elements of one ring object."""
    key = (nvars, complex_mode)
    ring = _RINGS.get(key)
    if ring is None:
        ring = _RINGS[key] = PolyRing([f"v{i}" for i in range(nvars)],
                                      QQ_I if complex_mode else QQ, grlex)
    return ring


def _is_complex(c) -> bool:
    return isinstance(c, GaussianRational) and bool(c.im)


def _to_ground(c, domain):
    """An int, Fraction or GaussianRational as an element of QQ or QQ_I."""
    if isinstance(c, GaussianRational):
        re = QQ(c.re.numerator, c.re.denominator)
        if domain is QQ:
            return re
        return QQ_I(re, QQ(c.im.numerator, c.im.denominator))
    value = QQ(c.numerator, c.denominator)
    return value if domain is QQ else QQ_I(value)


def _fraction(c) -> Fraction:
    return Fraction(int(c.numerator), int(c.denominator))


def _from_ground(c, domain) -> Scalar:
    if domain is QQ:
        return _fraction(c)
    return GaussianRational(_fraction(c.x), _fraction(c.y))


def _complex(element):
    """The element with its coefficients in QQ_I."""
    if element.ring.domain is QQ_I:
        return element
    return _ring(element.ring.ngens, True).from_dict({m: QQ_I(c) for m, c in element.items()})


def _in_one_ring(first: "Polynomial", *rest: "Polynomial"):
    """The elements of the polynomials in one ring: the complex one if any is complex."""
    ring = first._element.ring
    elements = [first._element]
    for p in rest:
        if p._element.ring is not ring:
            return [_complex(q._element) for q in (first, *rest)]
        elements.append(p._element)
    return elements


class Polynomial:
    """A sparse polynomial in ``nvars`` variables with exact field coefficients."""

    __slots__ = ("_element", "nvars")

    def __init__(self, terms: Mapping[Monomial, Scalar], nvars: int):
        complex_mode = any(_is_complex(c) for c in terms.values())
        ring = _ring(nvars, complex_mode)
        self._element = ring.from_dict(
            {tuple(m): _to_ground(c, ring.domain) for m, c in terms.items() if c})
        self.nvars = nvars

    @classmethod
    def _wrap(cls, element) -> "Polynomial":
        """A polynomial around a ring element, moved to QQ if no coefficient is complex."""
        ring = element.ring
        if ring.domain is QQ_I and not any(c.y for c in element.values()):
            element = _ring(ring.ngens).from_dict({m: c.x for m, c in element.items()})
        p = object.__new__(cls)
        p._element = element
        p.nvars = ring.ngens
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls._wrap(_ring(nvars).zero)

    @classmethod
    def constant(cls, value, nvars: int) -> "Polynomial":
        if value == 1:
            return cls._wrap(_ring(nvars).one)
        ring = _ring(nvars, _is_complex(value))
        return cls._wrap(ring.ground_new(_to_ground(value, ring.domain)))

    @classmethod
    def variable(cls, index: int, nvars: int) -> "Polynomial":
        """The polynomial x_index, with index in 1..nvars."""
        if not 1 <= index <= nvars:
            raise IndexError(f"variable index {index} out of range 1..{nvars}")
        return cls._wrap(_ring(nvars).gens[index - 1])

    @classmethod
    def monomial(cls, mono: Monomial, coeff, nvars: int) -> "Polynomial":
        return cls({tuple(mono): coeff}, nvars)

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self) -> Mapping[Monomial, Scalar]:
        """The nonzero coefficients by exponent tuple, read-only."""
        domain = self._element.ring.domain
        return MappingProxyType(
            {m: _from_ground(c, domain) for m, c in self._element.items()})

    def is_zero(self) -> bool:
        return not self._element

    def is_constant(self) -> bool:
        return self._element.is_ground

    def constant_value(self) -> Scalar:
        element = self._element
        return _from_ground(element.get(element.ring.zero_monom, element.ring.domain.zero),
                            element.ring.domain)

    def leading_coefficient(self) -> Scalar:
        return _from_ground(self._element.LC, self._element.ring.domain)

    def __bool__(self):
        return bool(self._element)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            # canonical rings: equal values never sit in different rings
            return self._element.ring is other._element.ring and self._element == other._element
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self == Polynomial.constant(other, self.nvars)
        return NotImplemented

    def __hash__(self):
        return hash(self._element)

    def __repr__(self):
        return f"Polynomial({dict(self.terms)!r}, nvars={self.nvars})"

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction, GaussianRational)):
            return Polynomial.constant(other, self.nvars)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = _in_one_ring(self, o)
        return Polynomial._wrap(a + b)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._wrap(-self._element)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = _in_one_ring(self, o)
        return Polynomial._wrap(a - b)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = _in_one_ring(self, o)
        return Polynomial._wrap(a * b)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative polynomial power")
        return Polynomial._wrap(self._element ** exponent)

    def scale(self, scalar) -> "Polynomial":
        element = _complex(self._element) if _is_complex(scalar) else self._element
        return Polynomial._wrap(element.mul_ground(_to_ground(scalar, element.ring.domain)))

    def monic(self) -> "Polynomial":
        """Divide by the graded-lex leading coefficient."""
        return Polynomial._wrap(self._element.monic())

    # -- calculus ----------------------------------------------------------

    def derivative(self, index: int) -> "Polynomial":
        """Partial derivative with respect to x_index (1-based)."""
        if not 1 <= index <= self.nvars:
            raise IndexError(f"variable index {index} out of range 1..{self.nvars}")
        element = self._element
        return Polynomial._wrap(element.diff(element.ring.gens[index - 1]))

    def evaluate(self, point: Sequence[Scalar]) -> Scalar:
        if len(point) != self.nvars:
            raise ValueError("point dimension mismatch")
        total: Scalar = Fraction(0)
        for m, c in self.terms.items():
            value = c
            for x, e in zip(point, m):
                for _ in range(e):
                    value = value * x
            total = total + value
        return total

    # -- division ----------------------------------------------------------

    def exact_div(self, divisor: "Polynomial") -> "Polynomial":
        """Exact quotient self / divisor; raises ValueError if not divisible."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        a, b = _in_one_ring(self, divisor)
        quotient, remainder = a.div(b)
        if remainder:
            raise ValueError("inexact polynomial division")
        return Polynomial._wrap(quotient)


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd over the coefficient field (graded-lex leading coefficient 1)."""
    a, b = _in_one_ring(f, g)
    return Polynomial._wrap(a.gcd(b).monic())


def poly_lcm(f: Polynomial, g: Polynomial) -> Polynomial:
    a, b = _in_one_ring(f, g)
    if not a or not b:
        return Polynomial.zero(f.nvars)
    return Polynomial._wrap(a.lcm(b))  # over a field, sympy's lcm is monic


def _cofactors(a, b):
    """(gcd, a/gcd, b/gcd) from one sympy call; a nonzero constant on either side shares no factor."""
    if (a.is_ground and a) or (b.is_ground and b):
        return a.ring.one, a, b
    return a.cofactors(b)


def _monic_pair(a, b):
    """A coprime pair of ring elements as polynomials, scaled so that b is monic."""
    lc = b.LC
    if lc != b.ring.domain.one:
        a, b = a.quo_ground(lc), b.quo_ground(lc)
    return Polynomial._wrap(a), Polynomial._wrap(b)


def _reduce_fraction(num: Polynomial, den: Polynomial):
    """num/den in lowest terms, with a monic denominator."""
    if num.is_zero():
        return num, Polynomial.constant(1, num.nvars)
    _, a, b = _cofactors(*_in_one_ring(num, den))
    return _monic_pair(a, b)


# -- rational functions ----------------------------------------------------


class RationalFunction:
    """A normalized quotient of polynomials: reduced, with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial | None = None):
        if den is None:
            den = Polynomial.constant(1, num.nvars)
        elif den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        else:
            num, den = _reduce_fraction(num, den)
        self.num = num
        self.den = den

    @classmethod
    def _normalized(cls, num: Polynomial, den: Polynomial) -> "RationalFunction":
        """Wrap a pair that is already reduced with a monic denominator, skipping the gcd."""
        f = object.__new__(cls)
        f.num = num
        f.den = den
        return f

    @classmethod
    def _coprime(cls, a, b) -> "RationalFunction":
        """a/b for coprime ring elements a and b != 0: only the leading coefficient is divided out."""
        if not a:
            return cls.zero(a.ring.ngens)
        return cls._normalized(*_monic_pair(a, b))

    @classmethod
    def zero(cls, nvars: int) -> "RationalFunction":
        return cls._normalized(Polynomial.zero(nvars), Polynomial.constant(1, nvars))

    @classmethod
    def constant(cls, value, nvars: int) -> "RationalFunction":
        return cls._normalized(Polynomial.constant(value, nvars), Polynomial.constant(1, nvars))

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.is_constant()  # a monic constant is 1

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, Polynomial):
            return RationalFunction(other)
        if isinstance(other, (int, Fraction, GaussianRational)):
            return RationalFunction.constant(other, self.nvars)
        return None

    # The arithmetic below is Henrici's (JACM 3, 1956; Knuth, TAOCP 2, 4.5.1):
    # both operands are already reduced, so each result is built from their
    # factors and a gcd is taken only where a common factor can remain.  The
    # result is the same reduced pair with a monic denominator that the
    # constructor would give, without a gcd of the full cross products.

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = _in_one_ring(self.num, self.den, o.num, o.den)
        if b == d:  # both 1 when both are constant: then no gcd is taken
            _, t, b = _cofactors(a + c, b)
            return RationalFunction._coprime(t, b)
        g, b_g, d_g = _cofactors(b, d)
        t = a * d_g + c * b_g
        if g.is_ground:  # coprime denominators; g may be a constant other than 1
            return RationalFunction._coprime(t, b * d_g)
        # t is coprime to b/g and to d/g, so a common factor of t and the
        # denominator b*d/g can only lie in g
        _, t, g = _cofactors(t, g)
        return RationalFunction._coprime(t, b_g * g * d_g)

    __radd__ = __add__

    def __neg__(self):
        # negation keeps the pair reduced and the denominator monic
        return RationalFunction._normalized(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = _in_one_ring(self.num, self.den, o.num, o.den)
        # a/b and c/d are reduced, so only a with d and c with b can share factors
        _, a, d = _cofactors(a, d)
        _, c, b = _cofactors(c, b)
        return RationalFunction._coprime(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def inverse(self) -> "RationalFunction":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        a, b = _in_one_ring(self.num, self.den)
        return RationalFunction._coprime(b, a)

    def derivative(self, index: int) -> "RationalFunction":
        """Partial derivative by the quotient rule, reduced by a gcd with a factor of den only."""
        da = self.num.derivative(index)
        if self.den.is_constant():
            return RationalFunction._normalized(da, self.den)
        a, b, da, db = _in_one_ring(self.num, self.den, da, self.den.derivative(index))
        # With g = gcd(b, db), d(a/b) = t / (b * (b/g)) for t = da*(b/g) - a*(db/g).
        # A prime factor of b that involves x_index, of multiplicity e, has
        # multiplicity e - 1 in db and in g (characteristic 0), so it divides
        # b/g once and db/g not at all; since it does not divide a either, it
        # does not divide t.  A prime factor free of x_index keeps its full
        # multiplicity in g, so it does not divide b/g.  Hence gcd(t, g) is
        # the whole common factor.  When db = 0, g = b up to a unit and this
        # is gcd(da, b): d/dx((x*y + 1)/y) = y/y = 1.
        g, b_g, db_g = _cofactors(b, db)
        _, t, g = _cofactors(da * b_g - a * db_g, g)
        return RationalFunction._coprime(t, g * b_g * b_g)

    def evaluate(self, point: Sequence[Scalar]) -> Scalar:
        den_value = self.den.evaluate(point)
        if not den_value:
            raise EvaluationAtPole(f"denominator vanishes at {format_point(point)}")
        return self.num.evaluate(point) / den_value


def common_denominator(rs: Iterable[RationalFunction], nvars: int) -> Polynomial:
    """A monic polynomial w with w*r polynomial for every r: the lcm of denominators."""
    w = Polynomial.constant(1, nvars)
    seen = set()
    for r in rs:
        # a constant denominator is 1, and a repeated one already divides w
        if r.den.is_constant() or r.den in seen:
            continue
        seen.add(r.den)
        w = poly_lcm(w, r.den)
    return w
