"""Sparse multivariate polynomials and normalized rational functions over Q or Q(i).

A polynomial holds one element of a sympy sparse polynomial ring in
graded-lex order, over ``QQ`` when every coefficient is rational and over
``QQ_I`` when some coefficient has a nonzero imaginary part.  Every result is
moved back to the rational ring when its imaginary parts cancel, so equal
values are equal elements of the same ring.  Coefficients cross the module's
edge as ``Fraction`` or ``GaussianRational``.

A rational function holds ``c * a / b``: a content ``c`` in the field (``QQ``,
or ``QQ_I`` for a value with imaginary parts) and coprime ``a`` and ``b`` in
the integer ring (``ZZ``, or ``ZZ_I``), each primitive and with a canonical
leading coefficient (positive over ``ZZ``, in the first quadrant over
``ZZ_I``).  This form is unique, so equality and hashing compare the triple;
a Gaussian result whose imaginary parts cancel moves back to ``ZZ``.  By
Gauss's lemma a product of primitive polynomials is primitive, so the
arithmetic runs on integer polynomials and sympy's integer gcd and never
clears denominators.  It keeps its operands reduced and, after Henrici,
takes gcds only of the small factors where a common factor can remain, never
of the full cross products.  The edge is ``num`` and ``den``: a polynomial
pair over the field with a monic denominator (graded-lex leading coefficient
1), built on request in one pass over the terms and not stored.  Fraction-free
callers, such as the witness lift, cross a second edge: ``integer_pair`` hands
out a numerator and denominator in the integer ring, and ``integer_ratio`` and
``monic_polynomial`` take integer-ring results back.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Tuple

from sympy.polys.domains import QQ, QQ_I, ZZ, ZZ_I
from sympy.polys.orderings import grlex
from sympy.polys.rings import PolyRing

from .errors import EvaluationAtPole
from .scalars import GaussianRational, Scalar, format_point

Monomial = Tuple[int, ...]

_ONES: dict = {}
_GAUSSIAN = {QQ: QQ_I, ZZ: ZZ_I}  # the Gaussian domain over each real one
_FIELD = {ZZ: QQ, ZZ_I: QQ_I}  # the fraction field of each integer domain


def _one(nvars: int, domain=QQ):
    """The one of the ring for (nvars, domain), built once with its ring.

    sympy only combines elements of one ring object; ``.new`` of this
    element makes further elements of it from a dict of nonzero coefficients.
    """
    key = (nvars, id(domain))  # a domain hashes slowly
    one = _ONES.get(key)
    if one is None:
        one = _ONES[key] = PolyRing([f"v{i}" for i in range(nvars)], domain, grlex).one
    return one


def _ring(nvars: int, domain=QQ) -> PolyRing:
    return _one(nvars, domain).ring


def _lc(element):
    """The graded-lex leading coefficient of a nonzero element."""
    if len(element) == 1:
        for c in element.values():
            return c
    return element[max(element, key=grlex)]


def _unit(c):
    """The power of i that takes a nonzero element of ZZ_I to the first quadrant.

    The same unit as ``ZZ_I.canonical_unit`` in sympy 1.14, computed from
    ``ZZ_I.units`` and ``quadrant`` directly.
    """
    return ZZ_I.units[-c.quadrant()]


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


def gaussian(element):
    """The element with its coefficients in the Gaussian domain: QQ_I, or ZZ_I for ZZ."""
    target = _GAUSSIAN.get(element.ring.domain)
    if target is None:
        return element
    return _ring(element.ring.ngens, target).from_dict(
        {m: target(c) for m, c in element.items()})


def _real(element):
    """A Gaussian element moved to QQ or ZZ, or None if some coefficient is not real."""
    if any(c.y for c in element.values()):
        return None
    domain = QQ if element.ring.domain is QQ_I else ZZ
    return _one(element.ring.ngens, domain).new({m: c.x for m, c in element.items()})


def _in_one_ring(first: "Polynomial", *rest: "Polynomial"):
    """The elements of the polynomials in one ring: the complex one if any is complex."""
    ring = first._element.ring
    elements = [first._element]
    for p in rest:
        if p._element.ring is not ring:
            return [gaussian(q._element) for q in (first, *rest)]
        elements.append(p._element)
    return elements


class Polynomial:
    """A sparse polynomial in ``nvars`` variables with exact field coefficients."""

    __slots__ = ("_element", "nvars")

    def __init__(self, terms: Mapping[Monomial, Scalar], nvars: int):
        ring = _ring(nvars, QQ_I if any(_is_complex(c) for c in terms.values()) else QQ)
        self._element = ring.from_dict(
            {tuple(m): _to_ground(c, ring.domain) for m, c in terms.items() if c})
        self.nvars = nvars

    @classmethod
    def _wrap(cls, element) -> "Polynomial":
        """A polynomial around a ring element, moved to QQ if no coefficient is complex."""
        if element.ring.domain is QQ_I:
            real = _real(element)
            if real is not None:
                element = real
        p = object.__new__(cls)
        p._element = element
        p.nvars = element.ring.ngens
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls._wrap(_ring(nvars).zero)

    @classmethod
    def constant(cls, value, nvars: int) -> "Polynomial":
        if value == 1:
            return cls._wrap(_ring(nvars).one)
        ring = _ring(nvars, QQ_I if _is_complex(value) else QQ)
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

    def __reduce__(self):
        # a sympy ring does not pickle (sympy 1.14), so rebuild from the terms
        return Polynomial, (dict(self.terms), self.nvars)

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
        element = gaussian(self._element) if _is_complex(scalar) else self._element
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
    """(gcd, a/gcd, b/gcd) from one sympy call, for primitive a and b: a constant is a unit."""
    if (a.is_ground and a) or (b.is_ground and b):
        return _one(a.ring.ngens, a.ring.domain), a, b
    return a.cofactors(b)


def _primitive(t):
    """(content, t / content) for a nonzero element of ZZ[x] or ZZ_I[x]."""
    if t.ring.domain is ZZ:
        k = math.gcd(*t.values())
        return k, (t if k == 1 else t.quo_ground(k))
    return t.primitive()


def _split(element):
    """(c, a) with element = c * a for a nonzero element of QQ[x] or QQ_I[x].

    c is in the field, and a is primitive in the integer ring with a
    canonical leading coefficient.  The denominators and the content are
    gathered with ``math.lcm``/``math.gcd`` over the coefficients, with no
    sympy denominator clearing or ring conversion.
    """
    nvars = element.ring.ngens
    if element.ring.domain is QQ:
        den = math.lcm(*[c.denominator for c in element.values()])
        num = math.gcd(*[c.numerator for c in element.values()])
        if _lc(element) < 0:
            num = -num
        return QQ(num, den), _one(nvars, ZZ).new(
            {m: c.numerator * (den // c.denominator) // num for m, c in element.items()})
    den = math.lcm(*[q.denominator for c in element.values() for q in (c.x, c.y)])
    k, a = _one(nvars, ZZ_I).new(
        {m: _gaussian_integer(c, den) for m, c in element.items()}).primitive()
    unit = _unit(_lc(a))
    return QQ_I.convert_from(k, ZZ_I) / unit / den, a.mul_ground(unit)


def _gaussian_integer(c, n: int):
    """n * c in ZZ_I, for c in QQ_I whose denominators divide n."""
    return ZZ_I(c.x.numerator * (n // c.x.denominator), c.y.numerator * (n // c.y.denominator))


def _as_ratio(r):
    """(p, q) with r = p/q for r in QQ or QQ_I: p in ZZ or ZZ_I and q the least positive int."""
    if isinstance(r, QQ_I.dtype):
        q = math.lcm(r.x.denominator, r.y.denominator)
        return _gaussian_integer(r, q), q
    return r.numerator, r.denominator


def _canonical(c, a, b):
    """The unique triple of c*a/b, for coprime primitive a != 0 and b.

    The units that make the leading coefficients of a and b canonical move
    into c, and a Gaussian triple with no imaginary part moves to ZZ.
    """
    if a.ring.domain is ZZ:
        if _lc(a) < 0:
            a, c = -a, -c
        if _lc(b) < 0:
            b, c = -b, -c
        return c, a, b
    ua, ub = _unit(_lc(a)), _unit(_lc(b))
    a, b, c = a.mul_ground(ua), b.mul_ground(ub), c * ub / ua
    if not c.y:
        real_a, real_b = _real(a), _real(b)
        if real_a is not None and real_b is not None:
            return c.x, real_a, real_b
    return c, a, b


def _lowest_terms(num: Polynomial, den: Polynomial):
    """The triple of num/den for a nonzero num and den: the one full gcd."""
    n, d = _in_one_ring(num, den)
    (c, a), (e, b) = _split(n), _split(d)
    _, a, b = _cofactors(a, b)
    return _canonical(c / e, a, b)


def _over_field(element, scale) -> Polynomial:
    """scale * element as a polynomial over QQ or QQ_I, built in one pass over the terms."""
    one = _one(element.ring.ngens, _FIELD[element.ring.domain])
    return Polynomial._wrap(one.new({m: scale * v for m, v in element.items()}))


# -- rational functions ----------------------------------------------------

_ZEROS: dict = {}  # the zero rational function in each number of variables


class RationalFunction:
    """A normalized quotient c * a / b: content c, coprime primitive integer a and b."""

    __slots__ = ("_c", "_a", "_b")

    def __init__(self, num: Polynomial, den: Polynomial | None = None):
        if den is not None and den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            zero = RationalFunction.zero(num.nvars)
            parts = zero._c, zero._a, zero._b
        elif den is None:
            c, a = _split(num._element)
            parts = c, a, _one(num.nvars, a.ring.domain)
        else:
            parts = _lowest_terms(num, den)
        self._c, self._a, self._b = parts

    @classmethod
    def _new(cls, c, a, b) -> "RationalFunction":
        """Wrap a triple that is already canonical."""
        f = object.__new__(cls)
        f._c, f._a, f._b = c, a, b
        return f

    @classmethod
    def _reduced(cls, c, a, b) -> "RationalFunction":
        """c*a/b for coprime primitive a and b != 0: only the units are normalized."""
        if not a:
            return cls.zero(a.ring.ngens)
        return cls._new(*_canonical(c, a, b))

    @classmethod
    def zero(cls, nvars: int) -> "RationalFunction":
        zero = _ZEROS.get(nvars)
        if zero is None:
            one = _one(nvars, ZZ)
            zero = _ZEROS[nvars] = cls._new(QQ.zero, one.ring.zero, one)
        return zero

    @classmethod
    def constant(cls, value, nvars: int) -> "RationalFunction":
        if not value:
            return cls.zero(nvars)
        one = _one(nvars, ZZ_I if _is_complex(value) else ZZ)
        return cls._new(_to_ground(value, _FIELD[one.ring.domain]), one, one)

    # -- the edge: numerator and denominator over the field -----------------

    @property
    def num(self) -> Polynomial:
        """The numerator over the field, for the monic denominator ``den``."""
        b = self._b
        return _over_field(self._a, self._c if b.is_ground else self._c / _lc(b))

    @property
    def den(self) -> Polynomial:
        """The denominator over the field, monic (1 for a polynomial)."""
        b = self._b
        if b.is_ground:
            return Polynomial.constant(1, b.ring.ngens)
        return _over_field(b, _FIELD[b.ring.domain].one / _lc(b))

    @property
    def nvars(self) -> int:
        return self._a.ring.ngens

    def is_zero(self) -> bool:
        return not self._a

    def is_polynomial(self) -> bool:
        return self._b.is_ground  # a canonical constant denominator is 1

    def __bool__(self):
        return bool(self._a)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # canonical triples: equal values never sit in different rings
        return (self._a.ring is o._a.ring and self._c == o._c
                and self._a == o._a and self._b == o._b)

    def __hash__(self):
        return hash((self._c, self._a, self._b))

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def __reduce__(self):
        return RationalFunction, (self.num, self.den)

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, Polynomial):
            return RationalFunction(other)
        if isinstance(other, (int, Fraction, GaussianRational)):
            return RationalFunction.constant(other, self.nvars)
        return None

    def _gaussian(self):
        """The triple with a and b in ZZ_I[x] and c in QQ_I."""
        if self._a.ring.domain is ZZ_I:
            return self._c, self._a, self._b
        return QQ_I(self._c), gaussian(self._a), gaussian(self._b)

    def _triples(self, other: "RationalFunction"):
        """The triples of self and other in one ring: the Gaussian one if either is."""
        if self._a.ring is other._a.ring:
            return (self._c, self._a, self._b), (other._c, other._a, other._b)
        return self._gaussian(), other._gaussian()

    # The arithmetic below is Henrici's (JACM 3, 1956; Knuth, TAOCP 2, 4.5.1):
    # both operands are already reduced, so each result is built from their
    # factors and a gcd is taken only where a common factor can remain.  Every
    # factor is a primitive integer polynomial, and so is every product of
    # them (Gauss's lemma, TAOCP 2, 4.6.1); contents stay in c.

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o._a:
            return self
        if not self._a:
            return o
        (k, a, b), (l, c, d) = self._triples(o)
        # with l/k = p/q over the integers, k*a/b + l*c/d = (k/q) * (q*a/b + p*c/d)
        p, q = _as_ratio(l / k)
        if q != 1:
            a = a.mul_ground(q)
        if p != 1:
            c = c.mul_ground(p)
        if b == d:  # both 1 when both are constant: then no gcd is taken
            t = a + c
            if not t:
                return RationalFunction.zero(self.nvars)
            h, t = _primitive(t)
            if not b.is_ground:
                _, t, b = _cofactors(t, b)
            return RationalFunction._reduced(k / q * h, t, b)
        g, b_g, d_g = _cofactors(b, d)
        # nonzero: the sum cancels only against the negation, whose denominator is b
        h, t = _primitive(a * d_g + c * b_g)
        if g.is_ground:  # coprime denominators; g may be a unit other than 1
            return RationalFunction._reduced(k / q * h, t, b * d_g)
        # t is coprime to b/g and to d/g, so a common factor of t and the
        # denominator b*d/g can only lie in g
        _, t, g = _cofactors(t, g)
        return RationalFunction._reduced(k / q * h, t, b_g * g * d_g)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._new(-self._c, self._a, self._b)

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
        if not self._a or not o._a:
            return RationalFunction.zero(self.nvars)
        (k, a, b), (l, c, d) = self._triples(o)
        # a/b and c/d are reduced, so only a with d and c with b can share factors
        _, a, d = _cofactors(a, d)
        _, c, b = _cofactors(c, b)
        return RationalFunction._reduced(k * l, a * c, b * d)

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
        # the swapped pair is as canonical as the pair itself
        return RationalFunction._new(1 / self._c, self._b, self._a)

    def derivative(self, index: int) -> "RationalFunction":
        """Partial derivative by the quotient rule, reduced by a gcd with a factor of b only."""
        if not 1 <= index <= self.nvars:
            raise IndexError(f"variable index {index} out of range 1..{self.nvars}")
        k, a, b = self._c, self._a, self._b
        x = a.ring.gens[index - 1]
        da = a.diff(x)
        if b.is_ground:
            if not da:
                return RationalFunction.zero(self.nvars)
            h, da = _primitive(da)
            return RationalFunction._reduced(k * h, da, b)
        # With g = gcd(b, db), d(a/b) = t / (b * (b/g)) for t = da*(b/g) - a*(db/g).
        # A prime factor of b that involves x_index, of multiplicity e, has
        # multiplicity e - 1 in db and in g (characteristic 0), so it divides
        # b/g once and db/g not at all; since it does not divide a either, it
        # does not divide t.  A prime factor free of x_index keeps its full
        # multiplicity in g, so it does not divide b/g.  Hence gcd(t, g) is
        # the whole common factor.  When db = 0, g = b up to a unit and this
        # is gcd(da, b): d/dx((x*y + 1)/y) = y/y = 1.
        g, b_g, db_g = _cofactors(b, b.diff(x))
        t = da * b_g - a * db_g
        if not t:
            return RationalFunction.zero(self.nvars)
        h, t = _primitive(t)
        _, t, g = _cofactors(t, g)
        return RationalFunction._reduced(k * h, t, g * b_g * b_g)

    def evaluate(self, point: Sequence[Scalar]) -> Scalar:
        den_value = self.den.evaluate(point)
        if not den_value:
            raise EvaluationAtPole(f"denominator vanishes at {format_point(point)}")
        return self.num.evaluate(point) / den_value


def common_denominator(rs: Iterable[RationalFunction], nvars: int) -> Polynomial:
    """A monic polynomial w with w*r polynomial for every r: the lcm of denominators."""
    w = None
    seen = set()
    for r in rs:
        b = r._b
        # a constant denominator is 1, and a repeated one already divides w
        if b.is_ground or b in seen:
            continue
        seen.add(b)
        if w is None:
            w = b
            continue
        if w.ring is not b.ring:
            w, b = gaussian(w), gaussian(b)
        w = w * _cofactors(w, b)[2]
    if w is None:
        return Polynomial.constant(1, nvars)
    return monic_polynomial(w)


# -- the integer edge, for fraction-free callers ------------------------------
#
# A fraction-free computation holds integer-ring elements (ZZ[x], or ZZ_I[x]
# in complex mode) of the graded-lex rings above and works on them with the
# sympy ring methods.  These functions take rational functions into that form
# and back.


def integer_pair(r: RationalFunction):
    """(num, den) in the integer ring of a nonzero r, with r = num / den."""
    p, q = _as_ratio(r._c)
    a, b = r._a, r._b
    return (a if p == 1 else a.mul_ground(p)), (b if q == 1 else b.mul_ground(q))


def integer_ratio(num, den) -> RationalFunction:
    """num / den in lowest terms, for elements of one integer ring and den != 0."""
    if not num:
        return RationalFunction.zero(num.ring.ngens)
    k, a = _primitive(num)
    if den.is_ground:
        e, b = _lc(den), _one(den.ring.ngens, den.ring.domain)
    else:
        e, b = _primitive(den)
        _, a, b = _cofactors(a, b)
    if a.ring.domain is ZZ:
        return RationalFunction._reduced(QQ(k, e), a, b)
    return RationalFunction._reduced(
        QQ_I.convert_from(k, ZZ_I) / QQ_I.convert_from(e, ZZ_I), a, b)


def monic_polynomial(element) -> Polynomial:
    """A nonzero integer-ring element divided by its leading coefficient, over the field."""
    if element.is_ground:
        return Polynomial.constant(1, element.ring.ngens)
    return _over_field(element, _FIELD[element.ring.domain].one / _lc(element))
