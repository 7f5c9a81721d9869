"""Sparse multivariate polynomials and normalized rational functions over Q or Q(i).

Polynomials are stored as maps from exponent tuples to nonzero scalars, so
structurally equal values are mathematically equal.  Rational functions keep a
gcd-reduced numerator/denominator pair with a monic denominator (graded-lex
leading coefficient 1), which makes equality testing and witness extraction
canonical.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Tuple

from .errors import EvaluationAtPole
from .scalars import GaussianRational, Scalar, format_point, scalar_inverse

Monomial = Tuple[int, ...]


def _grlex_key(mono: Monomial):
    return (sum(mono), mono)


class Polynomial:
    """A sparse polynomial in ``nvars`` variables with exact field coefficients."""

    __slots__ = ("terms", "nvars")

    def __init__(self, terms: Mapping[Monomial, Scalar], nvars: int):
        self.terms = {m: c for m, c in terms.items() if c}
        self.nvars = nvars

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls({}, nvars)

    @classmethod
    def constant(cls, value, nvars: int) -> "Polynomial":
        if isinstance(value, int):
            value = Fraction(value)
        return cls({(0,) * nvars: value}, nvars)

    @classmethod
    def variable(cls, index: int, nvars: int) -> "Polynomial":
        """The polynomial x_index, with index in 1..nvars."""
        if not 1 <= index <= nvars:
            raise IndexError(f"variable index {index} out of range 1..{nvars}")
        mono = tuple(1 if j == index - 1 else 0 for j in range(nvars))
        return cls({mono: Fraction(1)}, nvars)

    @classmethod
    def monomial(cls, mono: Monomial, coeff, nvars: int) -> "Polynomial":
        if isinstance(coeff, int):
            coeff = Fraction(coeff)
        return cls({tuple(mono): coeff}, nvars)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def constant_value(self) -> Scalar:
        if self.is_zero():
            return Fraction(0)
        return self.terms[(0,) * self.nvars]

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def leading_monomial(self) -> Monomial:
        return max(self.terms, key=_grlex_key)

    def leading_coefficient(self) -> Scalar:
        return self.terms[self.leading_monomial()]

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self == Polynomial.constant(other, self.nvars)
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Polynomial({self.terms!r}, nvars={self.nvars})"

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
        terms = dict(self.terms)
        for m, c in o.terms.items():
            s = terms.get(m, 0) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return Polynomial(terms, self.nvars)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial({m: -c for m, c in self.terms.items()}, self.nvars)

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
        if self.nvars and len(self.terms) * len(o.terms) >= 100:
            complex_mode = _has_complex_coeff(self) or _has_complex_coeff(o)
            R = _ring(self.nvars, complex_mode)
            product = _to_ring(self, R, complex_mode) * _to_ring(o, R, complex_mode)
            return _from_ring(product, self.nvars, complex_mode)
        terms: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in o.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                s = terms.get(m, 0) + c1 * c2
                if s:
                    terms[m] = s
                else:
                    terms.pop(m, None)
        return Polynomial(terms, self.nvars)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.constant(1, self.nvars)
        for _ in range(exponent):
            result = result * self
        return result

    def scale(self, scalar) -> "Polynomial":
        if not scalar:
            return Polynomial.zero(self.nvars)
        return Polynomial({m: c * scalar for m, c in self.terms.items()}, self.nvars)

    def monic(self) -> "Polynomial":
        """Divide by the graded-lex leading coefficient."""
        if self.is_zero():
            return self
        return self.scale(scalar_inverse(self.leading_coefficient()))

    # -- calculus ----------------------------------------------------------

    def derivative(self, index: int) -> "Polynomial":
        """Partial derivative with respect to x_index (1-based)."""
        if not 1 <= index <= self.nvars:
            raise IndexError(f"variable index {index} out of range 1..{self.nvars}")
        j = index - 1
        terms = {}
        for m, c in self.terms.items():
            if m[j] == 0:
                continue
            dm = m[:j] + (m[j] - 1,) + m[j + 1:]
            terms[dm] = terms.get(dm, 0) + c * m[j]
        return Polynomial(terms, self.nvars)

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
        if self.nvars and len(self.terms) + len(divisor.terms) >= 30:
            complex_mode = _has_complex_coeff(self) or _has_complex_coeff(divisor)
            R = _ring(self.nvars, complex_mode)
            q, r = _to_ring(self, R, complex_mode).div(
                _to_ring(divisor, R, complex_mode))
            if r:
                raise ValueError("inexact polynomial division")
            return _from_ring(q, self.nvars, complex_mode)
        remainder = self
        quotient = Polynomial.zero(self.nvars)
        dm = divisor.leading_monomial()
        dc = divisor.leading_coefficient()
        while remainder:
            rm = remainder.leading_monomial()
            if any(a < b for a, b in zip(rm, dm)):
                raise ValueError("inexact polynomial division")
            qm = tuple(a - b for a, b in zip(rm, dm))
            qc = remainder.terms[rm] / dc
            term = Polynomial.monomial(qm, qc, self.nvars)
            quotient = quotient + term
            remainder = remainder - term * divisor
        return quotient


# -- gcd machinery ---------------------------------------------------------
#
# The gcd is the one operation where naive school-book algorithms blow up
# (pseudo-remainder coefficient growth), so after cheap structural fast paths
# the general case is handed to sympy's sparse polynomial rings.

_RING_CACHE: dict = {}


def _ring(nvars: int, complex_mode: bool):
    from sympy.polys import ring
    from sympy.polys.domains import QQ, QQ_I

    key = (nvars, complex_mode)
    if key not in _RING_CACHE:
        names = ",".join(f"v{i}" for i in range(nvars))
        _RING_CACHE[key] = ring(names, QQ_I if complex_mode else QQ)[0]
    return _RING_CACHE[key]


def _has_complex_coeff(p: Polynomial) -> bool:
    return any(isinstance(c, GaussianRational) for c in p.terms.values())


def _to_ring(p: Polynomial, R, complex_mode: bool):
    coeffs = {}
    for mono, c in p.terms.items():
        if complex_mode:
            if not isinstance(c, GaussianRational):
                c = GaussianRational(c)
            from sympy.polys.domains import QQ

            coeffs[mono] = R.domain(
                QQ(c.re.numerator, c.re.denominator),
                QQ(c.im.numerator, c.im.denominator),
            )
        else:
            coeffs[mono] = R.domain(c.numerator, c.denominator)
    return R.from_dict(coeffs)


def _from_ring(element, nvars: int, complex_mode: bool) -> Polynomial:
    terms = {}
    for mono, c in element.to_dict().items():
        if complex_mode:
            terms[tuple(mono)] = GaussianRational(
                Fraction(int(c.x.numerator), int(c.x.denominator)),
                Fraction(int(c.y.numerator), int(c.y.denominator)),
            )
        else:
            terms[tuple(mono)] = Fraction(int(c.numerator), int(c.denominator))
    return Polynomial(terms, nvars)


def _monomial_content(p: Polynomial) -> Monomial:
    it = iter(p.terms)
    content = list(next(it))
    for mono in it:
        for j, e in enumerate(mono):
            if e < content[j]:
                content[j] = e
    return tuple(content)


def _shift_down(p: Polynomial, mono: Monomial) -> Polynomial:
    if not any(mono):
        return p
    return Polynomial(
        {tuple(a - b for a, b in zip(m, mono)): c for m, c in p.terms.items()},
        p.nvars,
    )


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd over the coefficient field (graded-lex leading coefficient 1)."""
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    one = Polynomial.constant(1, f.nvars)
    if f.is_constant() or g.is_constant():
        return one
    mf, mg = _monomial_content(f), _monomial_content(g)
    shared = tuple(min(a, b) for a, b in zip(mf, mg))
    core_f, core_g = _shift_down(f, mf), _shift_down(g, mg)
    if len(core_f.terms) == 1 or len(core_g.terms) == 1:
        return Polynomial.monomial(shared, 1, f.nvars)
    complex_mode = _has_complex_coeff(core_f) or _has_complex_coeff(core_g)
    R = _ring(f.nvars, complex_mode)
    core = _from_ring(
        _to_ring(core_f, R, complex_mode).gcd(_to_ring(core_g, R, complex_mode)),
        f.nvars, complex_mode,
    )
    return (core * Polynomial.monomial(shared, 1, f.nvars)).monic()


def poly_lcm(f: Polynomial, g: Polynomial) -> Polynomial:
    if f.is_zero() or g.is_zero():
        return Polynomial.zero(f.nvars)
    return (f * g).exact_div(poly_gcd(f, g)).monic()


def _reduce_fraction(num: Polynomial, den: Polynomial):
    """The pair (num, den) with their gcd divided out; one conversion round-trip."""
    if num.is_zero() or num.is_constant() or den.is_constant():
        return num, den
    mn, md = _monomial_content(num), _monomial_content(den)
    shared = tuple(min(a, b) for a, b in zip(mn, md))
    if any(shared):
        num, den = _shift_down(num, shared), _shift_down(den, shared)
    if len(num.terms) == 1 or len(den.terms) == 1:
        # monomial contents are now disjoint, so nothing further divides both
        return num, den
    complex_mode = _has_complex_coeff(num) or _has_complex_coeff(den)
    R = _ring(num.nvars, complex_mode)
    nr = _to_ring(num, R, complex_mode)
    dr = _to_ring(den, R, complex_mode)
    g = nr.gcd(dr)
    if g != R.one:
        num = _from_ring(nr.quo(g), num.nvars, complex_mode)
        den = _from_ring(dr.quo(g), den.nvars, complex_mode)
    return num, den


# -- rational functions ----------------------------------------------------


class RationalFunction:
    """A normalized quotient of polynomials: reduced, with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial | None = None):
        if den is None:
            den = Polynomial.constant(1, num.nvars)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            den = Polynomial.constant(1, num.nvars)
        else:
            num, den = _reduce_fraction(num, den)
            lc = den.leading_coefficient()
            if lc != 1:
                inv = scalar_inverse(lc)
                num = num.scale(inv)
                den = den.scale(inv)
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
    def zero(cls, nvars: int) -> "RationalFunction":
        return cls(Polynomial.zero(nvars))

    @classmethod
    def constant(cls, value, nvars: int) -> "RationalFunction":
        return cls(Polynomial.constant(value, nvars))

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> "RationalFunction":
        return cls(p)

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den == 1

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

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(self.num * o.den + o.num * self.den, self.den * o.den)

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
        return RationalFunction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def inverse(self) -> "RationalFunction":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        return RationalFunction(self.den, self.num)

    def derivative(self, index: int) -> "RationalFunction":
        """Partial derivative via the quotient rule, renormalized."""
        dn = self.num.derivative(index)
        dd = self.den.derivative(index)
        return RationalFunction(dn * self.den - self.num * dd, self.den * self.den)

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
