"""Sparse multivariate polynomials and normalized rational functions over Q or Q(i).

A rational function holds ``c * a / b``: a content ``c`` in the field (``QQ``,
or ``QQ_I`` for a value with imaginary parts) and coprime ``a`` and ``b`` in
the integer ring (``ZZ``, or ``ZZ_I``), each primitive and with a canonical
leading coefficient (positive over ``ZZ``, in the first quadrant over
``ZZ_I``).  In one variable over ``ZZ``, the ring of every real univariate
value, ``a`` and ``b`` are ``CoefficientList``s, tuples of coefficients with
their own dense arithmetic, since there sympy's cost of building each small
``PolyElement`` rivals the arithmetic; in more variables, or over ``ZZ_I``,
they are elements of sympy's sparse polynomial rings in graded-lex order.
The ring alone makes that choice, never the size, and the two kinds answer
one interface, so the arithmetic below is written once.  This form is
unique, so equality and hashing compare the triple; a Gaussian result whose
imaginary parts cancel moves back to ``ZZ``.  By Gauss's lemma a product of
primitive polynomials is primitive, so the arithmetic runs on integer
polynomials and never clears denominators.  It keeps its operands reduced
and, after Henrici, takes gcds only of the small factors where a common
factor can remain, never of the full cross products.  Every gcd goes through
one kernel, ``gcd_cofactors``: a zero, constant, equal or monomial operand
is answered without a sympy call; a pair of coefficient lists, and a pair of
sympy elements of ``ZZ`` in two or more variables (packed at powers of one
xi), take one heuristic gcd on packed Python integers, certified by exact
products; and a Gaussian pair, and the few pairs that the packed kernels
give back, go to sympy's dense gcd.

A polynomial is the ``b = 1`` case of the triple: ``Polynomial`` is the
subclass of ``RationalFunction`` that ``RationalFunction._new`` picks for
every triple with b = 1, so any operation that yields a polynomial yields a
``Polynomial``, and ``RationalFunction(p)`` is p.  Coefficients cross the
module's edge as ``Fraction``, or as ``GaussianRational`` for every
coefficient of a polynomial with some imaginary part.  The constructor
gathers ``c`` and ``a`` from them with ``math.lcm``/``math.gcd``, and
``terms`` multiplies them back out.  ``num`` and ``den`` (monic: graded-lex
leading coefficient 1) wrap the factors of the triple without rebuilding
them; only a real factor of a Gaussian value is moved back to ``ZZ``.
Fraction-free callers, such as the witness lift, cross
a second edge: ``integer_pair`` and ``integer_polynomials`` hand out a
numerator and denominator in the integer ring, of the triple's own kind,
``gcd_cofactors`` takes their gcds and, as its cofactors, every quotient they
need, and ``integer_ratio`` and ``monic_polynomial`` take integer-ring
results back; the callers run one code on either kind and never test which
they hold.  One conversion between the kinds remains, ``_sparse``: the
public ``closure.verify_witness`` multiplies on sympy's sparse rows, so that
it shares no arithmetic with the lift.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import chain, product
from operator import add, mul, sub
from types import MappingProxyType
from typing import Mapping, Sequence, Tuple

from sympy.polys.domains import QQ, QQ_I, ZZ, ZZ_I
from sympy.polys.euclidtools import dmp_inner_gcd
from sympy.polys.orderings import grlex
from sympy.polys.rings import PolyRing

from .errors import EvaluationAtPole, InvalidInput
from .scalars import GaussianRational, Scalar, format_point

Monomial = Tuple[int, ...]

_ONES: dict = {}  # the ring's one by (nvars, id(domain)): the CoefficientList one for (1, ZZ)
_FIELD = {ZZ: QQ, ZZ_I: QQ_I}  # the fraction field of each integer domain
_INTEGER = ZZ.dtype  # int, or gmpy2's mpz under its ground types
_REAL = {int, Fraction}  # coefficient types of a real polynomial
# n/d in QQ for coprime n and d > 0: sympy's PythonMPQ skips its gcd this way
_content = getattr(QQ.dtype, "_new", QQ.dtype)


def _one(nvars: int, domain=ZZ):
    """The one of the ring for (nvars, domain), built once with its ring.

    In one variable over ZZ it is the ``CoefficientList`` one; otherwise
    sympy's, and sympy only combines elements of one ring object.  ``.new``
    of this element makes further elements of its ring from a dict of
    nonzero coefficients.
    """
    key = (nvars, id(domain))  # a domain hashes slowly
    one = _ONES.get(key)
    if one is None:
        one = _ONES[key] = PolyRing([f"v{i}" for i in range(nvars)], domain, grlex).one
    return one


def _lc(element):
    """The graded-lex leading coefficient of a nonzero element, term dict or CoefficientList."""
    if type(element) is CoefficientList:
        return element[-1]
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


def _checked(value):
    """An int or Fraction as it is, and a GaussianRational with no imaginary part as a Fraction.

    Raises TypeError for any other type.
    """
    if isinstance(value, GaussianRational):
        return value if value.im else value.re
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError(f"coefficient of type {type(value).__name__}: "
                    "expected int, Fraction or GaussianRational")


def _ground(value):
    """An int, Fraction or GaussianRational in QQ, or in QQ_I if it is not real."""
    value = _checked(value)
    if isinstance(value, GaussianRational):
        return QQ_I(_ground(value.re), _ground(value.im))
    return QQ(value.numerator, value.denominator)


def _fraction(c) -> Fraction:
    return Fraction(int(c.numerator), int(c.denominator))


def _scalar(c, domain) -> Scalar:
    """An element of the field of the integer domain as a Fraction or GaussianRational."""
    if domain is ZZ:
        return _fraction(c)
    return GaussianRational(_fraction(c.x), _fraction(c.y))


def gaussian(element):
    """The element with its coefficients in ZZ_I (unchanged if they are already)."""
    if element.ring.domain is ZZ_I:
        return element
    return _one(element.ring.ngens, ZZ_I).new({m: ZZ_I(c) for m, c in element.items()})


def _real(element):
    """An element of ZZ_I[x] moved to ZZ[x], or None if some coefficient is not real."""
    if any(c.y for c in element.values()):
        return None
    return _one(element.ring.ngens).new({m: c.x for m, c in element.items()})


def _split(terms: Mapping[Monomial, Scalar], nvars: int):
    """(c, a) with c * a the polynomial with these terms (a = 0 if none is nonzero).

    c is in the field, and a is primitive in the integer ring (``ZZ_I`` when
    some coefficient is not real) with a canonical leading coefficient.  The
    denominators and the content are gathered with ``math.lcm``/``math.gcd``
    over the coefficients.  An exponent that is not ``nvars`` nonnegative
    integers raises InvalidInput, and a coefficient of another type than int,
    Fraction or GaussianRational raises TypeError.
    """
    complex_mode = False
    if not set(map(type, terms.values())) <= _REAL:
        terms = {m: _checked(v) for m, v in terms.items()}
        complex_mode = any(isinstance(v, GaussianRational) for v in terms.values())
    coefficients = {}
    for m, v in terms.items():
        if len(m) != nvars or (nvars and min(m) < 0):
            raise InvalidInput(f"exponent {m} is not {nvars} nonnegative integers")
        if v:
            coefficients[m] = v
    if complex_mode:
        return _split_gaussian(coefficients, nvars)
    if not coefficients:
        return QQ.zero, _one(nvars).ring.zero
    if len(coefficients) == 1:  # a monomial: c is its coefficient
        ((m, v),) = coefficients.items()
        return _content(v.numerator, v.denominator), _one(nvars).new({m: _INTEGER(1)})
    values = coefficients.values()
    den = math.lcm(*[v.denominator for v in values])
    num = math.gcd(*[v.numerator for v in values])
    if _lc(coefficients) < 0:
        num = -num
    return _content(num, den), _one(nvars).new(
        {m: _INTEGER(v.numerator * (den // v.denominator) // num) for m, v in coefficients.items()})


def _split_gaussian(coefficients, nvars: int):
    """The (c, a) of ``_split`` for nonzero coefficients of which some are not real."""
    parts = {m: (v.re, v.im) if isinstance(v, GaussianRational) else (v, 0)
             for m, v in coefficients.items()}
    den = math.lcm(*[q.denominator for pair in parts.values() for q in pair])
    k, a = _one(nvars, ZZ_I).new(
        {m: ZZ_I(int(re * den), int(im * den)) for m, (re, im) in parts.items()}).primitive()
    unit = _unit(_lc(a))
    return QQ_I.convert_from(k, ZZ_I) / unit / den, a.mul_ground(unit)


def gcd_cofactors(a, b):
    """(g, a/g, b/g) for g a gcd of a and b, fixed up to a unit.

    The one gcd kernel: every gcd the library takes comes here.  a and b are
    elements of one integer ring, ZZ[x] or ZZ_I[x], not both zero; they need
    not be primitive, and g carries the gcd of their contents.  The results
    are of the operands' kind: ``CoefficientList``s in one variable over ZZ,
    and sympy elements of their ring otherwise.  A caller that needs
    the canonical form normalizes g itself (``_canonical``).  The kernel is
    chosen by the ring and the operands' shape, and in two or more variables
    by one measured size rule:

    - a zero, a constant or a monomial operand, and equal operands, take no
      gcd at all: the gcd with a constant or a monomial is c * x^mu, for c
      the gcd of all the coefficients and mu the componentwise minimum of
      all the exponents;
    - a pair of ``CoefficientList``s goes to ``_packed_gcd``, which divides
      out the contents and hands the primitive parts to ``_image_gcd``, the
      heuristic gcd of Char, Geddes and Gonnet (GCDHEU, JSC 1989) on Python
      integers: each part is packed into one integer by evaluating it at xi,
      and the gcd of the two integers is unpacked into balanced xi-adic
      digits, or else either part is divided by its unpacked quotient by that
      gcd.  With xi >= 2 * min(|f|, |g|) + 2 (max-norms of the primitive
      parts) on every try, a primitive candidate that divides both parts is
      their gcd.  Both cofactors come from the integer quotients, and the
      triple is certified by the exact products h * (f/h) = f and
      h * (g/h) = g, compared on packed integers; no polynomial division is
      tried.  A try that fails is retried with a larger xi, and after
      ``_PACKED_TRIES`` failures the pair falls back to sympy;
    - a pair of sympy elements of ZZ[x1, ..., xn], n >= 2, goes to
      ``_kronecker_gcd``: the same ``_image_gcd`` on the images under
      x_i -> t^(w_i), a Kronecker substitution (von zur Gathen and Gerhard,
      *Modern Computer Algebra*, ch. 8), with per-variable degree bounds as
      weights, so each image is evaluated at a power of one xi.  It gives a
      pair back to sympy when the images share a factor that the operands
      do not (t - 1 for x1 - 1 and x2 - 1; powers of t it divides out), and
      when the images would pack, at the larger operand's xi, into more than
      ``_PACKED_BITS`` bits, where sympy's gcd is faster;
    - any other pair (ZZ_I, or a caller's own sympy elements of ZZ[x] in one
      variable) goes to sympy's dense gcd, whose heuristic gcd over ZZ beat
      the sparse one on every class of input the completion and the lift
      produce (1.15x on multivariate pairs from random membership problems;
      3x on pairs of over 100 terms in a slow completion).  Over ZZ_I sympy's
      sparse gcd is this dense gcd as well.
    """
    if type(a) is CoefficientList:
        return _list_gcd(a, b)
    ring = a.ring
    if not b:
        return a, _one_of(ring), b
    if not a:
        return b, a, _one_of(ring)
    if len(a) == 1 or len(b) == 1:
        c = _coefficient_gcd(a, b) if len(a) <= len(b) else _coefficient_gcd(b, a)
        zero = ring.zero_monom
        mu = zero if zero in a or zero in b else tuple(map(min, *a.keys(), *b.keys()))
        if c == ring.domain.one and mu == zero:
            return _one_of(ring), a, b
        return a.new({mu: c}), _divided(a, mu, c), _divided(b, mu, c)
    if a == b:
        one = _one_of(ring)
        return a, one, one
    if ring.domain is ZZ and ring.ngens > 1:
        found = _kronecker_gcd(a, b)
        if found is not None:
            return found
    return tuple(map(ring.from_dense, dmp_inner_gcd(
        a.to_dense(), b.to_dense(), ring.ngens - 1, ring.domain)))


# -- coefficient lists: ZZ[x] in one variable without sympy's per-call cost ----


class CoefficientList(tuple):
    """An element of ZZ[x] in one variable: its coefficients, constant term first.

    The list has no trailing zeros, so zero is the empty list, and its
    coefficients are of ZZ's dtype (``int``, or gmpy2's ``mpz``).  It is
    every element of ZZ[x] in one variable that this module makes: the
    ``a`` and ``b`` of every real univariate ``RationalFunction`` and
    ``Polynomial``, and so the integer rows of the witness lift
    (``riquier``) and of the internal check (``closure._identity_holds``).
    There sympy's cost of building a ``PolyElement`` for every small product
    rivals the arithmetic.  It answers the part of the ``PolyElement``
    interface that this module and those callers use (``+``, ``-``, ``*``,
    ``==`` with a row or an integer, ``diff``, ``mul_ground``, ``items``,
    ``get``, ``new``, ``is_ground``, ``LC`` and ``ring``), so they run one
    code on either kind of element; ``gcd_cofactors`` takes it as it is,
    and ``_power`` raises either to a power.  A product skips the zero
    coefficients of both factors, so it costs terms x terms, never degree x
    degree, and a factor of one term is a shifted scalar multiple.
    """

    __slots__ = ()
    ring: "_ListRing"  # set below

    def __repr__(self):
        return f"CoefficientList({list(self)!r})"

    def __eq__(self, other):
        if type(other) is CoefficientList:
            return tuple.__eq__(self, other)
        if isinstance(other, (int, _INTEGER)):  # a constant, as sympy compares one
            return len(self) == 1 and self[0] == other if other else not self
        return NotImplemented

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = tuple.__hash__

    @property
    def is_ground(self) -> bool:
        return len(self) <= 1

    @property
    def LC(self):
        return self[-1] if self else _NIL

    def items(self):
        """The nonzero terms as ((exponent,), coefficient) pairs, lowest first."""
        return [((e,), v) for e, v in enumerate(self) if v]

    def get(self, monomial, default=None):
        """The coefficient of x^e for monomial (e,), or default if it is zero."""
        (e,) = monomial
        return self[e] if e < len(self) and self[e] else default

    def new(self, terms):
        """The CoefficientList of a dict of nonzero coefficients keyed by (exponent,)."""
        if not terms:
            return _LIST_ZERO
        out = [_NIL] * (max(terms)[0] + 1)
        for (e,), v in terms.items():
            out[e] = v
        return CoefficientList(out)

    def __neg__(self):
        return CoefficientList([-v for v in self])

    def __add__(self, other):
        if type(other) is not CoefficientList:
            return NotImplemented
        if len(self) < len(other):
            self, other = other, self
        out = list(self)
        for i, v in enumerate(other):
            if v:
                out[i] += v
        return _trimmed(out)

    def __sub__(self, other):
        if type(other) is not CoefficientList:
            return NotImplemented
        if len(self) >= len(other):
            out = list(self)
            for i, v in enumerate(other):
                if v:
                    out[i] -= v
        else:
            out = [-v for v in other]
            for i, v in enumerate(self):
                if v:
                    out[i] += v
        return _trimmed(out)

    def __mul__(self, other):
        if type(other) is not CoefficientList:
            return NotImplemented
        if len(other) > len(self):
            self, other = other, self
        if len(other) <= 1:  # zero, or a constant c
            if not other:
                return _LIST_ZERO
            c = other[0]
            return self if c == 1 else CoefficientList([c * v if v else v for v in self])
        # the nonzero terms only: a sparse factor costs its terms, not its degree
        terms = [(j, v) for j, v in enumerate(other) if v]
        if len(terms) == 1:  # c x^j: self shifted by j and scaled by c
            ((j, c),) = terms
            return CoefficientList([_NIL] * j + (list(self) if c == 1 else
                                                 [c * v if v else v for v in self]))
        out = [_NIL] * (len(self) + len(other) - 1)
        for i, c in enumerate(self):
            if c:
                for j, v in terms:
                    out[i + j] += c * v
        # the product of the two leading coefficients is the nonzero last one
        return CoefficientList(out)

    def mul_ground(self, k):
        """k times the element, for an integer k."""
        if not k:
            return _LIST_ZERO
        return self if k == 1 else CoefficientList([v * k if v else v for v in self])

    def diff(self, x=None):
        """The derivative; x, the one generator, may be given as for a sympy element."""
        return CoefficientList([self[e] * e for e in range(1, len(self))])


def _trimmed(out):
    """The CoefficientList of a list of coefficients, its trailing zeros dropped."""
    while out and not out[-1]:
        out.pop()
    return CoefficientList(out)


class _ListRing:
    """ZZ[x] for ``CoefficientList``: the attributes of sympy's PolyRing that its callers read."""

    ngens = 1
    domain = ZZ
    zero_monom = (0,)

    def __init__(self):
        self.zero = CoefficientList(())
        self.one = CoefficientList((_INTEGER(1),))
        self.gens = (CoefficientList((_NIL, _INTEGER(1))),)

    def ground_new(self, c):
        return CoefficientList((c,) if c else ())


_NIL = _INTEGER(0)
CoefficientList.ring = _LISTS = _ListRing()
_LIST_ZERO, _LIST_ONE = _LISTS.zero, _LISTS.one
_ONES[1, id(ZZ)] = _LIST_ONE


def _listed(values, k=1):
    """The CoefficientList of k times these coefficients, each of ZZ's dtype.

    ``math.gcd`` and the packed kernel's digits are Python ints, so under
    gmpy2's ground types their results are converted here.
    """
    if k != 1:
        values = [k * v for v in values]
    if _INTEGER is not int:
        values = [_INTEGER(v) for v in values]
    return CoefficientList(values)


@functools.lru_cache(maxsize=None)
def _sparse_one():
    """The one of sympy's sparse ZZ[x] in one variable."""
    return PolyRing(["v0"], ZZ, grlex).one


def _sparse(a):
    """A CoefficientList as an element of sympy's sparse ZZ[x]; any other element as it is.

    The one conversion between the two kinds: ``verify_witness`` multiplies
    on sympy's rows, so that it shares no arithmetic with the lift.
    """
    return _sparse_one().new(dict(a.items())) if type(a) is CoefficientList else a


def _list_gcd(a, b):
    """gcd_cofactors of two CoefficientLists."""
    if not b:
        return a, _LIST_ONE, b
    if not a:
        return b, a, _LIST_ONE
    if len(a) - a.count(0) == 1 or len(b) - b.count(0) == 1:  # a monomial or a constant
        c = _INTEGER(math.gcd(*a, *b))
        mu = min(_lowest(a), _lowest(b))
        if c == 1 and not mu:
            return _LIST_ONE, a, b
        return (CoefficientList([_NIL] * mu + [c]), CoefficientList([v // c for v in a[mu:]]),
                CoefficientList([v // c for v in b[mu:]]))
    if a == b:
        return a, _LIST_ONE, _LIST_ONE
    found = _packed_gcd(a, b)
    if found is not None:
        return found
    # sympy's dense lists run from the highest degree down
    return tuple(CoefficientList(v[::-1]) for v in dmp_inner_gcd(
        list(reversed(a)), list(reversed(b)), 0, ZZ))


def _lowest(a):
    """The exponent of the lowest nonzero term of a nonzero CoefficientList."""
    for e, v in enumerate(a):
        if v:
            return e


# GCDHEU's tries before the fallback to sympy, six as in sympy's own heuristic
# gcd: when the two cofactors share a fixed divisor, as x^2 (x - 1)^2 and an
# even polynomial do at every integer, the integer gcd carries it, and only a
# larger xi gives its digits room (the sixth, for a pair of decide's)
_PACKED_TRIES = 6
_PACKED_BITS = 2 ** 15  # the largest packed image of a pair in two or more variables


def _packed_gcd(f, g):
    """(h, f/h, g/h) as CoefficientLists for coefficient lists f, g of two or more terms, or None.

    The contents are divided out, and their gcd multiplies h; ``_image_gcd``
    takes the gcd of the primitive parts.  Coprime operands with content 1
    come back as they are, f and g themselves, with h = 1.
    """
    f_content, g_content = math.gcd(*f), math.gcd(*g)
    content = math.gcd(f_content, g_content)
    f_part = f if f_content == 1 else [v // f_content for v in f]
    g_part = g if g_content == 1 else [v // g_content for v in g]
    found = _image_gcd(f_part, g_part, max(map(abs, f_part)), max(map(abs, g_part)))
    if found is None:
        return None
    h, f_quotient, g_quotient = found
    if len(h) == 1 and content == 1:
        return _LIST_ONE, f, g
    return (_listed(h, content), _listed(f_quotient, f_content // content),
            _listed(g_quotient, g_content // content))


def _image_gcd(f, g, f_norm, g_norm):
    """(h, f/h, g/h) as coefficient lists for primitive f and g of two or more terms, or None.

    The heuristic gcd of Char, Geddes and Gonnet (GCDHEU, JSC 1989) on
    Python integers: f and g are packed into one integer each by evaluating
    them at xi, and the gcd gamma of the two integers gives three candidates
    in turn: the primitive part of gamma unpacked into balanced xi-adic
    digits; f divided by the unpacked f(xi)/gamma; and g divided by the
    unpacked g(xi)/gamma.  The last two find h when its digits do not fit
    xi but a cofactor's do.  Every quotient comes from integers
    (``_cofactor``) and is certified by an exact product, not by a division.
    The first xi is 2 * min(|f|, |g|) + 29 for the norms, the largest
    coefficients of f and g in absolute value, so every xi keeps GCDHEU's
    bound 2 * min(|f|, |g|) + 2, under which a candidate that divides f and
    g is their gcd; xi passes the root bound 1 + min(|f|, |g|) of that gcd
    as well, so h's leading coefficient is positive.  A try that
    fails is retried with a larger xi, and after ``_PACKED_TRIES`` failures
    the pair falls back to sympy.  A constant h comes back as [1] with f and g.
    """
    xi = 2 * min(f_norm, g_norm) + 29
    for _ in range(_PACKED_TRIES):
        f_value, g_value = _packed(f, xi), _packed(g, xi)
        gamma = math.gcd(f_value, g_value)
        h = _unpacked(gamma, xi)
        if len(h) == 1:
            return [1], f, g
        k = math.gcd(*h)
        value = gamma
        if k != 1:
            h, value = [v // k for v in h], gamma // k
        f_quotient = _cofactor(h, f, f_norm, f_value // value, xi)
        if f_quotient is not None:
            g_quotient = _cofactor(h, g, g_norm, g_value // value, xi)
            if g_quotient is not None:
                return h, f_quotient, g_quotient
        found = _divided_by_cofactor(f, f_norm, f_value, g, g_norm, g_value, gamma, xi)
        if found is not None:
            return found
        found = _divided_by_cofactor(g, g_norm, g_value, f, f_norm, f_value, gamma, xi)
        if found is not None:
            h, g_quotient, f_quotient = found
            return h, f_quotient, g_quotient
        xi = xi * 73794 // 27011  # about 2.73 times the last xi
    return None


def _divided_by_cofactor(f, f_norm, f_value, g, g_norm, g_value, gamma, xi):
    """(h, f/h, g/h) for h = f divided by q, the unpacked f(xi)/gamma, or None.

    f(xi) = q(xi) * gamma, so ``_cofactor`` takes h = f/q from gamma and
    certifies it; then h(xi) = gamma, and g's cofactor comes from g(xi)/gamma.
    """
    q = _unpacked(f_value // gamma, xi)
    h = _cofactor(q, f, f_norm, gamma, xi)
    if h is None:
        return None
    g_quotient = _cofactor(h, g, g_norm, g_value // gamma, xi)
    return None if g_quotient is None else (h, q, g_quotient)


def _cofactor(h, f, f_norm, quotient, xi):
    """f / h from the integer quotient f(xi) / h(xi), or None if h * (f/h) = f fails.

    Below 2 * |f| + 2 the digits of a cofactor as large as f would not fit,
    so the quotient is taken again at 2 * |f| + 29 (f's own first xi),
    where f(xi) is not zero either; a quotient with a remainder there means
    h does not divide f.
    """
    if xi < 2 * f_norm + 2:
        xi = 2 * f_norm + 29
        quotient, remainder = divmod(_packed(f, xi), _packed(h, xi))
        if remainder:
            return None
    q = _unpacked(quotient, xi)
    return q if _product_holds(h, q, f, f_norm, xi) else None


def _product_holds(h, q, f, f_norm, xi):
    """Whether h * q = f on coefficient lists, given h(xi) * q(xi) = f(xi) and f's norm.

    Every coefficient of h * q - f is below X = |h|_1 * |q| + |f| + 1 in
    absolute value, so the difference is zero when it vanishes at X: at xi
    itself when xi >= X, and otherwise at X, on packed integers.
    """
    bound = sum(map(abs, h)) * max(map(abs, q)) + f_norm + 1
    if bound <= xi:
        return True
    return _packed(h, bound) * _packed(q, bound) == _packed(f, bound)


def _packed(coefficients, xi):
    """The polynomial with these coefficients evaluated at xi."""
    value = 0
    for v in reversed(coefficients):
        value = value * xi + v
    return value


def _unpacked(value, xi):
    """The balanced xi-adic digits of a nonzero value, each in (-xi/2, xi/2], lowest first."""
    half, digits = xi // 2, []
    while value:
        value, digit = divmod(value, xi)
        if digit > half:
            digit -= xi
            value += 1
        digits.append(digit)
    return digits


# -- sympy elements of ZZ[x1, ..., xn], n >= 2: GCDHEU at powers of one xi ----


def _kronecker_gcd(a, b):
    """gcd_cofactors of sympy elements of ZZ[x1, ..., xn], n >= 2, of two or more terms, or None.

    Each operand is divided by its content and by its monomial factor x^mu
    (mu the least exponent of each variable in its terms), whose gcds give
    those of the answer; the rests f and g have no monomial factor.  The
    Kronecker substitution x_i -> t^(w_i) takes them to coefficient lists
    in t.  It is a ring map, one-to-one on the polynomials whose exponents
    of x_i are below d_i, 1 + the largest exponent of x_i in f or g, for
    w_n = 1 and w_i = w_(i+1) * d_(i+1).  An image can have a factor t^v
    that its preimage lacks (x1 + x2 -> t^d2 + t), so ``_image_gcd`` takes
    the gcd H of the images with their powers of t divided out, and the
    gcd d of f and g is the preimage of t^s H for the one s at which t^s H
    and both cofactors decode, through the bounds, to polynomials whose
    products keep every exponent of x_i below d_i: there the certified
    identities of the images are those of the preimages, so t^s H decodes
    to a common divisor, and a common divisor whose image is t^s H is d,
    since d / (t^s H) would be a monomial.  A pair with no such s shares a
    factor in its images only (x1 - 1 -> t^2 - 1 and x2 - 1 -> t - 1 share
    t - 1): no larger xi removes it, so it falls back to sympy at once.

    So does a pair whose images would pack into more than ``_PACKED_BITS``
    bits at the larger operand's first xi, 2 * max(|f|, |g|) + 29, at which
    ``_cofactor`` takes that operand's cofactor (d_1 * ... * d_n digits of
    its bit length): there sympy's gcd, which evaluates one variable at a
    time, is faster.  Measured per call on the 852 two-variable pairs of the
    ``D1`` lifts of three tail systems (k = 70, 92, 103), as the median
    ratio to sympy's time in each range of that size: 0.14 to 0.33 below
    2^14 bits, 0.78 from 2^14 to 2^15, 1.7 to 1.8 from 2^15 to 2^17, and
    3.3 to 21 above.  The rule bounds neither a retry's larger xi nor the
    exact products, which ``_product_holds`` may pack at a larger X: on the
    754 of those pairs that it admits, the largest pack of a pair was at
    most 1.8 times the size the rule counts.
    """
    a_content, b_content = math.gcd(*a.values()), math.gcd(*b.values())
    f_norm = max(map(abs, a.values())) // a_content
    g_norm = max(map(abs, b.values())) // b_content
    a_low, a_high = _exponent_range(a)
    b_low, b_high = _exponent_range(b)
    bounds = [max(p - q, r - s) + 1 for p, q, r, s in zip(a_high, a_low, b_high, b_low)]
    size = math.prod(bounds)
    if size * (2 * max(f_norm, g_norm) + 29).bit_length() > _PACKED_BITS:
        return None
    weights = [math.prod(bounds[i + 1:]) for i in range(len(bounds))]
    f = _substituted(a, a_low, weights, size, a_content)
    g = _substituted(b, b_low, weights, size, b_content)
    f_shift, g_shift = _lowest(f), _lowest(g)
    found = _image_gcd(f[f_shift:], g[g_shift:], f_norm, g_norm)
    if found is None:
        return None
    h, f_quotient, g_quotient = found
    content = math.gcd(a_content, b_content)
    low = tuple(map(min, a_low, b_low))
    if len(h) == 1:  # coprime rests: the gcd is content * x^low
        if content == 1 and not any(low):
            return _one_of(a.ring), a, b
        return (a.new({low: _INTEGER(content)}), _divided(a, low, content),
                _divided(b, low, content))
    for shift in range(min(f_shift, g_shift) + 1):
        h_terms, f_terms, g_terms = (_decoded([0] * k + v, bounds) for k, v in (
            (shift, h), (f_shift - shift, f_quotient), (g_shift - shift, g_quotient)))
        h_top = _tops(h_terms)
        if all(x + y < d for terms in (f_terms, g_terms)
               for x, y, d in zip(h_top, _tops(terms), bounds)):
            return (_element(a, h_terms, content, low),
                    _element(a, f_terms, a_content // content, tuple(map(sub, a_low, low))),
                    _element(a, g_terms, b_content // content, tuple(map(sub, b_low, low))))
    return None


def _exponent_range(element):
    """The least and the largest exponent of each variable over the terms of an element."""
    columns = list(zip(*element.keys()))
    return tuple(map(min, columns)), tuple(map(max, columns))


def _substituted(element, low, weights, size, content):
    """element / (content * x^low) at x_i = t^(w_i): its coefficients in t, constant term first."""
    offset = sum(map(mul, low, weights))
    out = [0] * size
    for m, v in element.items():
        out[sum(map(mul, m, weights)) - offset] = v if content == 1 else v // content
    return out


def _decoded(coefficients, bounds):
    """{monomial: coefficient} of the nonzero coefficients in t, read in the mixed radix of bounds.

    The exponent tuples below the bounds, in lexicographic order, are the
    monomials of t^0, t^1, ... in turn, since w_n = 1.
    """
    return {m: v for m, v in zip(product(*map(range, bounds)), coefficients) if v}


def _tops(terms):
    """The largest exponent of each variable over the monomials of a nonempty term dict."""
    return [max(exponents) for exponents in zip(*terms)]


def _element(like, terms, k, shift):
    """The element of like's ring with k * x^shift times these terms, coefficients of ZZ's dtype."""
    if any(shift):
        terms = {tuple(map(add, m, shift)): v for m, v in terms.items()}
    return like.new({m: _INTEGER(v * k) for m, v in terms.items()})


def _one_of(ring):
    """The ring's one, shared when the ring is this module's (``ring.one`` builds one)."""
    one = _one(ring.ngens, ring.domain)
    return one if one.ring is ring else ring.one


def _coefficient_gcd(a, b):
    """The gcd of the coefficients of a and b; a is the shorter, as the loop may stop at one."""
    domain = a.ring.domain
    c = domain.zero
    for v in chain(a.values(), b.values()):
        c = domain.gcd(c, v)
        if c == domain.one:
            break
    return c


def _divided(a, mu, c):
    """a / (c * x^mu), for c * x^mu dividing every term of a."""
    if c == a.ring.domain.one:
        return a.new({tuple(e - s for e, s in zip(m, mu)): v for m, v in a.items()})
    quo = a.ring.domain.quo
    return a.new({tuple(e - s for e, s in zip(m, mu)): quo(v, c) for m, v in a.items()})


def _power(value, k: int, times):
    """value^k for k >= 1 by repeated squaring under the product ``times``."""
    result = None
    while True:
        if k & 1:
            result = value if result is None else times(result, value)
        k >>= 1
        if not k:
            return result
        value = times(value, value)


def _times(a, b):
    """a * b, with no sympy product when either factor is the ring's one."""
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    return a * b


def _is_one(a):
    """a == 1, without building the ring's one as ``is_one`` does."""
    if type(a) is CoefficientList:
        return len(a) == 1 and a[0] == 1
    return len(a) == 1 and a.get(a.ring.zero_monom) == a.ring.domain.one


def _primitive(t):
    """(content, t / content) for a nonzero element of ZZ[x] or ZZ_I[x], or a CoefficientList."""
    if type(t) is CoefficientList:
        k = math.gcd(*t)
        return k, (t if k == 1 else CoefficientList([v // k for v in t]))
    if t.ring.domain is ZZ:
        k = math.gcd(*t.values())
        return k, (t if k == 1 else t.quo_ground(k))
    return t.primitive()


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


# -- rational functions ----------------------------------------------------

_ZEROS: dict = {}  # the zero rational function in each number of variables
_ONE_POLYNOMIALS: dict = {}  # the polynomial 1 in each number of variables: a polynomial's den


class RationalFunction:
    """A normalized quotient c * a / b: content c, coprime primitive integer a and b.

    A value with b = 1 is a ``Polynomial``, the subclass, whichever
    operation made it.
    """

    __slots__ = ("_c", "_a", "_b")

    def __new__(cls, num: Polynomial, den=None):
        """num / den, as ``/`` makes it; ``RationalFunction(p)`` is p itself."""
        return num if den is None else num / den

    def __init__(self, *args):
        """Nothing to do: ``__new__`` built the value.

        It takes the constructor's arguments, which ``object.__init__``
        rejects once a wrapper replaces this method, as the constructor count
        of ``bench/tracing.py`` does.
        """

    @staticmethod
    def _new(c, a, b) -> "RationalFunction":
        """Wrap a triple that is already canonical: a Polynomial when b = 1."""
        f = object.__new__(Polynomial if b.is_ground else RationalFunction)
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
            one = _one(nvars)
            zero = _ZEROS[nvars] = cls._new(QQ.zero, one.ring.zero, one)
        return zero

    @classmethod
    def constant(cls, value, nvars: int) -> "RationalFunction":
        c = _ground(value)
        if not c:
            return cls.zero(nvars)
        one = _one(nvars, ZZ if isinstance(c, QQ.dtype) else ZZ_I)
        return cls._new(c, one, one)

    # -- the edge: numerator and denominator over the field -----------------

    @property
    def num(self) -> Polynomial:
        """The numerator over the field, for the monic denominator ``den``."""
        b = self._b
        if b.is_ground:
            return self
        # normalized again, since a Gaussian value can have a real numerator: 1/(x + i)
        return RationalFunction._reduced(self._c / _lc(b), self._a, _one(self.nvars, b.ring.domain))

    @property
    def den(self) -> Polynomial:
        """The denominator over the field, monic (1 for a polynomial)."""
        if not self._b.is_ground:
            return monic_polynomial(self._b)
        nvars = self.nvars
        one = _ONE_POLYNOMIALS.get(nvars)
        if one is None:
            one = _ONE_POLYNOMIALS[nvars] = Polynomial.constant(1, nvars)
        return one

    @property
    def nvars(self) -> int:
        return self._a.ring.ngens

    def is_zero(self) -> bool:
        return not self._a

    def is_polynomial(self) -> bool:
        return self._b.is_ground  # a canonical constant denominator is 1

    def is_one(self) -> bool:
        """self == 1, read off the triple: a real constant is c * 1 / 1 in ZZ[x]."""
        return self._b.is_ground and self._a.is_ground and self._c == 1

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
        a, b = self._a, self._b
        if a.is_ground and b.is_ground:  # a constant equals its scalar, so it hashes as one
            return hash(self.constant_value())
        return hash((self._c, a, b))

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def __reduce__(self):
        return RationalFunction, (self.num, self.den)

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, Fraction, GaussianRational)):
            return RationalFunction.constant(other, self.nvars)
        return None

    def _gaussian(self):
        """The triple with a and b in ZZ_I[x] and c in QQ_I."""
        if self._a.ring.domain is ZZ_I:
            return self._c, self._a, self._b
        return QQ_I(self._c), gaussian(self._a), gaussian(self._b)

    def _triples(self, other: "RationalFunction"):
        """The triples of self and other in one ring: the Gaussian one if either is.

        This is where operands meet, so it rejects operands in different
        numbers of variables.
        """
        if self._a.ring is other._a.ring:
            return (self._c, self._a, self._b), (other._c, other._a, other._b)
        if self.nvars != other.nvars:
            raise InvalidInput(
                f"operands in {self.nvars} and {other.nvars} variables do not combine")
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
        (k, a, b), (l, c, d) = self._triples(o)
        if not c:
            return self
        if not a:
            return o
        if k != l:
            # with l/k = p/q over the integers, k*a/b + l*c/d = (k/q) * (q*a/b + p*c/d)
            p, q = _as_ratio(l / k)
            if q != 1:
                a, k = a.mul_ground(q), k / q
            if p != 1:
                c = c.mul_ground(p)
        if b == d:  # both 1 when both are constant: then no gcd is taken
            t = a + c
            if not t:
                return RationalFunction.zero(self.nvars)
            h, t = _primitive(t)
            if not b.is_ground:
                _, t, b = gcd_cofactors(t, b)
            return RationalFunction._reduced(k * h, t, b)
        g, b_g, d_g = gcd_cofactors(b, d)
        # nonzero: the sum cancels only against the negation, whose denominator is b
        h, t = _primitive(_times(a, d_g) + _times(c, b_g))
        if g.is_ground:  # coprime denominators; g may be a unit other than 1
            return RationalFunction._reduced(k * h, t, _times(b, d_g))
        # t is coprime to b/g and to d/g, so a common factor of t and the
        # denominator b*d/g can only lie in g
        _, t, g = gcd_cofactors(t, g)
        return RationalFunction._reduced(k * h, t, b_g * g * d_g)

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
        (k, a, b), (l, c, d) = self._triples(o)
        if not a or not c:
            return RationalFunction.zero(self.nvars)
        # a/b and c/d are reduced, so only a with d and c with b can share
        # factors, and neither can share one with a denominator of 1
        if not d.is_ground:
            _, a, d = gcd_cofactors(a, d)
        if not b.is_ground:
            _, c, b = gcd_cofactors(c, b)
        return RationalFunction._reduced(k * l, _times(a, c), _times(b, d))

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
        g, b_g, db_g = gcd_cofactors(b, b.diff(x))
        t = da * b_g - a * db_g
        if not t:
            return RationalFunction.zero(self.nvars)
        h, t = _primitive(t)
        _, t, g = gcd_cofactors(t, g)
        return RationalFunction._reduced(k * h, t, g * b_g * b_g)

    def evaluate(self, point: Sequence[Scalar]) -> Scalar:
        den_value = self.den.evaluate(point)
        if not den_value:
            raise EvaluationAtPole(f"denominator vanishes at {format_point(point)}")
        return self.num.evaluate(point) / den_value


class Polynomial(RationalFunction):
    """A sparse polynomial in ``nvars`` variables with exact field coefficients.

    It is the ``b = 1`` case of the triple: ``RationalFunction._new`` makes
    every value whose denominator is 1 a ``Polynomial``, so this class adds
    only what is particular to polynomials.
    """

    __slots__ = ()

    def __new__(cls, terms: Mapping[Monomial, Scalar], nvars: int):
        c, a = _split(terms, nvars)
        return RationalFunction._new(c, a, _one(nvars, a.ring.domain))

    @classmethod
    def variable(cls, index: int, nvars: int) -> "Polynomial":
        """The polynomial x_index, with index in 1..nvars."""
        if not 1 <= index <= nvars:
            raise IndexError(f"variable index {index} out of range 1..{nvars}")
        one = _one(nvars)
        return RationalFunction._new(QQ.one, one.ring.gens[index - 1], one)

    @classmethod
    def monomial(cls, mono: Monomial, coeff, nvars: int) -> "Polynomial":
        return cls({tuple(mono): coeff}, nvars)

    @property
    def terms(self) -> Mapping[Monomial, Scalar]:
        """The nonzero coefficients by exponent tuple, read-only."""
        c, a = self._c, self._a
        if a.ring.domain is ZZ:
            p, q = int(c.numerator), int(c.denominator)
            return MappingProxyType({m: Fraction(p * int(v), q) for m, v in a.items()})
        return MappingProxyType({m: _scalar(c * v, ZZ_I) for m, v in a.items()})

    def is_constant(self) -> bool:
        return self._a.is_ground

    def constant_value(self) -> Scalar:
        a = self._a
        return _scalar(self._c * a.get(a.ring.zero_monom, a.ring.domain.zero), a.ring.domain)

    def leading_coefficient(self) -> Scalar:
        a = self._a
        return _scalar(self._c * a.LC, a.ring.domain)

    def __repr__(self):
        return f"Polynomial({dict(self.terms)!r}, nvars={self.nvars})"

    def __reduce__(self):
        # a sympy ring does not pickle (sympy 1.14), so rebuild from the terms
        return Polynomial, (dict(self.terms), self.nvars)

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative polynomial power")
        if not exponent:
            if not self:
                raise ValueError("0**0")
            return Polynomial.constant(1, self.nvars)
        # a power of a primitive polynomial is primitive (Gauss's lemma)
        return RationalFunction._reduced(
            _power(self._c, exponent, mul), _power(self._a, exponent, mul), self._b)

    def scale(self, scalar) -> "Polynomial":
        return self * scalar

    def monic(self) -> "Polynomial":
        """Divide by the graded-lex leading coefficient."""
        return monic_polynomial(self._a) if self else self

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

    def exact_div(self, divisor) -> "Polynomial":
        """self / divisor for a polynomial or scalar divisor; ValueError if not a polynomial."""
        quotient = self / divisor
        if not quotient.is_polynomial():
            raise ValueError("inexact polynomial division")
        return quotient


# No library path calls this: bench/tracing.py times it by name, and it goes with that metric.
def poly_lcm(f: Polynomial, g: Polynomial) -> Polynomial:
    (_, a, _), (_, b, _) = f._triples(g)
    if not a or not b:
        return Polynomial.zero(f.nvars)
    return monic_polynomial(a * gcd_cofactors(a, b)[2])


# -- the integer edge, for fraction-free callers ------------------------------
#
# A fraction-free computation holds integer-ring elements of the triple's own
# kind and works on them with the ring methods: CoefficientLists in one
# variable over ZZ, and otherwise (more variables, or ZZ_I[x] in complex
# mode) elements of the graded-lex sympy rings above.  These functions take
# rational functions into that form and back; no module but this one knows
# which kind a row is.


def integer_pair(r: RationalFunction):
    """(num, den) in the integer ring of a nonzero r, with r = num / den."""
    p, q = _as_ratio(r._c)
    a, b = r._a, r._b
    return (a if p == 1 else a.mul_ground(p)), (b if q == 1 else b.mul_ground(q))


def integer_polynomials(groups: Sequence[Sequence[RationalFunction]], lists: bool = False):
    """Per group of polynomials rs, (L, [L * r for r in rs]) over one integer L.

    L is the least positive integer that makes every ``L * r`` of its group
    integral.  All the elements are in one ring: ZZ[x], or ZZ_I[x] when some
    r of any group is Gaussian.  With ``lists`` they are of the triple's own
    kind, as the witness lift's rows are; without it the elements of ZZ[x]
    in one variable go out as sympy's sparse elements (``_sparse``), for
    ``verify_witness``, so that the public check shares no arithmetic with
    the lift.
    """
    complex_mode = any(r._a.ring.domain is ZZ_I for rs in groups for r in rs)
    out = []
    for rs in groups:
        ratios = [_as_ratio(r._c) for r in rs]
        scale = math.lcm(*[q for _, q in ratios])
        values = []
        for r, (p, q) in zip(rs, ratios):
            a, factor = (r._a if lists else _sparse(r._a)), p * (scale // q)
            values.append(a if factor == 1 else a.mul_ground(factor))
        out.append((scale, [gaussian(v) for v in values] if complex_mode else values))
    return out


def integer_ratio(num, den) -> RationalFunction:
    """num / den in lowest terms, for elements of one integer ring and den != 0."""
    if not num:
        return RationalFunction.zero(num.ring.ngens)
    k, a = _primitive(num)
    if den.is_ground:
        e, b = _lc(den), _one(den.ring.ngens, den.ring.domain)
    else:
        e, b = _primitive(den)
        _, a, b = gcd_cofactors(a, b)
    if a.ring.domain is ZZ:
        return RationalFunction._reduced(QQ(k, e), a, b)
    return RationalFunction._reduced(
        QQ_I.convert_from(k, ZZ_I) / QQ_I.convert_from(e, ZZ_I), a, b)


def monic_polynomial(element) -> Polynomial:
    """A nonzero integer-ring element divided by its leading coefficient, over the field."""
    _, b = _primitive(element)
    domain = b.ring.domain
    return RationalFunction._reduced(_FIELD[domain].one / _lc(b), b, _one(b.ring.ngens, domain))
