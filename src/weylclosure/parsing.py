"""Tokenizer and recursive-descent parser for operator expressions.

Grammar (``*`` is noncommutative and mandatory between factors)::

    row     :=  expr ( tag )? ( ('+'|'-') expr ( tag )? )*
    expr    :=  term ( ('+'|'-') term )*
    term    :=  factor ( ('*'|'/') factor )*
    factor  :=  '-'* primary ( '^' INT )?
    primary :=  INT  |  'i'  |  variable  |  derivation  |  '(' expr ')'
    tag     :=  '[' 'u' INT ']'

Parentheses nest at most ``_MAX_NESTING`` deep, and a run of unary minus
signs is read in a loop, so no input can exhaust Python's recursion limit:
deeper nesting is a ParseError at the parenthesis that opens one level too
many.  Division requires both operands to be pure functions (no
derivations), which keeps the noncommutative product unambiguous.  Component tags appear only at
the top level of a row and are required when n > 1.

Text is evaluated straight to standard form.  A function (a value with no
derivation in it) is an exact polynomial term dict ``{exponent: scalar}``,
with ``int`` coefficients where they are integral and ``Fraction`` or
``GaussianRational`` otherwise; division by a constant scales it, and only
division by a nonconstant function turns it into a ``RationalFunction``.  A
value with a derivation in it maps each multi-index alpha to the function
that multiplies ``D^alpha``.  A function, or a polynomial in D with constant
coefficients, raised to ``^k`` is one ``RationalFunction`` power over the
integers (``x^k`` and ``D^k`` one monomial).  A product with a function
on the left multiplies coefficient by coefficient, and so does a product of
two polynomials in D with constant coefficients, which commute; any other
product with a derivation on the left needs the Leibniz rule, and it takes
it from ``operators.scalar_operator_product``, metered as a power's
Leibniz products are and refused past ``MAX_POWER_WORK``.  Each coefficient
becomes a ``RationalFunction`` once, at the end, and only where the caller
wants one: ``parse_derivative`` and ``parse_constant`` read a derivative
(1*d) or a constant off the parsed values.  A power is refused before any
product when its degree would pass ``MAX_EXPONENT`` (a polynomial in D of
one term has no such bound), and before the product that would take its
metered work past ``MAX_POWER_WORK``: each product of its squaring chain,
or, for an operator with a function in it, each product and derivative of
coefficients in its Leibniz products.  The grammar's symbol test reads a
list that the tokenizer builds.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial
from typing import Optional

from .errors import InvalidInput, ParseError
from .operators import Derivative, OperatorVector, scalar_operator_product
from .polynomials import MAX_EXPONENT, Polynomial, RationalFunction, _meter, _one, _power
from .scalars import GaussianRational, Scalar, _past_digit_limit

# an integer, a name, a symbol, or (group 4) any other character but whitespace
_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([-+*/^()\[\]])|(\S))")
# token kinds: the group of _TOKEN_RE that matched, and 0 for the end of the text
_END, _INT, _NAME, _SYM, _BAD = 0, 1, 2, 3, 4
# by whether a name is a derivation's: its pattern and aliases (up to m = 3; D: m = 1)
_NAMES = {False: (re.compile(r"x\d+"), {"x": 1, "y": 2, "z": 3}),
          True: (re.compile(r"D\d+"), {"D": 1, "Dx": 1, "Dy": 2, "Dz": 3})}
_TAG_RE = re.compile(r"u\d+")
_MAX_NESTING = 100  # parenthesis levels; each takes four frames of the recursive descent


def _integer(digits: str, position: int) -> int:
    """The value of a run of digits; past the interpreter's digit limit, a ParseError."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(_past_digit_limit("an integer"), position) from None


def _tokenize(text: str):
    """(kind, text, position) for each token, then an end token."""
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastindex
        position = match.start(kind)
        if kind == _BAD:
            raise ParseError(f"unexpected character {text[position]!r}", position)
        tokens.append((kind, match.group(kind), position))
    tokens.append((_END, "", len(text)))
    return tokens


# -- values ----------------------------------------------------------------
#
# A function is a term dict (exponent tuple -> nonzero scalar) or, once it
# has been divided by a nonconstant function, a RationalFunction; both are
# falsy exactly when zero.  A value with a derivation in it is an _Operator.


class _Operator(dict):
    """A parsed value with a derivation in it: multi-index alpha -> nonzero function."""

    __slots__ = ()


def _rational(f, m: int) -> RationalFunction:
    return f if isinstance(f, RationalFunction) else Polynomial(f, m)


def _quotient(u, c):
    """u / c for scalars, an int when both are ints and c divides u."""
    if type(u) is int and type(c) is int:
        q = Fraction(u, c)
        return q.numerator if q.denominator == 1 else q
    return u / c


def _function_sum(f, g, m: int):
    if type(f) is dict and type(g) is dict:
        out = dict(f)
        for e, v in g.items():
            s = out.pop(e, 0) + v
            if s:
                out[e] = s
        return out
    return _rational(f, m) + _rational(g, m)


def _function_product(f, g, m: int):
    if type(f) is dict and type(g) is dict:
        out = {}
        for e, u in f.items():
            for k, v in g.items():
                key = tuple([a + b for a, b in zip(e, k)])
                out[key] = out.get(key, 0) + u * v
        return {e: v for e, v in out.items() if v}
    return _rational(f, m) * _rational(g, m)


def _exponents(value):
    """The exponent tuples of a function's terms, or of an operator's coefficients'."""
    if type(value) is _Operator:
        return [e for c in value.values() for e in _exponents(c)]
    return list(value) if type(value) is dict else [*value.num.terms, *value.den.terms]


def _check(k: int, exponents):
    """Refuse f^k, f with terms of these exponents, past ``MAX_EXPONENT``: f^k has k
    times the degree of f."""
    top = max(exponents, key=max, default=None)
    if top is not None and k * max(top) > MAX_EXPONENT:
        raise InvalidInput(f"exponent {tuple(k * a for a in top)} exceeds "
                           f"the limit of {MAX_EXPONENT}")


def _operator(p: OperatorVector) -> _Operator:
    """A scalar OperatorVector as a parsed value."""
    return _Operator({d.alpha: c for d, c in p.terms.items()})


def _negated(value):
    if type(value) is dict:
        return {e: -v for e, v in value.items()}
    if type(value) is _Operator:
        return _Operator({alpha: _negated(c) for alpha, c in value.items()})
    return -value


class _Parser:
    def __init__(self, text: str, m: int, n: int, field: str):
        if field not in ("real", "complex"):
            raise ParseError(f"unknown field mode {field!r}", 0)
        self.tokens = _tokenize(text)
        self.symbols = [token if kind == _SYM else "" for kind, token, _ in self.tokens]
        self.index = 0
        self.m = m
        self.n = n
        self.field = field
        self.zero = (0,) * m
        self.depth = 0  # the parentheses open at the current token

    # -- token plumbing ----------------------------------------------------

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        token = self.tokens[self.index]
        self.index += 1
        return token

    def at_symbol(self, symbols: str) -> Optional[str]:
        """The current token's text when it is one of ``symbols``, else None."""
        symbol = self.symbols[self.index]
        return symbol if symbol and symbol in symbols else None

    def expect_symbol(self, text: str):
        if self.at_symbol(text) is None:
            raise ParseError(f"expected {text!r}", self.peek()[2])
        return self.advance()

    def fail(self, message: str):
        raise ParseError(message, self.peek()[2])

    # -- arithmetic --------------------------------------------------------

    def operator(self, value) -> _Operator:
        if type(value) is _Operator:
            return value
        return _Operator({self.zero: value} if value else {})

    def sum(self, left, right):
        if type(left) is not _Operator and type(right) is not _Operator:
            return _function_sum(left, right, self.m)
        out = _Operator(self.operator(left))
        for alpha, c in self.operator(right).items():
            old = out.pop(alpha, None)
            s = c if old is None else _function_sum(old, c, self.m)
            if s:
                out[alpha] = s
        return out

    def vector(self, value) -> OperatorVector:
        """The value as a scalar OperatorVector, for the library's operator product."""
        return OperatorVector({Derivative(1, alpha): _rational(c, self.m)
                               for alpha, c in self.operator(value).items()}, self.m, 1)

    def constants(self, value):
        """A polynomial in D with constant coefficients as ``{alpha: scalar}``, else None."""
        zero = self.zero
        if type(value) is _Operator and all(type(c) is dict and c.keys() == {zero}
                                            for c in value.values()):
            return {alpha: c[zero] for alpha, c in value.items()}
        return None

    def product(self, left, right):
        m = self.m
        if type(left) is _Operator:
            f, g = self.constants(left), self.constants(right)
            if f is not None and g is not None:  # constant coefficients commute with D
                return _Operator({alpha: {self.zero: c}
                                  for alpha, c in _function_product(f, g, m).items()})
            # the Leibniz rule
            return _operator(scalar_operator_product(self.vector(left), self.vector(right),
                                                     _meter(m, "product")))
        if type(right) is _Operator:
            if not left:
                return _Operator()
            return _Operator({alpha: _function_product(left, c, m) for alpha, c in right.items()})
        return _function_product(left, right, m)

    def power(self, value, k: int, bounded: bool = True):
        """value^k: x^k and D^k are their exponents times k, a function or a polynomial
        in D with constant coefficients one metered ``Polynomial`` power, and any other
        operator a chain of metered Leibniz products.  ``_check`` refuses a degree past
        ``MAX_EXPONENT`` first, if ``bounded``: D's order in one term has no bound."""
        if k == 1:
            return value
        constants = self.constants(value)
        if constants is not None:
            # constant coefficients commute with D: a polynomial in D, raised as a function
            f = self.power(constants, k, len(value) > 1)
            return _Operator({alpha: {self.zero: c}
                              for alpha, c in (f if type(f) is dict else f.terms).items()})
        if bounded:
            _check(k, _exponents(value))
        if type(value) is _Operator:
            return _operator(_power(self.vector(value), k, partial(scalar_operator_product,
                                                                   charge=_meter(self.m))))
        if type(value) is dict and len(value) == 1 and 1 in value.values():
            ((e, c),) = value.items()
            return {tuple([a * k for a in e]): c}
        return _rational(value, self.m) ** k

    def quotient(self, left, right, position: int):
        if type(left) is _Operator or type(right) is _Operator:
            raise ParseError("division is only defined between functions", position)
        if not right:
            raise ParseError("division by zero", position)
        if type(left) is dict and type(right) is dict and right.keys() == {self.zero}:
            c = right[self.zero]
            return {e: _quotient(v, c) for e, v in left.items()}
        return _rational(left, self.m) / _rational(right, self.m)

    # -- grammar -----------------------------------------------------------

    def parse_primary(self):
        kind, text, position = self.peek()
        if kind == _INT:
            self.advance()
            value = _integer(text, position)
            return {self.zero: value} if value else {}
        if kind == _NAME:
            self.advance()
            return self._resolve_name(text, position)
        if self.at_symbol("(") is not None:
            if self.depth == _MAX_NESTING:
                raise ParseError(f"parentheses nested more than {_MAX_NESTING} deep", position)
            self.advance()
            self.depth += 1
            value = self.parse_expr()
            self.expect_symbol(")")
            self.depth -= 1
            return value
        self.fail("expected a number, identifier or parenthesized expression")

    def _resolve_name(self, name: str, position: int):
        if name == "i":
            if self.field != "complex":
                raise ParseError("imaginary unit requires complex field mode", position)
            return {self.zero: GaussianRational(0, 1)}
        m, derivation = self.m, name[0] == "D"
        pattern, aliases = _NAMES[derivation]
        index = (_integer(name[1:], position) if pattern.fullmatch(name) else
                 aliases.get(name) if m <= 3 and (name != "D" or m == 1) else None)
        if index is None:
            raise ParseError(f"unknown identifier {name!r}", position)
        if not 1 <= index <= m:
            raise ParseError(f"{'derivation' if derivation else 'variable'} {name!r} "
                             f"out of range for {m} variable(s)", position)
        unit = tuple([1 if j == index else 0 for j in range(1, m + 1)])  # x_index's or D_index's
        return _Operator({unit: {self.zero: 1}}) if derivation else {unit: 1}

    def parse_factor(self):
        negated = False
        while self.at_symbol("-") is not None:  # a run of signs, read without recursion
            self.advance()
            negated = not negated
        value = self.parse_primary()
        if self.at_symbol("^") is not None:
            self.advance()
            negative = self.at_symbol("-") is not None
            if negative:
                self.advance()
            kind, text, position = self.peek()
            if kind != _INT:
                self.fail("expected an integer exponent")
            self.advance()
            exponent = _integer(text, position)
            if negative or exponent == 0:
                raise ParseError("exponent must be a positive integer", position)
            value = self.power(value, exponent)
        return _negated(value) if negated else value

    def parse_term(self):
        value = self.parse_factor()
        while True:
            op = self.at_symbol("*/")
            if op is None:
                return value
            position = self.advance()[2]
            right = self.parse_factor()
            if op == "*":
                value = self.product(value, right)
            else:
                value = self.quotient(value, right, position)

    def parse_expr(self):
        value = self.parse_term()
        while True:
            op = self.at_symbol("+-")
            if op is None:
                return value
            self.advance()
            right = self.parse_term()
            value = self.sum(value, right if op == "+" else _negated(right))

    def parse_tag(self) -> Optional[int]:
        if self.at_symbol("[") is None:
            return None
        self.advance()
        kind, text, position = self.peek()
        if kind != _NAME or not _TAG_RE.fullmatch(text):
            self.fail("expected a component tag like u1")
        component = _integer(text[1:], position)
        self.advance()
        self.expect_symbol("]")
        if not 1 <= component <= self.n:
            raise ParseError(f"component u{component} out of range for {self.n} unknown(s)",
                             position)
        return component

    def parse_terms(self):
        """The row as {component: the _Operator of its terms}, up to the end of the text."""
        rows = {}
        negate = False  # a leading sign is read by parse_factor
        while True:
            value = self.parse_expr()
            component = self.parse_tag()
            if component is None:
                if self.n > 1 and value:
                    self.fail("a component tag [u#] is required when n > 1")
                component = 1
            if negate:
                value = _negated(value)
            row = rows.get(component)
            rows[component] = self.operator(value) if row is None else self.sum(row, value)
            op = self.at_symbol("+-")  # only after a tag: parse_expr reads the rest
            if op is None:
                break
            self.advance()
            negate = op == "-"
        if self.peek()[0] != _END:
            self.fail("unexpected trailing input")
        return rows

    def parse_function(self):
        """The text as a function (no derivation), up to its end."""
        value = self.parse_expr()
        if self.peek()[0] != _END:
            self.fail("unexpected trailing input")
        if type(value) is _Operator:
            raise ParseError("expected a function without derivations", 0)
        return value


def parse_operator(text: str, m: int, n: int = 1, field: str = "real") -> OperatorVector:
    """Parse an operator row; scalar expressions need no component tag when n = 1."""
    rows = _Parser(text, m, n, field).parse_terms()
    return OperatorVector({Derivative(component, alpha): _rational(c, m)
                           for component, row in rows.items() for alpha, c in row.items()},
                          m, n)


def parse_derivative(text: str, m: int, n: int = 1, field: str = "real") -> Optional[Derivative]:
    """The derivative d of a row that is 1*d, else None: read as ``parse_operator``
    reads the row, with its errors, but building no operator."""
    terms = [(Derivative(component, alpha), c) for component, row
             in _Parser(text, m, n, field).parse_terms().items() for alpha, c in row.items()]
    if len(terms) == 1 and terms[0][1] == (1 if isinstance(terms[0][1], RationalFunction)
                                           else {(0,) * m: 1}):
        _one(m)  # too many variables raise, as the coefficient would
        return terms[0][0]
    return None


def parse_rational(text: str, m: int, field: str = "real") -> RationalFunction:
    """Parse a pure function (no derivations allowed)."""
    return _rational(_Parser(text, m, 1, field).parse_function(), m)


def parse_constant(text: str, m: int, field: str = "real") -> Optional[Scalar]:
    """The scalar of a constant function, as ``constant_value`` gives it, else None:
    read as ``parse_rational`` reads it, with its errors, but building no
    RationalFunction for a constant."""
    value = _Parser(text, m, 1, field).parse_function()
    if type(value) is dict and value.keys() <= {(0,) * m}:
        _one(m)  # too many variables raise, as the RationalFunction would
        c = value.get((0,) * m, 0)
        return (c if c.im else c.re) if isinstance(c, GaussianRational) else Fraction(c)
    value = _rational(value, m)  # an oversized exponent raises here, as in parse_rational
    return value.constant_value() if value.is_polynomial() and value.is_constant() else None
