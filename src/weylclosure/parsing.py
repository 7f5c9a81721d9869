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
that multiplies ``D^alpha``.  A derivation raised to ``^k`` is one
derivative, and a function raised to ``^k`` is a polynomial power.  A
product with a function on the left multiplies coefficient by coefficient;
only a product with a derivation on the left needs the Leibniz rule, and it
takes it from ``operators.scalar_operator_product``.  Each coefficient
becomes a ``RationalFunction`` once, at the end.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import mul
from typing import Optional

from .errors import ParseError
from .operators import Derivative, OperatorVector, scalar_operator_product
from .polynomials import Polynomial, RationalFunction, _power
from .scalars import GaussianRational

# an integer, a name, a symbol, or (group 4) any other character but whitespace
_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([-+*/^()\[\]])|(\S))")
# token kinds: the group of _TOKEN_RE that matched, and 0 for the end of the text
_END, _INT, _NAME, _SYM, _BAD = 0, 1, 2, 3, 4
_VARIABLE_RE = re.compile(r"x\d+")
_DERIVATION_RE = re.compile(r"D\d+")
_TAG_RE = re.compile(r"u\d+")
_MAX_NESTING = 100  # parenthesis levels; each takes four frames of the recursive descent


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


_VARIABLE_ALIASES = {"x": 1, "y": 2, "z": 3}
_DERIVATION_ALIASES = {"Dx": 1, "Dy": 2, "Dz": 3}


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
        kind, text, _ = self.tokens[self.index]
        return text if kind == _SYM and text in symbols else None

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

    def product(self, left, right):
        m = self.m
        if type(left) is _Operator:  # the Leibniz rule
            h, p = (OperatorVector({Derivative(1, alpha): _rational(c, m)
                                    for alpha, c in self.operator(v).items()}, m, 1)
                    for v in (left, right))
            return _Operator({d.alpha: c for d, c in scalar_operator_product(h, p).terms.items()})
        if type(right) is _Operator:
            if not left:
                return _Operator()
            return _Operator({alpha: _function_product(left, c, m) for alpha, c in right.items()})
        return _function_product(left, right, m)

    def power(self, value, k: int):
        if type(value) is dict:
            return _power(value, k, lambda f, g: _function_product(f, g, self.m))
        if type(value) is not _Operator:  # a RationalFunction
            return _power(value, k, mul)
        if len(value) == 1:
            ((alpha, c),) = value.items()
            if type(c) is dict and c.keys() == {self.zero}:
                # c * D^alpha for a constant c, which commutes with D: one derivative
                return _Operator({tuple([a * k for a in alpha]):
                                  {self.zero: _power(c[self.zero], k, mul)}})
        return _power(value, k, self.product)

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
            value = int(text)
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
        var_index = None
        if _VARIABLE_RE.fullmatch(name):
            var_index = int(name[1:])
        elif name in _VARIABLE_ALIASES and self.m <= 3:
            var_index = _VARIABLE_ALIASES[name]
        if var_index is not None:
            if not 1 <= var_index <= self.m:
                raise ParseError(f"variable {name!r} out of range for {self.m} variable(s)",
                                 position)
            return {self._unit(var_index): 1}
        d_index = None
        if _DERIVATION_RE.fullmatch(name):
            d_index = int(name[1:])
        elif name == "D" and self.m == 1:
            d_index = 1
        elif name in _DERIVATION_ALIASES and self.m <= 3:
            d_index = _DERIVATION_ALIASES[name]
        if d_index is not None:
            if not 1 <= d_index <= self.m:
                raise ParseError(f"derivation {name!r} out of range for {self.m} variable(s)",
                                 position)
            return _Operator({self._unit(d_index): {self.zero: 1}})
        raise ParseError(f"unknown identifier {name!r}", position)

    def _unit(self, index: int):
        """The exponent tuple of x_index, or the multi-index of D_index."""
        return tuple([1 if j == index else 0 for j in range(1, self.m + 1)])

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
            exponent = int(text)
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
        component = None
        if kind == _NAME and _TAG_RE.fullmatch(text):
            component = int(text[1:])
        if component is None:
            self.fail("expected a component tag like u1")
        self.advance()
        self.expect_symbol("]")
        if not 1 <= component <= self.n:
            raise ParseError(f"component u{component} out of range for {self.n} unknown(s)",
                             position)
        return component

    def parse_row(self) -> OperatorVector:
        rows = {}  # component -> the _Operator of its terms
        sign = "+"
        first = True
        while True:
            op = self.at_symbol("+-")
            if op is not None:
                if not first:  # a leading sign is handled by parse_factor
                    self.advance()
                    sign = op
            elif not first:
                break
            value = self.parse_expr()
            component = self.parse_tag()
            if component is None:
                if self.n > 1 and value:
                    self.fail("a component tag [u#] is required when n > 1")
                component = 1
            if sign == "-":
                value = _negated(value)
            row = rows.get(component)
            rows[component] = self.operator(value) if row is None else self.sum(row, value)
            first = False
            sign = "+"
        if self.peek()[0] != _END:
            self.fail("unexpected trailing input")
        return OperatorVector({Derivative(component, alpha): _rational(c, self.m)
                               for component, row in rows.items() for alpha, c in row.items()},
                              self.m, self.n)


def parse_operator(text: str, m: int, n: int = 1, field: str = "real") -> OperatorVector:
    """Parse an operator row; scalar expressions need no component tag when n = 1."""
    return _Parser(text, m, n, field).parse_row()


def parse_rational(text: str, m: int, field: str = "real") -> RationalFunction:
    """Parse a pure function (no derivations allowed)."""
    parser = _Parser(text, m, 1, field)
    value = parser.parse_expr()
    if parser.peek()[0] != _END:
        parser.fail("unexpected trailing input")
    if type(value) is _Operator:
        raise ParseError("expected a function without derivations", 0)
    return _rational(value, m)
