"""Tokenizer and recursive-descent parser for operator expressions.

Grammar (``*`` is noncommutative and mandatory between factors)::

    row     :=  expr ( tag )? ( ('+'|'-') expr ( tag )? )*
    expr    :=  term ( ('+'|'-') term )*
    term    :=  factor ( ('*'|'/') factor )*
    factor  :=  '-' factor  |  primary ( '^' INT )?
    primary :=  INT  |  'i'  |  variable  |  derivation  |  '(' expr ')'
    tag     :=  '[' 'u' INT ']'

Division requires both operands to be pure functions (no derivations), which
keeps the noncommutative product unambiguous.  Component tags appear only at
the top level of a row and are required when n > 1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import ParseError
from .operators import Derivative, OperatorVector, scalar_operator_product
from .polynomials import Polynomial, RationalFunction
from .scalars import GaussianRational

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([-+*/^()\[\]]))")


@dataclass
class _Token:
    kind: str  # 'int' | 'name' | 'sym' | 'end'
    text: str
    position: int


def _tokenize(text: str) -> List[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == match.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[bad]!r}", bad)
        if match.group(1) is not None:
            tokens.append(_Token("int", match.group(1), match.start(1)))
        elif match.group(2) is not None:
            tokens.append(_Token("name", match.group(2), match.start(2)))
        else:
            tokens.append(_Token("sym", match.group(3), match.start(3)))
        pos = match.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


_VARIABLE_ALIASES = {"x": 1, "y": 2, "z": 3}
_DERIVATION_ALIASES = {"Dx": 1, "Dy": 2, "Dz": 3}


class _Value:
    """A parsed scalar operator together with its syntactic class."""

    __slots__ = ("op", "is_function")

    def __init__(self, op: OperatorVector, is_function: bool):
        self.op = op
        self.is_function = is_function

    def function(self) -> RationalFunction:
        m = self.op.m
        return self.op.coefficient(Derivative(1, (0,) * m))


class _Parser:
    def __init__(self, text: str, m: int, n: int, field: str):
        if field not in ("real", "complex"):
            raise ParseError(f"unknown field mode {field!r}", 0)
        self.tokens = _tokenize(text)
        self.index = 0
        self.m = m
        self.n = n
        self.field = field

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect_symbol(self, text: str) -> _Token:
        token = self.peek()
        if token.kind != "sym" or token.text != text:
            raise ParseError(f"expected {text!r}", token.position)
        return self.advance()

    def fail(self, message: str):
        raise ParseError(message, self.peek().position)

    # -- value helpers -----------------------------------------------------

    def _const(self, value) -> _Value:
        f = RationalFunction.constant(value, self.m)
        return _Value(OperatorVector.scalar_function(f, self.m), True)

    def _scalar_product(self, left: _Value, right: _Value) -> _Value:
        return _Value(
            scalar_operator_product(left.op, right.op),
            left.is_function and right.is_function,
        )

    # -- grammar -----------------------------------------------------------

    def parse_primary(self) -> _Value:
        token = self.peek()
        if token.kind == "int":
            self.advance()
            return self._const(Fraction(int(token.text)))
        if token.kind == "name":
            self.advance()
            return self._resolve_name(token)
        if token.kind == "sym" and token.text == "(":
            self.advance()
            value = self.parse_expr()
            self.expect_symbol(")")
            return value
        self.fail("expected a number, identifier or parenthesized expression")

    def _resolve_name(self, token: _Token) -> _Value:
        name = token.text
        if name == "i":
            if self.field != "complex":
                raise ParseError("imaginary unit requires complex field mode",
                                 token.position)
            return self._const(GaussianRational(0, 1))
        var_index = None
        if re.fullmatch(r"x\d+", name):
            var_index = int(name[1:])
        elif name in _VARIABLE_ALIASES and self.m <= 3:
            var_index = _VARIABLE_ALIASES[name]
        if var_index is not None:
            if not 1 <= var_index <= self.m:
                raise ParseError(f"variable {name!r} out of range for {self.m} variable(s)",
                                 token.position)
            poly = Polynomial.variable(var_index, self.m)
            return self._const_rational(RationalFunction(poly))
        d_index = None
        if re.fullmatch(r"D\d+", name):
            d_index = int(name[1:])
        elif name == "D" and self.m == 1:
            d_index = 1
        elif name in _DERIVATION_ALIASES and self.m <= 3:
            d_index = _DERIVATION_ALIASES[name]
        if d_index is not None:
            if not 1 <= d_index <= self.m:
                raise ParseError(f"derivation {name!r} out of range for {self.m} variable(s)",
                                 token.position)
            alpha = tuple(1 if j == d_index - 1 else 0 for j in range(self.m))
            op = OperatorVector.from_derivative(Derivative(1, alpha), self.m, 1)
            return _Value(op, False)
        raise ParseError(f"unknown identifier {name!r}", token.position)

    def _const_rational(self, f: RationalFunction) -> _Value:
        return _Value(OperatorVector.scalar_function(f, self.m), True)

    def parse_factor(self) -> _Value:
        token = self.peek()
        if token.kind == "sym" and token.text == "-":
            self.advance()
            inner = self.parse_factor()
            return _Value(-inner.op, inner.is_function)
        value = self.parse_primary()
        token = self.peek()
        if token.kind == "sym" and token.text == "^":
            self.advance()
            exp_token = self.peek()
            negative = exp_token.kind == "sym" and exp_token.text == "-"
            if negative:
                self.advance()
                exp_token = self.peek()
            if exp_token.kind != "int":
                self.fail("expected an integer exponent")
            self.advance()
            exponent = int(exp_token.text)
            if negative or exponent == 0:
                raise ParseError("exponent must be a positive integer",
                                 exp_token.position)
            result = value
            for _ in range(exponent - 1):
                result = self._scalar_product(result, value)
            value = result
        return value

    def parse_term(self) -> _Value:
        value = self.parse_factor()
        while True:
            token = self.peek()
            if token.kind != "sym" or token.text not in ("*", "/"):
                return value
            self.advance()
            right = self.parse_factor()
            if token.text == "*":
                value = self._scalar_product(value, right)
            else:
                if not (value.is_function and right.is_function):
                    raise ParseError("division is only defined between functions",
                                     token.position)
                divisor = right.function()
                if divisor.is_zero():
                    raise ParseError("division by zero", token.position)
                quotient = value.function() / divisor
                value = self._const_rational(quotient)

    def parse_expr(self) -> _Value:
        value = self.parse_term()
        while True:
            token = self.peek()
            if token.kind != "sym" or token.text not in ("+", "-"):
                return value
            self.advance()
            right = self.parse_term()
            if token.text == "+":
                value = _Value(value.op + right.op,
                               value.is_function and right.is_function)
            else:
                value = _Value(value.op - right.op,
                               value.is_function and right.is_function)

    def parse_tag(self) -> Optional[int]:
        token = self.peek()
        if token.kind != "sym" or token.text != "[":
            return None
        self.advance()
        name = self.peek()
        component = None
        if name.kind == "name" and re.fullmatch(r"u\d+", name.text):
            component = int(name.text[1:])
        if component is None:
            self.fail("expected a component tag like u1")
        self.advance()
        self.expect_symbol("]")
        if not 1 <= component <= self.n:
            raise ParseError(f"component u{component} out of range for {self.n} unknown(s)",
                             name.position)
        return component

    def parse_row(self) -> OperatorVector:
        result = OperatorVector.zero(self.m, self.n)
        sign = 1
        first = True
        while True:
            token = self.peek()
            if token.kind == "sym" and token.text in ("+", "-"):
                if first:
                    pass  # leading sign is handled by parse_factor
                else:
                    self.advance()
                    sign = 1 if token.text == "+" else -1
            elif not first:
                break
            value = self.parse_expr()
            component = self.parse_tag()
            if component is None:
                if self.n > 1 and not value.op.is_zero():
                    self.fail("a component tag [u#] is required when n > 1")
                component = 1
            embedded = OperatorVector(
                {Derivative(component, d.alpha): c for d, c in value.op.terms.items()},
                self.m, self.n,
            )
            if sign < 0:
                embedded = -embedded
            result = result + embedded
            first = False
            sign = 1
        token = self.peek()
        if token.kind != "end":
            self.fail("unexpected trailing input")
        return result


def parse_operator(text: str, m: int, n: int = 1, field: str = "real") -> OperatorVector:
    """Parse an operator row; scalar expressions need no component tag when n = 1."""
    return _Parser(text, m, n, field).parse_row()


def parse_scalar_operator(text: str, m: int, field: str = "real") -> OperatorVector:
    """Parse a scalar (n = 1) operator expression."""
    return parse_operator(text, m, 1, field)


def parse_rational(text: str, m: int, field: str = "real") -> RationalFunction:
    """Parse a pure function (no derivations allowed)."""
    parser = _Parser(text, m, 1, field)
    value = parser.parse_expr()
    token = parser.peek()
    if token.kind != "end":
        parser.fail("unexpected trailing input")
    if not value.is_function:
        raise ParseError("expected a function without derivations", 0)
    return value.function()
