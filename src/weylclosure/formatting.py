"""Canonical text rendering of scalars, polynomials, rational functions and operators.

The printer is the inverse of the parser: ``parse(format(p)) == p`` holds
structurally.  Operator terms are emitted in decreasing ranking order.  A
coefficient that multiplies a derivative is parenthesized whenever it is not
a single product-safe term; a polynomial coefficient of the order-0 term is
a sum of its own and is written without parentheses.  No text gets a second
pair of parentheses around the pair that already encloses it: a one-term
numerator whose scalar is parenthesized, and a component of a vector row that
is one parenthesized summand, keep their one pair.  Each conversion is
made once: an operator's terms are ranked once, and each coefficient's
numerator and denominator terms are built once, and 1 and -1 are read off them.
"""

from __future__ import annotations

from typing import List

from .operators import Derivative, OperatorVector
from .polynomials import Polynomial, RationalFunction
from .scalars import GaussianRational, Scalar, format_scalar


def _scalar_is_simple(value: Scalar) -> bool:
    """True when the scalar renders as a single factor (usable inside a product)."""
    return not isinstance(value, GaussianRational) or value.im == 0 or value.re == 0


def _monomial_factors(mono, m: int, letter: str) -> List[str]:
    """The factors of x^mono or D^mono, by letter: 'x' in one variable, else 'x1', 'x2', ..."""
    bases = [letter] if m == 1 else [f"{letter}{j}" for j in range(1, m + 1)]
    return [base if e == 1 else f"{base}^{e}" for base, e in zip(bases, mono) if e]


def format_derivative(d: Derivative, m: int, n: int) -> str:
    """Derivative text like 'D^2', 'D1*D2' or '1 [u2]', as the parser reads it."""
    body = "*".join(_monomial_factors(d.alpha, m, "D")) or "1"
    return f"{body} [u{d.component}]" if n > 1 else body


def format_polynomial(p: Polynomial) -> str:
    """Terms in decreasing graded-lex order, like 'x^2 - 2*x + 2'."""
    return _format_terms(p.terms, p.nvars)


def _format_terms(terms, nvars: int) -> str:
    """A polynomial's text from its terms, which it reads once."""
    if not terms:
        return "0"
    pieces = []
    for mono in sorted(terms, key=lambda mono: (sum(mono), mono), reverse=True):
        coeff = terms[mono]
        factors = _monomial_factors(mono, nvars, "x")
        cstr = format_scalar(coeff)
        if factors and (coeff == 1 or coeff == -1):
            term = ("-" if coeff == -1 else "") + "*".join(factors)
        else:
            term = "*".join([cstr if _scalar_is_simple(coeff) else f"({cstr})"] + factors)
        pieces.append(term)
    return _join_signed(pieces)


def _join_signed(pieces: List[str]) -> str:
    return pieces[0] + "".join(f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
                               for piece in pieces[1:])


def _is_enclosed(text: str) -> bool:
    """True when one pair of parentheses encloses the whole text, as in '(x + 1)'."""
    depth = 0
    for ch in text[:-1]:
        depth += (ch == "(") - (ch == ")")
        if not depth:
            return False
    return text.endswith(")")


def format_rational(r: RationalFunction) -> str:
    return _format_quotient(r.num.terms, None if r.is_polynomial() else r.den.terms, r.nvars)


def _format_quotient(num, den, nvars: int) -> str:
    """The text of num/den from their terms (den None for a polynomial)."""
    text = _format_terms(num, nvars)
    if den is None:
        return text
    # a one-term numerator needs no pair of its own: a scalar that is not
    # simple has one already, from _format_terms
    if len(num) > 1 or text.startswith("-"):
        text = f"({text})"
    den_text = _format_terms(den, nvars)
    # A product in the denominator would rebind as ((num/den1)*den2): parenthesize.
    if len(den) > 1 or "*" in den_text:
        den_text = f"({den_text})"
    return f"{text}/{den_text}"


def _scalar_is_negative(value: Scalar) -> bool:
    if isinstance(value, GaussianRational):
        return (value.im == 0 and value.re < 0) or (value.re == 0 and value.im < 0)
    return value < 0


def _format_coefficient(coeff: RationalFunction, has_derivative: bool) -> str:
    """Coefficient text ready to prefix a derivative monomial with '*'.  The
    terms of its numerator and of its denominator are read once each."""
    num = coeff.num.terms
    den = None if coeff.is_polynomial() else coeff.den.terms
    sign = ""
    if len(num) == 1:
        ((mono, value),) = num.items()
        if _scalar_is_negative(value):  # written as '-' and its negation
            sign, value = "-", -value
            num = {mono: value}
        if has_derivative and den is None and value == 1 and not any(mono):
            return sign  # the coefficient 1 or -1
    text = _format_quotient(num, den, coeff.nvars)
    if den is None:  # a sum by a derivative, not a summand: 'D^2 - x^2 + 1'
        wrap = has_derivative and len(num) > 1
    else:
        wrap = has_derivative or len(num) > 1 or len(den) > 1
    return sign + (f"({text})" if wrap else text) + ("*" if has_derivative else "")


def format_operator(p: OperatorVector) -> str:
    """Canonical text for an operator vector; component tags [u#] when n > 1."""
    if p.is_zero():
        return "0"
    rows: dict = {}  # component -> its summands, in decreasing ranking order
    for d in sorted(p.terms, key=Derivative.rank_key, reverse=True):
        dparts = _monomial_factors(d.alpha, p.m, "D")
        rows.setdefault(d.component, []).append(
            _format_coefficient(p.terms[d], bool(dparts)) + "*".join(dparts))
    if p.n == 1:
        return _join_signed(rows[1])
    pieces = []
    for component in sorted(rows):
        body = _join_signed(rows[component])
        if (" + " in body or " - " in body) and not _is_enclosed(body):
            body = f"({body})"
        pieces.append(f"{body} [u{component}]")
    return _join_signed(pieces)
