"""Canonical text rendering of scalars, polynomials, rational functions and operators.

The printer is the inverse of the parser: ``parse(format(p)) == p`` holds
structurally.  Operator terms are emitted in decreasing ranking order.  A
coefficient that multiplies a derivative is parenthesized whenever it is not
a single product-safe term; a polynomial coefficient of the order-0 term is
a sum of its own and is written without parentheses.
"""

from __future__ import annotations

from typing import List

from .operators import Derivative, OperatorVector
from .polynomials import Polynomial, RationalFunction
from .scalars import GaussianRational, Scalar, format_scalar


def _scalar_is_simple(value: Scalar) -> bool:
    """True when the scalar renders as a single factor (usable inside a product)."""
    if isinstance(value, GaussianRational):
        return value.im == 0 or value.re == 0
    return True


def _variable_name(index: int, m: int) -> str:
    return "x" if m == 1 else f"x{index}"


def _derivation_name(index: int, m: int) -> str:
    return "D" if m == 1 else f"D{index}"


def _monomial_factors(mono, m: int, name) -> List[str]:
    parts = []
    for j, e in enumerate(mono, start=1):
        if e == 0:
            continue
        base = name(j, m)
        parts.append(base if e == 1 else f"{base}^{e}")
    return parts


def format_derivative(d: Derivative, m: int, n: int) -> str:
    """Derivative text like 'D^2', 'D1*D2' or '1 [u2]', as the parser reads it."""
    parts = _monomial_factors(d.alpha, m, _derivation_name)
    body = "*".join(parts) if parts else "1"
    if n > 1:
        body += f" [u{d.component}]"
    return body


def format_polynomial(p: Polynomial) -> str:
    """Terms in decreasing graded-lex order, like 'x^2 - 2*x + 2'."""
    if p.is_zero():
        return "0"
    pieces = []
    terms = p.terms
    for mono in sorted(terms, key=lambda mono: (sum(mono), mono), reverse=True):
        coeff = terms[mono]
        factors = _monomial_factors(mono, p.nvars, _variable_name)
        cstr = format_scalar(coeff)
        if not factors:
            term = cstr if _scalar_is_simple(coeff) else f"({cstr})"
        elif coeff == 1:
            term = "*".join(factors)
        elif coeff == -1:
            term = "-" + "*".join(factors)
        elif _scalar_is_simple(coeff):
            term = "*".join([cstr] + factors)
        else:
            term = "*".join([f"({cstr})"] + factors)
        pieces.append(term)
    return _join_signed(pieces)


def _join_signed(pieces: List[str]) -> str:
    out = pieces[0]
    for piece in pieces[1:]:
        if piece.startswith("-"):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out


def _poly_is_single_term(p: Polynomial) -> bool:
    return len(p.terms) == 1 and _scalar_is_simple(next(iter(p.terms.values())))


def format_rational(r: RationalFunction) -> str:
    num_poly = r.num
    if r.is_polynomial():
        return format_polynomial(num_poly)
    den_poly = r.den
    num = format_polynomial(num_poly)
    den = format_polynomial(den_poly)
    if not _poly_is_single_term(num_poly) or num.startswith("-"):
        num = f"({num})"
    # A product in the denominator would rebind as ((num/den1)*den2): parenthesize.
    if not _poly_is_single_term(den_poly) or "*" in den:
        den = f"({den})"
    return f"{num}/{den}"


def _scalar_is_negative(value: Scalar) -> bool:
    if isinstance(value, GaussianRational):
        return (value.im == 0 and value.re < 0) or (value.re == 0 and value.im < 0)
    return value < 0


def _format_coefficient(coeff: RationalFunction, has_derivative: bool) -> str:
    """Coefficient text ready to prefix a derivative monomial with '*'."""
    if has_derivative:
        if coeff == 1:
            return ""
        if coeff == -1:
            return "-"
    num = coeff.num
    num_single = _poly_is_single_term(num)
    if num_single and _scalar_is_negative(next(iter(num.terms.values()))):
        return "-" + _format_coefficient(-coeff, has_derivative)
    if coeff.is_polynomial():
        text = format_polynomial(num)
        if has_derivative and len(num.terms) > 1:  # else a summand: 'D^2 - x^2 + 1'
            text = f"({text})"
        return text + ("*" if has_derivative else "")
    text = format_rational(coeff)
    if has_derivative or not (num_single and _poly_is_single_term(coeff.den)):
        return f"({text})" + ("*" if has_derivative else "")
    return text


def _format_scalar_terms(p: OperatorVector, component: int) -> str:
    """Render the component slice of p as a scalar operator expression."""
    terms = {d: c for d, c in p.terms.items() if d.component == component}
    if not terms:
        return "0"
    pieces = []
    for d in sorted(terms, key=Derivative.rank_key, reverse=True):
        coeff = terms[d]
        dparts = _monomial_factors(d.alpha, p.m, _derivation_name)
        prefix = _format_coefficient(coeff, bool(dparts))
        if dparts:
            term = prefix + "*".join(dparts)
        else:
            term = prefix
        pieces.append(term)
    return _join_signed(pieces)


def format_operator(p: OperatorVector) -> str:
    """Canonical text for an operator vector; component tags [u#] when n > 1."""
    if p.is_zero():
        return "0"
    if p.n == 1:
        return _format_scalar_terms(p, 1)
    pieces = []
    for component in range(1, p.n + 1):
        if not any(d.component == component for d in p.terms):
            continue
        body = _format_scalar_terms(p, component)
        if " + " in body or " - " in body:
            body = f"({body})"
        pieces.append(f"{body} [u{component}]")
    return _join_signed(pieces)
