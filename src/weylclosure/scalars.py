"""Exact field scalars: rationals (field mode "real") and Gaussian rationals ("complex").

Real-mode scalars are plain ``fractions.Fraction``; complex mode uses
:class:`GaussianRational`, a pair of rationals with exact arithmetic.  Mixed
expressions coerce upward to Gaussian rationals automatically.  Scalars and
points render as exact text ('-3/2', '1 + 2*i').
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Sequence, Union

from .errors import InvalidInput

Scalar = Union[Fraction, "GaussianRational"]

# The zero that jets hand out for every absent or vanishing value: one object,
# since Fraction is immutable and building one costs a constructor call.
ZERO = Fraction(0)


class GaussianRational:
    """An element of Q(i), stored as exact real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def _coerce(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        norm = o.re * o.re + o.im * o.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / norm,
            (self.im * o.re - self.re * o.im) / norm,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self


def _past_digit_limit(what: str) -> str:
    """The message for a number whose decimal digits pass the interpreter's limit."""
    return (f"{what} has more than {sys.get_int_max_str_digits()} digits, the interpreter's "
            f"limit on integer string conversion (PYTHONINTMAXSTRDIGITS raises it)")


def format_scalar(value: Scalar) -> str:
    """Plain rendering: '5', '-3/2', 'i', '2*i', '1 + 2*i'.

    A number past the interpreter's limit on integer string conversion raises
    InvalidInput.
    """
    try:
        if isinstance(value, GaussianRational):
            if value.im == 0:
                return str(value.re)
            if value.re == 0:
                if value.im == 1:
                    return "i"
                if value.im == -1:
                    return "-i"
                return f"{value.im}*i"
            im = format_scalar(GaussianRational(0, value.im))
            if im.startswith("-"):
                return f"{value.re} - {im[1:]}"
            return f"{value.re} + {im}"
        return str(value)
    except ValueError:
        raise InvalidInput(_past_digit_limit("a number to print")) from None


def format_point(point: Sequence[Scalar]) -> str:
    """A point as exact text: '1/2' for one coordinate, '(0, 1 + i)' for several."""
    coords = [format_scalar(x) for x in point]
    return coords[0] if len(coords) == 1 else f"({', '.join(coords)})"
