"""Shared randomized generators for the test suite (seeded, fully exact)."""

from __future__ import annotations

import contextlib
import random
import signal
from fractions import Fraction
from typing import List

import pytest

from weylclosure import Derivative, OperatorVector, Polynomial, RationalFunction


def random_polynomial(rng: random.Random, m: int, degree: int = 2,
                      terms: int = 2, allow_zero: bool = True) -> Polynomial:
    result = Polynomial.zero(m)
    for _ in range(terms):
        mono = [0] * m
        for _ in range(rng.randint(0, degree)):
            mono[rng.randrange(m)] += 1
        result = result + Polynomial.monomial(tuple(mono), Fraction(rng.randint(-3, 3)), m)
    if result.is_zero() and not allow_zero:
        return Polynomial.constant(rng.choice([1, -1, 2]), m)
    return result


def random_rational(rng: random.Random, m: int, degree: int = 2) -> RationalFunction:
    num = random_polynomial(rng, m, degree)
    den = random_polynomial(rng, m, 1, allow_zero=False)
    return RationalFunction(num, den)


def random_operator(rng: random.Random, m: int, n: int, order: int = 2,
                    degree: int = 2, terms: int = 3,
                    polynomial_coeffs: bool = True) -> OperatorVector:
    built = OperatorVector.zero(m, n)
    for _ in range(rng.randint(1, terms)):
        alpha = [0] * m
        for _ in range(rng.randint(0, order)):
            alpha[rng.randrange(m)] += 1
        component = rng.randint(1, n)
        if polynomial_coeffs:
            coeff = RationalFunction(random_polynomial(rng, m, degree))
        else:
            coeff = random_rational(rng, m, degree)
        term = OperatorVector.from_derivative(Derivative(component, tuple(alpha)), m, n, coeff)
        built = built + term
    return built


def random_nonzero_operator(rng: random.Random, m: int, n: int, **kwargs) -> OperatorVector:
    while True:
        op = random_operator(rng, m, n, **kwargs)
        if not op.is_zero():
            return op


def random_generators(rng: random.Random, m: int, n: int, count: int,
                      order: int = 2, degree: int = 2,
                      **kwargs) -> List[OperatorVector]:
    return [
        random_nonzero_operator(rng, m, n, order=order, degree=degree, **kwargs)
        for _ in range(count)
    ]


@pytest.fixture
def rng():
    return random.Random(20240817)


@contextlib.contextmanager
def returns_within(seconds: float):
    """Fail with TimeoutError, rather than hang, when the block runs too long (Unix)."""
    def expire(signum, frame):
        raise TimeoutError(f"did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
