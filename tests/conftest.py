"""Shared randomized generators for the test suite (seeded, fully exact)."""

from __future__ import annotations

import contextlib
import random
import signal
import sys
from fractions import Fraction
from typing import List

import pytest

from weylclosure import (Derivative, OperatorVector, Polynomial, RationalFunction, cli, riquier,
                         systemio)
from weylclosure.operators import multi_indices

# the interpreter's limit on the digits of an integer converted to or from a
# string, 0 where there is none (before Python 3.10.7, or PYTHONINTMAXSTRDIGITS=0)
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


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


def ranked_oracle(m: int, n: int, s: int) -> List[Derivative]:
    """Delta_s sorted by ``Derivative.rank_key``: the ranking built without
    the library's shared one, for tests that check against it."""
    return sorted((Derivative(i, alpha) for alpha in multi_indices(m, s)
                   for i in range(1, n + 1)), key=Derivative.rank_key)


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture(autouse=True)
def forget_last_system_and_basis():
    """Start every test with ``load_system``, ``complete_to_riquier_basis``
    and the CLI's ``--q`` reader holding no memory, so that no test reads a
    system, basis or candidate an earlier test left behind, and the suite
    passes in any order."""
    riquier._last = None
    systemio._last = None
    cli._last_q = None


@pytest.fixture
def fresh_completion():
    """Empty ``complete_to_riquier_basis``'s memory of its last basis, now and
    whenever the test calls the returned function, so that the next call
    completes its generators afresh.  The memory the test found is put back
    after it; no emptied entry is held meanwhile."""
    kept = riquier._last

    def empty():
        riquier._last = None

    empty()
    yield empty
    riquier._last = kept


@pytest.fixture
def fresh_load():
    """Empty ``load_system``'s memory of its last system, now and whenever the
    test calls the returned function, so that the next load parses its file
    afresh.  The memory the test found is put back after it."""
    kept = systemio._last

    def empty():
        systemio._last = None

    empty()
    yield empty
    systemio._last = kept


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
