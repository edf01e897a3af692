"""Bernoulli numbers, Faulhaber sums and the sign of a + b*sqrt(21) against
sympy, an implementation that shares no code with ours.  Skipped where
sympy is not installed; it is no dependency of the package."""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from powersums.figurate import bernoulli_table, faulhaber
from powersums.kernel import lattice_sign

sympy = pytest.importorskip("sympy")


def _fraction(r) -> Fraction:
    return Fraction(int(r.p), int(r.q))


def test_bernoulli_table_matches_sympy():
    # sympy >= 1.12 takes B_1 = +1/2, the convention of our recursion
    assert sympy.bernoulli(1) == sympy.Rational(1, 2)
    assert bernoulli_table(60) == [_fraction(sympy.bernoulli(m))
                                   for m in range(61)]


@pytest.mark.parametrize("p", range(11))
def test_faulhaber_matches_sympy_summation(p):
    n, k = sympy.symbols("n k", integer=True, nonnegative=True)
    closed = sympy.summation(k ** p, (k, 1, n))
    for value in (*range(13), 97, 10 ** 6):
        assert faulhaber(p, value) == _fraction(closed.subs(n, value))


def _unit_power(k: int) -> tuple[int, int]:
    """(a, b) with a + b*sqrt(21) = (55 + 12*sqrt(21))**k, of norm 1."""
    a, b = 1, 0
    for _ in range(k):
        a, b = 55 * a + 252 * b, 12 * a + 55 * b
    return a, b


def _sympy_sign(a: int, b: int) -> int:
    return int(sympy.sign(a + b * sympy.sqrt(21)))


# 55**2 = 21 * 12**2 + 1: 55 - 12*sqrt(21) is about 1/110
NEAR_CANCELLING = [(a * s, -b * s) for k in range(1, 5)
                   for a, b in [_unit_power(k)] for s in (1, -1)]


@pytest.mark.parametrize("a,b", [(55, -12), (-55, 12), (458, -100),
                                 (-458, 100), (459, -100), (0, 0), (0, 3),
                                 (-7, 0), *NEAR_CANCELLING])
def test_lattice_sign_matches_sympy_on_near_ties(a, b):
    assert lattice_sign(a, b) == _sympy_sign(a, b)


@given(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 5, 10 ** 5))
def test_lattice_sign_matches_sympy(a, b):
    assert lattice_sign(a, b) == _sympy_sign(a, b)


@given(st.integers(-10 ** 9, 10 ** 9), st.integers(-2, 2))
def test_lattice_sign_matches_sympy_next_to_b_sqrt21(b, offset):
    # a within 2 of -b*sqrt(21): the two parts nearly cancel
    a = -isqrt(21 * b * b) if b > 0 else isqrt(21 * b * b)
    assert lattice_sign(a + offset, b) == _sympy_sign(a + offset, b)
