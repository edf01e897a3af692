"""Field arithmetic, exact ordering, and serialisation of Q(sqrt(21))."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powersums.exact import (
    QuadExt,
    quad_compare,
    quad_from_text,
    quad_to_float,
    quad_to_text,
    strip_root,
)

rationals = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=720
)
quads = st.builds(QuadExt, rationals, rationals)


def test_compare_root_against_integers():
    # 21 > 16 and 21 < 25, so 4 < sqrt(21) < 5
    assert quad_compare(QuadExt(0, 1), QuadExt(4)) == 1
    assert quad_compare(QuadExt(0, 1), QuadExt(5)) == -1


def test_compare_reflexive_and_mixed_signs():
    u = QuadExt(Fraction(3, 7), Fraction(-2, 5))
    assert quad_compare(u, u) == 0
    # -9/2 + sqrt(21) > 0 since 21 > 81/4; -14/3 + sqrt(21) < 0 since 21 < 196/9
    assert quad_compare(QuadExt(Fraction(-9, 2), 1), QuadExt(0)) == 1
    assert quad_compare(QuadExt(Fraction(-14, 3), 1), QuadExt(0)) == -1
    # 13/3 - sqrt(21) < 0 since 169/9 < 21
    assert quad_compare(QuadExt(Fraction(13, 3), -1), QuadExt(0)) == -1


def test_strip_root_value_and_equation():
    x = strip_root()
    assert x.a == Fraction(-1, 2) and x.b == Fraction(1, 6)
    assert x * x + x == QuadExt(Fraction(1, 3))
    assert x > 0
    # (sqrt(21)/6)^2 = 7/12, so x = -1/2 + sqrt(7/12)
    root_term = QuadExt(0, Fraction(1, 6))
    assert root_term * root_term == QuadExt(Fraction(7, 12))


def test_strip_root_companion_root():
    x = strip_root()
    y = QuadExt(-1) - x
    third = QuadExt(Fraction(1, 3))
    assert y * y + y == third
    assert x * y == -third  # product of roots of t^2 + t - 1/3
    assert x + y == QuadExt(-1)


def test_float_conversion_examples():
    assert quad_to_float(QuadExt(Fraction(1, 3))) == pytest.approx(1 / 3, abs=1e-12)
    assert quad_to_float(strip_root()) == pytest.approx(0.2637626158, abs=1e-9)
    assert quad_to_float(QuadExt(0)) == 0.0


def test_float_conversion_survives_cancellation():
    # a nearly cancels b*sqrt(21): naive float evaluation rounds to 0.0,
    # the bracketing conversion must keep the residue.  Oracle: sqrt(21)
    # to 40 decimal digits via integer square root.
    b = Fraction(10**12)
    a = -Fraction(4582575694955840, 10**15) * b
    root = Fraction(math.isqrt(21 * 10**80), 10**40)
    expected = float(a + b * root)
    assert expected != 0.0
    assert quad_to_float(QuadExt(a, b)) == pytest.approx(expected, rel=1e-12)


def test_float_conversion_overflow_reports():
    with pytest.raises(OverflowError):
        quad_to_float(QuadExt(Fraction(10 ** 400), 0))
    with pytest.raises(OverflowError):
        quad_to_float(QuadExt(0, Fraction(10 ** 400)))


def test_division_and_inverse():
    u = QuadExt(Fraction(3, 2), Fraction(-1, 7))
    assert u * u.inverse() == QuadExt(1)
    assert (u / u) == QuadExt(1)
    with pytest.raises(ZeroDivisionError):
        QuadExt(0).inverse()


def test_serialization_fixed_forms():
    assert quad_to_text(QuadExt(Fraction(1, 3))) == "1/3"
    assert quad_to_text(QuadExt(5)) == "5"
    assert quad_to_text(strip_root()) == "-1/2+1/6*sqrt21"
    assert quad_from_text("-1/2+1/6*sqrt21") == strip_root()
    assert quad_from_text("7") == QuadExt(7)
    with pytest.raises(ValueError):
        quad_from_text("sqrt21")
    with pytest.raises(ValueError):
        quad_from_text("1/0x")


@pytest.mark.parametrize("text", [
    "2/4", "-0", "0/3", "1/1", "1/02", "+1", "1/0", "3+0*sqrt21",
    "1+2/2*sqrt21", "\u0663", "1/\u0663",
])
def test_parser_accepts_only_canonical_ascii_text(text):
    with pytest.raises(ValueError):
        quad_from_text(text)


@given(quads)
def test_serialization_round_trip(u):
    assert quad_from_text(quad_to_text(u)) == u


@given(quads, quads, quads)
@settings(max_examples=60)
def test_field_laws(u, v, w):
    assert (u + v) + w == u + (v + w)
    assert (u * v) * w == u * (v * w)
    assert u * (v + w) == u * v + u * w
    assert u + v == v + u
    assert u * v == v * u
    assert u + QuadExt(0) == u
    assert u * QuadExt(1) == u


@given(quads)
def test_multiplicative_inverse(u):
    if u != QuadExt(0):
        assert u * u.inverse() == QuadExt(1)


@given(quads, quads)
def test_conjugate_is_multiplicative(u, v):
    assert (u * v).conjugate() == u.conjugate() * v.conjugate()
    assert (u + v).conjugate() == u.conjugate() + v.conjugate()


@given(quads, quads)
@settings(max_examples=60)
def test_order_is_total_and_matches_floats(u, v):
    c = quad_compare(u, v)
    assert c in (-1, 0, 1)
    assert c == -quad_compare(v, u)
    fu, fv = quad_to_float(u), quad_to_float(v)
    if abs(fu - fv) > 1e-6:
        assert c == (1 if fu > fv else -1)


@given(quads, quads, quads)
@settings(max_examples=60)
def test_order_transitive(u, v, w):
    a, b, c = sorted([u, v, w])
    assert a <= b <= c
    assert a <= c


def test_values_are_immutable_and_hashable():
    u = strip_root()
    with pytest.raises(AttributeError):
        u.a = Fraction(0)  # type: ignore[misc]
    assert hash(QuadExt(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert len({QuadExt(1), QuadExt(1), strip_root()}) == 2


def test_floats_are_rejected_not_converted():
    with pytest.raises(TypeError):
        QuadExt(0.1)
    with pytest.raises(TypeError):
        QuadExt(0, 0.5)
    with pytest.raises(TypeError):
        strip_root() + 0.25  # type: ignore[operator]
