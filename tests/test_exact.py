"""Field arithmetic, exact ordering, and serialisation of Q(sqrt(21))."""

from __future__ import annotations

import math
import operator
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


# -- differential test against a Fraction-pair reference ---------------------
#
# The reference keeps a + b*sqrt(21) as the pair (a, b) of Fractions and
# does the textbook field arithmetic on it; QuadExt, stored as integers
# over one denominator, must agree with it everywhere.

def _ref_add(u, v):
    return u[0] + v[0], u[1] + v[1]


def _ref_neg(u):
    return -u[0], -u[1]


def _ref_mul(u, v):
    return u[0] * v[0] + 21 * u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def _ref_sign(u):
    a, b = u
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sb == 0:
        return sa
    if sa == 0 or sa == sb:
        return sb
    return sa if a * a > 21 * b * b else sb


def _ref_text(u):
    def rat(r):
        return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"
    return rat(u[0]) if u[1] == 0 else f"{rat(u[0])}+{rat(u[1])}*sqrt21"


def _assert_canonical(u):
    a, b, d = u.triple
    assert d > 0 and math.gcd(a, b, d) == 1
    assert (Fraction(a, d), Fraction(b, d)) == (u.a, u.b)


# (value, reference pair) for QuadExt, Fraction and int values
quad_refs = st.tuples(rationals, rationals).map(lambda p: (QuadExt(*p), p))
operand_refs = st.one_of(
    quad_refs,
    rationals.map(lambda q: (q, (q, Fraction(0)))),
    st.integers(-10**6, 10**6).map(lambda k: (k, (Fraction(k), Fraction(0)))),
)


@given(quad_refs, operand_refs)
@settings(max_examples=200)
def test_arithmetic_matches_fraction_pairs(u_ref, v_ref):
    (u, ru), (v, rv) = u_ref, v_ref
    cases = [
        (u + v, _ref_add(ru, rv)), (v + u, _ref_add(ru, rv)),
        (u - v, _ref_add(ru, _ref_neg(rv))), (v - u, _ref_add(rv, _ref_neg(ru))),
        (-u, _ref_neg(ru)),
        (u * v, _ref_mul(ru, rv)), (v * u, _ref_mul(ru, rv)),
        (u.conjugate(), (ru[0], -ru[1])),
    ]
    norm = ru[0] * ru[0] - 21 * ru[1] * ru[1]
    if norm != 0:
        cases.append((u.inverse(), (ru[0] / norm, -ru[1] / norm)))
    for got, want in cases:
        assert isinstance(got, QuadExt)
        _assert_canonical(got)
        assert (got.a, got.b) == want


@given(quad_refs, operand_refs)
@settings(max_examples=200)
def test_sign_and_order_match_fraction_pairs(u_ref, v_ref):
    (u, ru), (v, rv) = u_ref, v_ref
    assert u.sign() == _ref_sign(ru)
    s = _ref_sign(_ref_add(ru, _ref_neg(rv)))
    assert quad_compare(u, v) == s
    assert ((u < v), (u <= v), (u > v), (u >= v)) == (s < 0, s <= 0, s > 0, s >= 0)
    assert (u == v) == (s == 0) == (v == u)


@given(quad_refs)
def test_text_and_float_match_fraction_pairs(u_ref):
    u, ru = u_ref
    _assert_canonical(u)
    assert quad_to_text(u) == _ref_text(ru)
    assert quad_from_text(_ref_text(ru)) == u
    if ru[1] == 0:
        assert quad_to_float(u) == float(ru[0])


@given(st.one_of(rationals, st.integers()))
def test_rationals_hash_and_compare_like_their_values(q):
    u = QuadExt(q)
    assert hash(u) == hash(q)
    assert u == q and q == u
    assert u.is_rational() and u.is_integer() == (Fraction(q).denominator == 1)
    assert len({u, q}) == 1


def test_storage_is_canonical():
    forms = [QuadExt(Fraction(2, 4), 0), QuadExt(Fraction(1, 2)),
             QuadExt(Fraction(3, 2)) - 1, QuadExt(1) / 2]
    for u in forms:
        assert u.triple == (1, 0, 2)
        assert (quad_to_text(u), repr(u), hash(u)) == (
            "1/2", "QuadExt(Fraction(1, 2), Fraction(0, 1))", hash(Fraction(1, 2)))
    assert strip_root().triple == (-3, 1, 6)
    assert (strip_root() + strip_root().conjugate()).triple == (-1, 0, 1)


def test_parser_refuses_a_trailing_newline():
    # a "$" anchor would match before a final newline
    with pytest.raises(ValueError):
        quad_from_text("1\n")


@pytest.mark.parametrize("a,b", [
    (0.5, 0), (1, 0.5), (Fraction(1, 2), 2.0), (0.0, 0.0),
])
def test_floats_are_rejected_in_either_part(a, b):
    with pytest.raises(TypeError):
        QuadExt(a, b)


@pytest.mark.parametrize("op", [
    operator.add, operator.sub, operator.mul, operator.truediv,
    operator.lt, operator.ge,
])
def test_floats_are_rejected_by_operators(op):
    with pytest.raises(TypeError):
        op(strip_root(), 0.5)
    with pytest.raises(TypeError):
        op(0.5, strip_root())
