"""Field arithmetic, exact ordering, and serialisation of Q(sqrt(21)), and
the arithmetic, order and floats of Q(sqrt(r)) for other r."""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powersums import kernel
from powersums.exact import (
    QuadExt,
    quad_compare,
    quad_from_text,
    quad_from_triple,
    quad_to_float,
    quad_to_text,
    strip_root,
    triple_from_text,
    triple_to_text,
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
    y = -1 - strip_root()
    third = QuadExt(Fraction(1, 3))
    assert y * y + y == third
    assert y < 0
    assert x * y == -third  # product of roots of t^2 + t - 1/3
    assert x + y == QuadExt(-1)


def test_only_zero_is_false():
    assert bool(QuadExt(0)) is False
    assert bool(strip_root()) is True
    # either part alone makes a value true
    assert bool(QuadExt(3)) is True
    assert bool(QuadExt(0, Fraction(1, 6))) is True


@pytest.mark.parametrize("other", ["1", None], ids=["str", "None"])
def test_a_value_of_another_type_is_not_equal(other):
    # no text or None is coerced: Python's fallback compares identities
    assert QuadExt(1).__eq__(other) is NotImplemented
    assert (QuadExt(1) == other) is False


def test_a_bool_equals_no_value():
    # a bool is never an operand (QuadExt(1) + True raises), so no value
    # equals one either, while the int of the same value stays equal
    assert (QuadExt(1) == True) is False and (QuadExt(0) == False) is False  # noqa: E712
    assert (True == QuadExt(1)) is False  # noqa: E712
    assert (QuadExt(1) == 1) is True


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


@given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9),
       st.integers(1, 10**4))
def test_a_triple_formats_as_its_value(a, b, d):
    """``triple_to_text`` reduces any (A, B, D) with D > 0, as the value's
    own text, and ``triple_from_text`` reads back its canonical triple."""
    value = quad_from_triple((a, b, d))
    assert triple_to_text((a, b, d)) == quad_to_text(value)
    assert triple_from_text(triple_to_text((a, b, d))) == value.triple


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


def _order_matches_floats(u, v):
    c = quad_compare(u, v)
    assert c in (-1, 0, 1)
    assert c == -quad_compare(v, u)
    fu, fv = quad_to_float(u), quad_to_float(v)
    if abs(fu - fv) > 1e-6:
        assert c == (1 if fu > fv else -1)


@given(quads, quads)
@settings(max_examples=60)
def test_order_is_total_and_matches_floats(u, v):
    _order_matches_floats(u, v)


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


@pytest.mark.parametrize("make", [
    lambda: QuadExt(1) + "1/2",
    lambda: "1/2" + QuadExt(1),
    lambda: QuadExt("3"),
    lambda: QuadExt(True),
    lambda: QuadExt(Fraction(1, 2), True),
    lambda: QuadExt.of(False),
    lambda: QuadExt(1) < "5",
    lambda: QuadExt(1) * True,
    lambda: QuadExt.of("2"),
], ids=["add str", "radd str", "str part", "bool part", "bool root part",
        "of bool", "compare str", "multiply bool", "of str"])
def test_values_that_are_not_exact_are_refused_not_coerced(make):
    with pytest.raises(TypeError, match="takes an int, Fraction or QuadExt"):
        make()


def test_refused_values_are_echoed_bounded():
    with pytest.raises(TypeError) as info:
        QuadExt("9" * 100_000)
    assert len(str(info.value)) < 300


def test_there_is_no_float_conversion():
    with pytest.raises(TypeError):
        float(QuadExt(1))
    with pytest.raises(TypeError):
        math.sqrt(strip_root())  # type: ignore[arg-type]


# -- differential test against a Fraction-pair reference ---------------------
#
# The reference keeps a + b*sqrt(r) as the pair (a, b) of Fractions and
# does the textbook field arithmetic on it; QuadExt, stored as integers
# over one denominator, must agree with it everywhere, at r = 21 and, with
# ``kernel.RADICAND`` set to r, in other fields.

def _ref_add(u, v):
    return u[0] + v[0], u[1] + v[1]


def _ref_neg(u):
    return -u[0], -u[1]


def _ref_mul(u, v, r=21):
    return u[0] * v[0] + r * u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def _ref_sign(u, r=21):
    a, b = u
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sb == 0:
        return sa
    if sa == 0 or sa == sb:
        return sb
    return sa if a * a > r * b * b else sb


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
# quads over D | 6, as the lattice points over D = 6 are: two of them often
# share a denominator; and int-valued quads, with D = 1
lattice_parts = st.builds(Fraction, st.integers(-60, 60), st.sampled_from([1, 2, 3, 6]))
lattice_refs = st.tuples(lattice_parts, lattice_parts).map(lambda p: (QuadExt(*p), p))
int_refs = st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)).map(
    lambda p: (QuadExt(*p), (Fraction(p[0]), Fraction(p[1]))))
u_refs = st.one_of(quad_refs, lattice_refs, int_refs)
v_refs = st.one_of(operand_refs, lattice_refs, int_refs)


def _arithmetic_agrees(u_ref, v_ref, r=21):
    (u, ru), (v, rv) = u_ref, v_ref
    cases = [
        (u + v, _ref_add(ru, rv)), (v + u, _ref_add(ru, rv)),
        (u - v, _ref_add(ru, _ref_neg(rv))), (v - u, _ref_add(rv, _ref_neg(ru))),
        (-u, _ref_neg(ru)),
        (u * v, _ref_mul(ru, rv, r)), (v * u, _ref_mul(ru, rv, r)),
    ]
    for got, want in cases:
        assert isinstance(got, QuadExt)
        _assert_canonical(got)
        assert (got.a, got.b) == want


def _sign_and_order_agree(u_ref, v_ref, r=21):
    (u, ru), (v, rv) = u_ref, v_ref
    assert u.sign() == _ref_sign(ru, r)
    s = _ref_sign(_ref_add(ru, _ref_neg(rv)), r)
    assert quad_compare(u, v) == s
    assert ((u < v), (u <= v), (u > v), (u >= v)) == (s < 0, s <= 0, s > 0, s >= 0)
    assert (u == v) == (s == 0) == (v == u)


@given(u_refs, v_refs)
@settings(max_examples=200)
def test_arithmetic_matches_fraction_pairs(u_ref, v_ref):
    _arithmetic_agrees(u_ref, v_ref)


@given(u_refs, v_refs)
@settings(max_examples=200)
def test_sign_and_order_match_fraction_pairs(u_ref, v_ref):
    _sign_and_order_agree(u_ref, v_ref)


@given(quad_refs)
def test_text_and_float_match_fraction_pairs(u_ref):
    u, ru = u_ref
    _assert_canonical(u)
    assert quad_to_text(u) == _ref_text(ru)
    assert quad_from_text(_ref_text(ru)) == u
    if ru[1] == 0:
        assert quad_to_float(u) == float(ru[0])


@pytest.mark.parametrize("r", [2, 3, 5])
@given(u_refs, v_refs, quads, quads)
@settings(max_examples=100)
def test_another_field_matches_fraction_pairs(r, u_ref, v_ref, u, v):
    """``kernel.RADICAND`` set to r alone moves arithmetic, sign, order and
    floats into Q(sqrt(r)): they agree with the reference over the same r."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "RADICAND", r)
        _arithmetic_agrees(u_ref, v_ref, r)
        _sign_and_order_agree(u_ref, v_ref, r)
        _order_matches_floats(u, v)
        assert quad_to_float(u) == pytest.approx(
            float(u.a) + float(u.b) * math.sqrt(r), rel=1e-9, abs=1e-6)


#: a unit a + b*sqrt(r) of each field: a**2 - r*b**2 = +-1
_UNITS = {2: (1, 1), 3: (2, 1), 5: (2, 1), 35: (6, 1)}


@pytest.mark.parametrize("r", sorted(_UNITS))
@given(st.lists(st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)),
                max_size=30),
       st.integers(1, 12), st.integers(-10**9, 10**9), st.integers(-2, 2))
def test_kernel_order_matches_fraction_pairs_in_another_field(r, points, k, c, offset):
    """``kernel._sorted_points`` in Q(sqrt(r)) sorts as the reference sign
    does, near ties included: 0 against a - b*sqrt(r), about 1/(2a) for
    a + b*sqrt(r) the k-th power of a unit, and a + c*sqrt(r) within 3 of
    0.  That difference split across 0, so that M is about a/2, is the
    closest pair for its bound M, and is sorted alone, both ways round.  At
    r = 35, sqrt(r) > 5: the bound S = 12*M that held for sqrt(21) < 5 is
    past its premise, and S derived from r must hold."""
    a, b = _UNITS[r]
    ua, ub = 1, 0
    for _ in range(k):
        ua, ub = a * ua + r * b * ub, b * ua + a * ub
    near = -math.isqrt(r * c * c) if c > 0 else math.isqrt(r * c * c)
    # the split's root parts, k0 and k0 + b, stay within a/2 as c moves them
    k0 = c % (ua - ub + 1) - ua // 2
    split = [(ua // 2, k0), (ua // 2 - ua, k0 + ub)]
    points = {*points, (0, 0), (ua, -ub), (-ua, ub), (near + offset, c)}
    order = cmp_to_key(lambda p, q: _ref_sign((p[0] - q[0], p[1] - q[1]), r))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "RADICAND", r)
        assert kernel._sorted_points(points) == sorted(points, key=order)
        for pair in (split, split[::-1]):
            assert kernel._sorted_points(pair) == sorted(pair, key=order)


@given(st.one_of(rationals, st.integers()))
def test_rationals_hash_and_compare_like_their_values(q):
    u = QuadExt(q)
    assert hash(u) == hash(q)
    assert u == q and q == u
    assert u.triple == (Fraction(q).numerator, 0, Fraction(q).denominator)
    assert len({u, q}) == 1


def test_storage_is_canonical():
    forms = [QuadExt(Fraction(2, 4), 0), QuadExt(Fraction(1, 2)),
             QuadExt(Fraction(3, 2)) - 1]
    for u in forms:
        assert u.triple == (1, 0, 2)
        assert (quad_to_text(u), repr(u), hash(u)) == (
            "1/2", "QuadExt(Fraction(1, 2), Fraction(0, 1))", hash(Fraction(1, 2)))
    assert strip_root().triple == (-3, 1, 6)
    assert (strip_root() + QuadExt(Fraction(-1, 2), Fraction(-1, 6))).triple == (
        -1, 0, 1)


@pytest.mark.parametrize("triple,canonical", [
    ((2, 4, 6), (1, 2, 3)),
    ((-9, 3, 6), (-3, 1, 2)),
    ((-4, 0, 6), (-2, 0, 3)),
    ((0, 0, 6), (0, 0, 1)),
    ((5, -7, 1), (5, -7, 1)),
    ((-3, 1, 6), (-3, 1, 6)),
])
def test_a_point_over_d_reduces_to_its_canonical_triple(triple, canonical):
    a, b, d = triple
    u = quad_from_triple(triple)
    assert u.triple == canonical
    _assert_canonical(u)
    assert u == QuadExt(Fraction(a, d), Fraction(b, d))


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
