"""Exact arithmetic: rationals and the real quadratic field Q(sqrt(21)).

Rationals are plain ``fractions.Fraction`` values (always canonical:
positive denominator, reduced).  ``QuadExt`` adds the field extension
generated by sqrt(21), which hosts the scissor-cut width
x = (-3 + sqrt(21))/6 -- the positive root of x**2 + x - 1/3 = 0 -- and
every coordinate produced by the cut-and-paste constructions.

Values are immutable and hashable.  Comparisons are exact; floating point
is consulted nowhere except ``quad_to_float``, which exists for rendering
only.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt
from typing import Union

Rat = Fraction

RatLike = Union[int, Fraction]
QuadLike = Union[int, Fraction, "QuadExt"]

_TEXT_RE = re.compile(
    r"^(?P<an>-?[0-9]+)(?:/(?P<ad>[1-9][0-9]*))?"
    r"(?:\+(?P<bn>-?[0-9]+)(?:/(?P<bd>[1-9][0-9]*))?\*sqrt21)?$"
)


class QuadExt:
    """Element a + b*sqrt(21) of Q(sqrt(21)) with exact rational parts."""

    __slots__ = ("a", "b")

    a: Fraction
    b: Fraction

    def __init__(self, a: RatLike = 0, b: RatLike = 0) -> None:
        # floats are rejected rather than converted: Fraction(0.1) is the
        # binary expansion, not 1/10, and nothing here may be approximate
        if isinstance(a, float) or isinstance(b, float):
            raise TypeError("QuadExt parts must be exact (int or Fraction)")
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QuadExt is immutable")

    @staticmethod
    def of(value: QuadLike) -> QuadExt:
        if isinstance(value, QuadExt):
            return value
        return QuadExt(value)

    # -- predicates ------------------------------------------------------

    def is_rational(self) -> bool:
        return self.b == 0

    def is_integer(self) -> bool:
        return self.b == 0 and self.a.denominator == 1

    def sign(self) -> int:
        """Sign of the real number a + b*sqrt(21), computed exactly.

        With mixed-sign parts the root term dominates exactly when
        21*b**2 > a**2, so the answer is read off an integer comparison.
        """
        sa = (self.a > 0) - (self.a < 0)
        sb = (self.b > 0) - (self.b < 0)
        if sb == 0:
            return sa
        if sa == 0 or sa == sb:
            return sb
        return sa if self.a * self.a > 21 * self.b * self.b else sb

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: QuadLike) -> QuadExt:
        o = QuadExt.of(other)
        return QuadExt(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other: QuadLike) -> QuadExt:
        o = QuadExt.of(other)
        return QuadExt(self.a - o.a, self.b - o.b)

    def __rsub__(self, other: QuadLike) -> QuadExt:
        return QuadExt.of(other) - self

    def __neg__(self) -> QuadExt:
        return QuadExt(-self.a, -self.b)

    def __mul__(self, other: QuadLike) -> QuadExt:
        o = QuadExt.of(other)
        return QuadExt(self.a * o.a + 21 * self.b * o.b,
                       self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def inverse(self) -> QuadExt:
        norm = self.a * self.a - 21 * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt(21))")
        return QuadExt(self.a / norm, -self.b / norm)

    def __truediv__(self, other: QuadLike) -> QuadExt:
        return self * QuadExt.of(other).inverse()

    def __rtruediv__(self, other: QuadLike) -> QuadExt:
        return QuadExt.of(other) * self.inverse()

    def conjugate(self) -> QuadExt:
        return QuadExt(self.a, -self.b)

    # -- comparison ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = QuadExt(other)
        if not isinstance(other, QuadExt):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __lt__(self, other: QuadLike) -> bool:
        return (self - QuadExt.of(other)).sign() < 0

    def __le__(self, other: QuadLike) -> bool:
        return (self - QuadExt.of(other)).sign() <= 0

    def __gt__(self, other: QuadLike) -> bool:
        return (self - QuadExt.of(other)).sign() > 0

    def __ge__(self, other: QuadLike) -> bool:
        return (self - QuadExt.of(other)).sign() >= 0

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __repr__(self) -> str:
        return f"QuadExt({self.a!r}, {self.b!r})"

    def __str__(self) -> str:
        return quad_to_text(self)

    def __float__(self) -> float:
        return quad_to_float(self)


ZERO = QuadExt(0)
ONE = QuadExt(1)
HALF = QuadExt(Fraction(1, 2))


def quad_compare(u: QuadLike, v: QuadLike) -> int:
    """Exact sign of u - v as a real number: -1, 0, or +1."""
    return (QuadExt.of(u) - QuadExt.of(v)).sign()


def strip_root() -> QuadExt:
    """The scissor-cut width x = (-3 + sqrt(21))/6.

    This is the positive root of x**2 + x - 1/3 = 0; the other root is
    -1 - x.  Both facts are exercised by the test suite.
    """
    return QuadExt(Fraction(-1, 2), Fraction(1, 6))


def quad_to_float(u: QuadLike) -> float:
    """Nearest-float approximation of u, accurate to a few ulp.

    Brackets sqrt(21) between exact rationals and tightens the bracket
    until both endpoints round to the same float, so cancellation between
    the rational and root parts cannot poison the result.  Raises
    ``OverflowError`` for values outside float range (never saturates).
    """
    u = QuadExt.of(u)
    if u.b == 0:
        return float(u.a)
    prec = 64
    while prec <= 1 << 14:
        scale = 1 << prec
        root_lo = isqrt(21 * scale * scale)  # root_lo/scale <= sqrt(21)
        if u.b > 0:
            lo = u.a + u.b * Fraction(root_lo, scale)
            hi = u.a + u.b * Fraction(root_lo + 1, scale)
        else:
            lo = u.a + u.b * Fraction(root_lo + 1, scale)
            hi = u.a + u.b * Fraction(root_lo, scale)
        flo, fhi = float(lo), float(hi)
        if flo == fhi:
            return flo
        prec *= 2
    return flo  # bracket straddles a rounding boundary; within one ulp


def rat_to_text(r: Fraction) -> str:
    if r.denominator == 1:
        return str(r.numerator)
    return f"{r.numerator}/{r.denominator}"


def quad_to_text(u: QuadLike) -> str:
    """Canonical text form: "p/q" when rational, else "p/q+r/s*sqrt21".

    Signs live in the numerators; "/1" is omitted.  ``quad_from_text``
    round-trips this bit-exactly.
    """
    u = QuadExt.of(u)
    if u.b == 0:
        return rat_to_text(u.a)
    return f"{rat_to_text(u.a)}+{rat_to_text(u.b)}*sqrt21"


def quad_from_text(text: str) -> QuadExt:
    """Inverse of ``quad_to_text``: only its canonical output is accepted
    (ASCII digits, reduced, no "/1", "-0" or zero root part)."""
    m = _TEXT_RE.match(text)
    if m is None:
        raise ValueError(f"not a Q(sqrt(21)) literal: {text!r}")
    a = Fraction(int(m.group("an")), int(m.group("ad") or 1))
    if m.group("bn") is None:
        value = QuadExt(a)
    else:
        value = QuadExt(a, Fraction(int(m.group("bn")), int(m.group("bd") or 1)))
    if quad_to_text(value) != text:
        raise ValueError(f"not the canonical form {quad_to_text(value)!r}: {text!r}")
    return value
