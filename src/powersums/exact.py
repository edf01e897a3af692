"""Exact arithmetic: rationals and the real quadratic field Q(sqrt(21)).

Rationals are plain ``fractions.Fraction`` values (always canonical:
positive denominator, reduced).  ``QuadExt`` adds sqrt(r), r = ``RADICAND``
of the kernel, read as it computes, for the scissor-cut width
x = (-3 + sqrt(21))/6 -- the positive root of x**2 + x - 1/3 = 0 -- and for
every coordinate of the constructions; its text ``sqrt21`` is fixed at import.

The builders, the checker's kernel and the figures compute on lattice ints,
so a ``QuadExt`` serves the edges only: the certificate object views, the
identity registry and failure reports.  ``quad_from_triple`` is the one way
from a lattice point (A, B) over D to a ``QuadExt``, but for the failure
reports' ``QuadExt(Fraction, Fraction)``, which perfbench's traced ``check``
counts as ``QuadExt.__init__`` calls.  ``triple_to_text`` is the one
formatter of a value: the lattice writer calls it, and so does
``quad_to_text``, which writes a ``QuadExt``, an int or a ``Fraction``.  A
``QuadExt`` is stored as integer numerators over one common denominator (as
FLINT/Antic store ``nf_elem``), so arithmetic, ordering and the text codec
run on ints and build no ``Fraction``.

Values are immutable and hashable.  Comparisons are exact.  Nothing is
coerced: a part or operand is an int (not a bool), a ``Fraction`` or a
``QuadExt``, and anything else, a float, str or bool, raises ``TypeError``.
Floating point is consulted nowhere except ``quad_to_float``, the one way
out to floats, which exists for rendering only.

The module imports the standard library and the kernel only, so the
arithmetic stack (``exact``, ``figurate``, ``pyramid``) loads no part of
``dissect``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import total_ordering
from math import gcd, isqrt
from typing import Union

from . import kernel
from .kernel import bounded, lattice_sign

Rat = Fraction

RatLike = Union[int, Fraction]
QuadLike = Union[int, Fraction, "QuadExt"]

_ROOT, _FIELD = f"sqrt{kernel.RADICAND}", f"Q(sqrt({kernel.RADICAND}))"
# canonical literals only: no "-0", no "/1", no zero root part, ASCII digits
_TEXT_RE = re.compile(
    r"(?P<an>0|-?[1-9][0-9]*)(?:/(?P<ad>[2-9]|[1-9][0-9]+))?"
    rf"(?:\+(?P<bn>-?[1-9][0-9]*)(?:/(?P<bd>[2-9]|[1-9][0-9]+))?\*{_ROOT})?"
)


@total_ordering
class QuadExt:
    """Element a + b*sqrt(r) of Q(sqrt(r)) with exact rational parts.

    Stored as the canonical integer triple (A, B, D): a = A/D, b = B/D,
    D > 0 and gcd(A, B, D) = 1, so equal values have equal triples.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, a: RatLike = 0, b: RatLike = 0) -> None:
        for part in (a, b):
            if type(part) is not int and not isinstance(part, Fraction):
                raise _inexact(part)
        da, db = a.denominator, b.denominator
        # both parts are reduced, so their lcm leaves gcd(A, B, D) = 1
        d = da // gcd(da, db) * db
        _set_a(self, a.numerator * (d // da))
        _set_b(self, b.numerator * (d // db))
        _set_d(self, d)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QuadExt is immutable")

    def __reduce__(self) -> tuple[object, tuple[int, int, int]]:
        # the default restore of slot state would go through __setattr__
        return _new, (self._a, self._b, self._d)

    @staticmethod
    def of(value: QuadLike) -> QuadExt:
        if isinstance(value, QuadExt):
            return value
        return QuadExt(value)  # refuses what is neither int nor Fraction

    @property
    def triple(self) -> tuple[int, int, int]:
        """(A, B, D) with self = (A + B*sqrt(r))/D, D > 0 and
        gcd(A, B, D) = 1."""
        return self._a, self._b, self._d

    @property
    def a(self) -> Fraction:
        """The rational part."""
        return Fraction(self._a, self._d)

    @property
    def b(self) -> Fraction:
        """The sqrt(r) part."""
        return Fraction(self._b, self._d)

    # -- predicates ------------------------------------------------------

    def sign(self) -> int:
        """Sign of the real number a + b*sqrt(r), computed exactly."""
        return lattice_sign(self._a, self._b)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: QuadLike) -> QuadExt:
        a, b, d = _parts(other)
        return _reduced(self._a * d + a * self._d, self._b * d + b * self._d,
                        self._d * d)

    __radd__ = __add__

    def __sub__(self, other: QuadLike) -> QuadExt:
        a, b, d = _parts(other)
        return _reduced(self._a * d - a * self._d, self._b * d - b * self._d,
                        self._d * d)

    def __rsub__(self, other: QuadLike) -> QuadExt:
        return QuadExt.of(other) - self

    def __neg__(self) -> QuadExt:
        return _new(-self._a, -self._b, self._d)

    def __mul__(self, other: QuadLike) -> QuadExt:
        a, b, d = _parts(other)
        sa, sb = self._a, self._b
        return _reduced(sa * a + kernel.RADICAND * sb * b, sa * b + sb * a, self._d * d)

    __rmul__ = __mul__

    # -- comparison ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuadExt):
            return (self._a == other._a and self._b == other._b
                    and self._d == other._d)
        if type(other) is int or isinstance(other, Fraction):
            return (self._b == 0 and self._a == other.numerator
                    and self._d == other.denominator)
        return NotImplemented

    def __lt__(self, other: QuadLike) -> bool:
        return _compare(self, other) < 0

    def __hash__(self) -> int:
        if self._b == 0:
            # equal to the hash of the int or Fraction of the same value
            return hash(self._a) if self._d == 1 else hash(self.a)
        return hash((self._a, self._b, self._d))

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def __repr__(self) -> str:
        return f"QuadExt({self.a!r}, {self.b!r})"

    def __str__(self) -> str:
        return quad_to_text(self)


_set_a = QuadExt._a.__set__  # type: ignore[attr-defined]
_set_b = QuadExt._b.__set__  # type: ignore[attr-defined]
_set_d = QuadExt._d.__set__  # type: ignore[attr-defined]
_alloc = object.__new__


def _new(a: int, b: int, d: int) -> QuadExt:
    """(a + b*sqrt(r))/d from a triple that is already canonical."""
    u = _alloc(QuadExt)
    _set_a(u, a)
    _set_b(u, b)
    _set_d(u, d)
    return u


def _reduced(a: int, b: int, d: int) -> QuadExt:
    """(a + b*sqrt(r))/d for any d > 0, reduced to canonical form."""
    g = gcd(a, b, d)
    return _new(a // g, b // g, d // g)


def _inexact(value: object) -> TypeError:
    # nothing is converted: a float is approximate (Fraction(0.1) is its
    # binary expansion, not 1/10), and a str or a bool is not a number here
    return TypeError(f"QuadExt takes an int, Fraction or QuadExt, got "
                     f"{bounded(repr(value))}")


def _parts(value: QuadLike) -> tuple[int, int, int]:
    """The canonical triple of a QuadExt, int or Fraction."""
    if isinstance(value, QuadExt):
        return value._a, value._b, value._d
    if type(value) is int or isinstance(value, Fraction):
        return value.numerator, 0, value.denominator
    raise _inexact(value)


def _compare(u: QuadExt, v: QuadLike) -> int:
    """Sign of u - v, from cross-multiplied numerators."""
    a, b, d = _parts(v)
    return lattice_sign(u._a * d - a * u._d, u._b * d - b * u._d)


def quad_compare(u: QuadLike, v: QuadLike) -> int:
    """Exact sign of u - v as a real number: -1, 0, or +1."""
    return _compare(QuadExt.of(u), v)


def strip_root() -> QuadExt:
    """The scissor-cut width x = (-3 + sqrt(21))/6.

    This is the positive root of x**2 + x - 1/3 = 0; the other root is
    -1 - x.  Both facts are exercised by the test suite.
    """
    return QuadExt(Fraction(-1, 2), Fraction(1, 6))


def quad_to_float(u: QuadLike) -> float:
    """Nearest-float approximation of u, accurate to a few ulp.

    Brackets sqrt(r) between exact rationals and tightens the bracket
    until both endpoints round to the same float, so cancellation between
    the rational and root parts cannot poison the result.  Int division
    rounds correctly, so each endpoint is its nearest float.  Raises
    ``OverflowError`` for values outside float range (never saturates).
    """
    a, b, d = _parts(u)
    if b == 0:
        return a / d
    prec = 64
    while prec <= 1 << 14:
        scale = 1 << prec
        root_lo = isqrt(kernel.RADICAND * scale * scale)  # root_lo/scale <= sqrt(r)
        # endpoints (a*scale + b*root)/(d*scale) for root = root_lo, root_lo + 1
        den = d * scale
        lo = a * scale + b * root_lo
        hi = lo + b
        if b < 0:
            lo, hi = hi, lo
        flo, fhi = lo / den, hi / den
        if flo == fhi:
            return flo
        prec *= 2
    return flo  # bracket straddles a rounding boundary; within one ulp


def _ratio_text(num: int, den: int) -> str:
    """num/den (den > 0) in lowest terms, "/1" omitted."""
    g = gcd(num, den)
    if g == den:
        return str(num // den)
    return f"{num // g}/{den // g}"


def quad_to_text(u: QuadLike) -> str:
    """Canonical text form: "p/q" when rational, else "p/q+r/s*sqrt21".

    Signs live in the numerators; "/1" is omitted.  ``quad_from_text``
    round-trips this bit-exactly.
    """
    return triple_to_text(_parts(u))


def triple_to_text(triple: tuple[int, int, int]) -> str:
    """The canonical text of (A + B*sqrt(21))/D for ints A, B and D > 0,
    reduced or not: the inverse of ``triple_from_text``, and the one
    formatter of a value."""
    a, b, d = triple
    if b == 0:
        return _ratio_text(a, d)
    return f"{_ratio_text(a, d)}+{_ratio_text(b, d)}*{_ROOT}"


def triple_from_text(text: str) -> tuple[int, int, int]:
    """The canonical triple (A, B, D) of the value that ``quad_from_text``
    reads from ``text``, without building a ``QuadExt``."""
    m = _TEXT_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"not a canonical {_FIELD} literal: {bounded(repr(text))}")
    an, ad = int(m["an"]), int(m["ad"] or 1)
    bn, bd = (int(m["bn"]), int(m["bd"] or 1)) if m["bn"] else (0, 1)
    if gcd(an, ad) != 1 or gcd(bn, bd) != 1:
        raise ValueError(f"not in lowest terms: {bounded(repr(text))}")
    # both parts are reduced, so their lcm leaves gcd(A, B, D) = 1
    d = ad // gcd(ad, bd) * bd
    return an * (d // ad), bn * (d // bd), d


def quad_from_triple(triple: tuple[int, int, int]) -> QuadExt:
    """(A + B*sqrt(21))/D for ints A, B and D > 0, reduced: the one way
    from a lattice point (A, B) over D to a ``QuadExt``."""
    return _reduced(*triple)


def quad_from_text(text: str) -> QuadExt:
    """Inverse of ``quad_to_text``: only its canonical output is accepted
    (ASCII digits, reduced, no "/1", "-0" or zero root part)."""
    return _new(*triple_from_text(text))
