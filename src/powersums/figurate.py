"""Exact evaluation of the power-sum identities.

Bernoulli numbers (B_1 = +1/2 convention), Faulhaber's closed formula,
and a registry of every named identity the dissections realise.  Every
closed form here can be checked against a literal-summation oracle; the
registry reports both sides exactly.

``_naturals`` is the one guard of a count (an int, never a bool or float,
and at least its floor) for the sums here, ``pyramid``, the generators,
``render`` and ``verify``; ``evaluate_identity`` refuses in its own class.

Note on convention: the recursion sum_{i<=m} C(m+1, i) B_i = m + 1 forces
B_1 = +1/2, unlike the B_1 = -1/2 ("first kind") convention common in
reference tables.  Even-index values agree between the two.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb
from typing import Callable, Mapping

from .exact import QuadExt, Rat, strip_root
from .kernel import bounded


class IdentityError(Exception):
    """Base for registry evaluation failures."""


class MissingParameter(IdentityError):
    pass


class ConstraintViolated(IdentityError):
    pass


class UnexpectedParameter(IdentityError):
    pass


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of evaluating one named identity at given parameters."""

    identity_name: str
    parameters: dict[str, int]
    lhs: QuadExt
    rhs: QuadExt
    holds: bool

    def __str__(self) -> str:
        params = " ".join(f"{k}={v}" for k, v in self.parameters.items())
        verdict = "HOLDS" if self.holds else "FAILS"
        return f"{self.identity_name} {params}: {self.lhs} = {self.rhs} {verdict}"


def _report(name: str, params: Mapping[str, int],
            lhs: QuadExt, rhs: QuadExt) -> IdentityReport:
    return IdentityReport(name, dict(params), lhs, rhs, lhs == rhs)


# -- sums and Bernoulli numbers -----------------------------------------


def _naturals(where: str, floor: int | None = 0,
              below: type[ValueError] = ValueError, /, **values: object) -> None:
    """The one guard of a count: refuse each of ``values`` that is not an
    int (a bool or 2.0 is never coerced) with ``TypeError``, or is under
    ``floor`` (None: any int) with ``below``.  Each message starts with
    ``where`` (a prefix such as ``"faulhaber: "``, or empty), names the
    value and echoes it through ``bounded``, and is made only on refusal."""
    for key, value in values.items():
        if type(value) is not int:
            raise TypeError(f"{where}{key} must be an int, got {bounded(repr(value))}")
        if floor is not None and value < floor:
            raise below(f"{where}{key} must be >= {floor}, got {bounded(str(value))}")


def sum_powers_bruteforce(p: int, n: int) -> int:
    """S_p(n) = 1**p + 2**p + ... + n**p by literal summation."""
    _naturals("sum_powers_bruteforce: ", p=p, n=n)
    return sum(k**p for k in range(1, n + 1))


def truncated_power_sum(p: int, m: int, n: int) -> int:
    """m**p + (m+1)**p + ... + n**p (empty when m > n)."""
    _naturals("truncated_power_sum: ", p=p, m=m, n=n)
    return sum(k**p for k in range(m, n + 1))


def lemma_rows(p: int, m: int, n: int) -> list[int]:
    """The rows of the rows/columns lemma from m: [j**p + ... + n**p for
    j = m..n], by one running sum from k = n down to m (empty when m > n).
    Summed, the rows from m = 1 give S_(p+1)(n)."""
    _naturals("lemma_rows: ", p=p, m=m, n=n)
    return list(accumulate(k**p for k in range(n, m - 1, -1)))[::-1]


def odd_weighted_squares(n: int) -> int:
    """1*1**2 + 3*2**2 + ... + (2n-1)*n**2, the excess-layer cell count."""
    _naturals("odd_weighted_squares: ", n=n)
    return sum((2 * k - 1) * k * k for k in range(1, n + 1))


#: Largest m of B_m, so also the largest p of ``faulhaber``: the O(m^2)
#: big-rational recursion takes 0.9 s to reach B_400 (2-core x86, Python
#: 3.11).  The criteria use B_0..B_15 and p <= 10.
MAX_BERNOULLI = 400

_BERNOULLI: list[Fraction] = [Fraction(1)]
_BERNOULLI_LOCK = threading.Lock()


def bernoulli(m: int) -> Rat:
    """B_m under the sum_{i<=m} C(m+1, i) B_i = m+1 recursion (B_1 = +1/2)."""
    _naturals("bernoulli: ", m=m)
    if m > MAX_BERNOULLI:
        raise ValueError(f"too large: Bernoulli numbers are computed up to "
                         f"B_{MAX_BERNOULLI}")
    if m < len(_BERNOULLI):
        return _BERNOULLI[m]
    with _BERNOULLI_LOCK:
        while len(_BERNOULLI) <= m:
            k = len(_BERNOULLI)
            acc = sum(comb(k + 1, i) * _BERNOULLI[i] for i in range(k))
            _BERNOULLI.append(Fraction(k + 1 - acc, k + 1))
    return _BERNOULLI[m]


def bernoulli_table(upto: int) -> list[Rat]:
    """B_0 .. B_upto as a list."""
    _naturals("bernoulli_table: ", upto=upto)
    bernoulli(upto)
    return _BERNOULLI[: upto + 1]


#: Largest (p + 1) * n.bit_length() of ``faulhaber``.  S_p(n) < n**(p+1)
#: then has at most 14,000 bits, so it prints within Python's default
#: 4,300-digit int-to-text limit; at this budget one sum takes at most
#: 0.02 s (p = 400, 2-core x86, Python 3.11).  The criteria and the
#: benchmark use at most 11 * 10 = 110.
MAX_FAULHABER_BITS = 14_000


def faulhaber(p: int, n: int) -> Rat:
    """S_p(n) via the closed formula (1/(p+1)) sum C(p+1,j) B_j n^(p+1-j)."""
    _naturals("faulhaber: ", p=p, n=n)
    # a p over MAX_BERNOULLI is refused by bernoulli_table, with its own message
    if p <= MAX_BERNOULLI and (p + 1) * n.bit_length() > MAX_FAULHABER_BITS:
        raise ValueError(f"too large: S_p(n) is evaluated for "
                         f"(p + 1) * n.bit_length() <= {MAX_FAULHABER_BITS}")
    total = sum(comb(p + 1, j) * b * n ** (p + 1 - j)
                for j, b in enumerate(bernoulli_table(p)))
    return Fraction(total, p + 1)


# -- identity registry ---------------------------------------------------

_Q = QuadExt
_Pair = tuple[QuadExt, QuadExt]


def _odd_sum_square(n: int) -> _Pair:
    return _Q(sum(2 * k - 1 for k in range(1, n + 1))), _Q(n * n)


def _triangular(n: int) -> _Pair:
    return _Q(sum_powers_bruteforce(1, n)), _Q(Fraction(n * (n + 1), 2))


def _sum_squares(n: int) -> _Pair:
    return _Q(sum_powers_bruteforce(2, n)), _Q(Fraction(n * (n + 1) * (2 * n + 1), 6))


def _archimedes(n: int) -> _Pair:
    lhs = sum_powers_bruteforce(1, n) + (n + 1) * n * n
    return _Q(lhs), _Q(3 * sum_powers_bruteforce(2, n))


def _nicomachus(n: int) -> _Pair:
    t = sum_powers_bruteforce(1, n)
    return _Q(sum_powers_bruteforce(3, n)), _Q(t * t)


def _squares_half(n: int) -> _Pair:
    rhs = Fraction(n) * (n + 1) * (Fraction(n) + Fraction(1, 2)) / 3
    return _Q(sum_powers_bruteforce(2, n)), _Q(rhs)


def _cubes_closed(n: int) -> _Pair:
    return _Q(sum_powers_bruteforce(3, n)), _Q(Fraction(n * n * (n + 1) ** 2, 4))


def _fourth_factored(n: int) -> _Pair:
    rhs = (Fraction(n) * (n + 1) * (Fraction(n) + Fraction(1, 2))
           * (Fraction(n * n + n) - Fraction(1, 3)) / 5)
    return _Q(sum_powers_bruteforce(4, n)), _Q(rhs)


def _fourth_integer_form(n: int) -> _Pair:
    rhs = Fraction(n * (n + 1) * (2 * n + 1) * (3 * n * n + 3 * n - 1), 30)
    return _Q(sum_powers_bruteforce(4, n)), _Q(rhs)


def _truncated(p: int, m: int, n: int) -> _Pair:
    # Row layout of the truncated lemma: the full row m^p+...+n^p repeated
    # m-1 times, then the triangular block of suffix sums from m.
    rows = lemma_rows(p, m, n)
    return _Q(truncated_power_sum(p + 1, m, n)), _Q((m - 1) * rows[0] + sum(rows))


def _almost_square(m: int, n: int) -> _Pair:
    lhs = 2 * truncated_power_sum(1, m, n) + m * m
    rhs = (n + 1) ** 2 - (n + 1 - m)
    return _Q(lhs), _Q(rhs)


def _fourth_as_sq_times_sq(n: int) -> _Pair:
    rhs = sum((k * k) * (k * k) for k in range(1, n + 1))
    return _Q(sum_powers_bruteforce(4, n)), _Q(rhs)


def _archimedes_gen(n: int) -> _Pair:
    lhs = 5 * sum_powers_bruteforce(4, n)
    rhs = n**3 * (n + 1) ** 2 + odd_weighted_squares(n)
    return _Q(lhs), _Q(rhs)


def _step2_split(n: int) -> _Pair:
    return _Q(n * n * (n + 1) ** 2), _Q((n * (n + 1)) * (n * (n + 1)))


def _scissor_factor(n: int) -> _Pair:
    x = strip_root()
    lhs = (_Q(n) - x) * (_Q(n + 1) + x)
    rhs = _Q(Fraction(n * n + n) - Fraction(1, 3))
    return lhs, rhs


def _top_layer_double(n: int) -> _Pair:
    lhs = 2 * odd_weighted_squares(n)
    rhs = n * n * (n + 1) ** 2 - 2 * sum_powers_bruteforce(2, n)
    return _Q(lhs), _Q(rhs)


def _r_balance(n: int) -> _Pair:
    leftover = Fraction(1, 3)
    lhs = Fraction(n * n * (n + 1) ** 2) - leftover * n * (n + 1)
    rhs = 2 * (leftover * n * n * (n + 1) + odd_weighted_squares(n))
    return _Q(lhs), _Q(rhs)


def _final_assembly(n: int) -> _Pair:
    # The right side is assembled through irrational intermediates; the
    # sqrt(21) part cancels exactly.
    x = strip_root()
    lhs = _Q(5 * sum_powers_bruteforce(4, n))
    rhs = ((_Q(n) + _Q(Fraction(1, 2))) * _Q(n * (n + 1))
           * (_Q(n) - x) * (_Q(n + 1) + x))
    return lhs, rhs


REGISTRY: dict[str, tuple[tuple[str, ...], Callable[..., _Pair]]] = {
    "ODD_SUM_SQUARE": (("n",), _odd_sum_square),
    "TRIANGULAR": (("n",), _triangular),
    "SUM_SQUARES": (("n",), _sum_squares),
    "ARCHIMEDES": (("n",), _archimedes),
    "NICOMACHUS": (("n",), _nicomachus),
    "SQUARES_HALF": (("n",), _squares_half),
    "CUBES_CLOSED": (("n",), _cubes_closed),
    "FOURTH_FACTORED": (("n",), _fourth_factored),
    "FOURTH_INTEGER_FORM": (("n",), _fourth_integer_form),
    "ROWS_COLS": (("p", "n"), lambda p, n: _truncated(p, 1, n)),
    "TRUNCATED": (("p", "m", "n"), _truncated),
    "ALMOST_SQUARE": (("m", "n"), _almost_square),
    "FOURTH_AS_SQ_TIMES_SQ": (("n",), _fourth_as_sq_times_sq),
    "ARCHIMEDES_GEN": (("n",), _archimedes_gen),
    "STEP2_SPLIT": (("n",), _step2_split),
    "SCISSOR_FACTOR": (("n",), _scissor_factor),
    "TOP_LAYER_DOUBLE": (("n",), _top_layer_double),
    "R_BALANCE": (("n",), _r_balance),
    "FINAL_ASSEMBLY": (("n",), _final_assembly),
}

IDENTITY_NAMES = tuple(REGISTRY)

#: Largest n and p of an identity: its brute-force sides sum n powers k**p,
#: which takes 0.5 s at both caps (2-core x86, Python 3.11).  The criteria
#: use n <= 100 (FINAL_ASSEMBLY n <= 10000) and p <= 4.
MAX_IDENTITY_N = 100_000
MAX_IDENTITY_P = 100


def evaluate_identity(name: str, params: Mapping[str, int]) -> IdentityReport:
    """Evaluate a registry identity exactly and report both sides.

    A parameter given as ``None`` is absent.  Raises ``MissingParameter``
    when a required integer is absent, ``UnexpectedParameter`` when one
    the identity does not take is present, and ``ConstraintViolated`` on
    parameters that are not ints (bool included) or out of range (n
    outside 1..MAX_IDENTITY_N, m outside 1..n, p outside 0..MAX_IDENTITY_P).
    """
    if name not in REGISTRY:
        raise ValueError(f"unknown identity: {name!r}")
    wanted, fn = REGISTRY[name]
    for key, value in params.items():
        if value is not None and key not in wanted:
            raise UnexpectedParameter(f"{name} takes no parameter {key!r}")
    args: dict[str, int] = {}
    for key in wanted:
        if key not in params or params[key] is None:
            raise MissingParameter(f"{name} requires parameter {key!r}")
        if type(params[key]) is not int:  # never coerce: int(3.9) is 3
            raise ConstraintViolated(f"{name}: {key} must be an int, "
                                     f"got {bounded(repr(params[key]))}")
        args[key] = params[key]
    if args["n"] < 1:
        raise ConstraintViolated(
            f"{name}: n must be >= 1, got {bounded(str(args['n']))}")
    if args["n"] > MAX_IDENTITY_N:
        raise ConstraintViolated(f"too large: {name} is evaluated for "
                                 f"n <= {MAX_IDENTITY_N}")
    if "m" in args and not 1 <= args["m"] <= args["n"]:
        raise ConstraintViolated(
            f"{name}: m must satisfy 1 <= m <= n, "
            f"got m={bounded(str(args['m']))} n={args['n']}"
        )
    if "p" in args and args["p"] < 0:
        raise ConstraintViolated(
            f"{name}: p must be >= 0, got {bounded(str(args['p']))}")
    if "p" in args and args["p"] > MAX_IDENTITY_P:
        raise ConstraintViolated(f"too large: {name} is evaluated for "
                                 f"p <= {MAX_IDENTITY_P}")
    lhs, rhs = fn(**args)
    return _report(name, args, lhs, rhs)
