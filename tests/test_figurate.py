"""Bernoulli numbers, Faulhaber's formula, and the identity registry."""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest

from powersums.exact import QuadExt
from powersums.figurate import (
    ConstraintViolated,
    IDENTITY_NAMES,
    MissingParameter,
    REGISTRY,
    bernoulli,
    bernoulli_table,
    evaluate_identity,
    faulhaber,
    lemma_rows,
    odd_weighted_squares,
    sum_powers_bruteforce,
    truncated_power_sum,
)
from powersums.verify import BERNOULLI, BOAST


def test_bernoulli_matches_frozen_table():
    assert bernoulli_table(15) == [Fraction(b) for b in BERNOULLI]
    assert [bernoulli(m) for m in range(16)] == bernoulli_table(15)
    assert bernoulli(1) == Fraction(1, 2)
    assert bernoulli(13) == 0


def test_bernoulli_recursion_invariant():
    from math import comb
    for m in range(0, 20):
        total = sum(comb(m + 1, i) * bernoulli(i) for i in range(m + 1))
        assert total == m + 1


def test_bernoulli_odd_values_vanish():
    assert all(bernoulli(2 * k + 1) == 0 for k in range(1, 12))


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_sum_powers_examples():
    assert sum_powers_bruteforce(3, 3) == 36  # 1 + 8 + 27
    assert sum_powers_bruteforce(4, 0) == 0
    p, n, total = BOAST
    assert sum_powers_bruteforce(p, n) == total


def test_faulhaber_examples():
    assert faulhaber(2, 4) == 30  # 1 + 4 + 9 + 16
    assert faulhaber(4, 3) == 98  # 1 + 16 + 81
    assert faulhaber(1, 0) == 0
    p, n, total = BOAST
    assert faulhaber(p, n) == total


def test_faulhaber_agrees_with_bruteforce():
    for p in range(0, 9):
        for n in range(0, 60):
            assert faulhaber(p, n) == sum_powers_bruteforce(p, n), (p, n)


def test_faulhaber_is_integer_valued():
    for p in range(0, 7):
        for n in range(0, 30):
            assert faulhaber(p, n).denominator == 1


def test_registry_spec_examples():
    r = evaluate_identity("ROWS_COLS", {"p": 1, "n": 3})
    assert (r.lhs, r.rhs) == (QuadExt(14), QuadExt(14)) and r.holds
    r = evaluate_identity("ARCHIMEDES_GEN", {"n": 2})
    assert (r.lhs, r.rhs) == (QuadExt(85), QuadExt(85)) and r.holds
    r = evaluate_identity("ALMOST_SQUARE", {"m": 2, "n": 3})
    assert (r.lhs, r.rhs) == (QuadExt(14), QuadExt(14)) and r.holds
    r = evaluate_identity("SCISSOR_FACTOR", {"n": 2})
    assert r.lhs == QuadExt(Fraction(17, 3)) and r.holds
    r = evaluate_identity("NICOMACHUS", {"n": 1})
    assert (r.lhs, r.rhs) == (QuadExt(1), QuadExt(1)) and r.holds


def test_registry_full_sweep_small():
    for name in IDENTITY_NAMES:
        params_needed, _ = REGISTRY[name]
        for n in range(1, 26):
            if "m" in params_needed:
                cases = [{"n": n, "m": m} for m in range(1, n + 1)]
            else:
                cases = [{"n": n}]
            for case in cases:
                if "p" in params_needed:
                    for p in range(0, 5):
                        assert evaluate_identity(name, {**case, "p": p}).holds
                else:
                    assert evaluate_identity(name, case).holds


def test_truncated_against_direct_double_sum():
    # independent oracle: sum the truncated triangular rows literally
    for n in range(1, 15):
        for m in range(1, n + 1):
            for p in range(0, 4):
                rows = [sum(k**p for k in range(j, n + 1))
                        for j in range(m, n + 1)]
                full_row = sum(k**p for k in range(m, n + 1))
                expected = (m - 1) * full_row + sum(rows)
                lhs = sum(k ** (p + 1) for k in range(m, n + 1))
                assert lhs == expected
                report = evaluate_identity("TRUNCATED", {"p": p, "m": m, "n": n})
                assert report.holds and report.lhs == QuadExt(lhs)


def test_rows_cols_against_its_earlier_suffix_loop():
    # the loop ROWS_COLS had before it became TRUNCATED at m = 1
    for p in range(11):
        for n in range(1, 61):
            suffix = rhs = 0
            for k in range(n, 0, -1):  # rhs = sum over m of (m^p + ... + n^p)
                suffix += k**p
                rhs += suffix
            report = evaluate_identity("ROWS_COLS", {"p": p, "n": n})
            assert report.holds and report.rhs == QuadExt(rhs)
            assert report.lhs == QuadExt(sum_powers_bruteforce(p + 1, n))
            assert report.parameters == {"p": p, "n": n}


def test_lemma_rows_are_the_truncated_sums():
    for p in range(5):
        for n in range(0, 12):
            for m in range(1, n + 2):
                assert lemma_rows(p, m, n) == [truncated_power_sum(p, j, n)
                                               for j in range(m, n + 1)]


def test_final_assembly_is_rational_despite_irrational_route():
    for n in (1, 2, 7, 25):
        report = evaluate_identity("FINAL_ASSEMBLY", {"n": n})
        assert report.holds
        assert report.rhs.b == 0
        assert report.rhs == QuadExt(5 * sum_powers_bruteforce(4, n))


def test_odd_weighted_squares_matches_archimedes_gen():
    for n in range(1, 40):
        assert (5 * sum_powers_bruteforce(4, n)
                == n**3 * (n + 1) ** 2 + odd_weighted_squares(n))


def test_missing_parameter_and_constraints():
    with pytest.raises(MissingParameter):
        evaluate_identity("ALMOST_SQUARE", {"n": 3})
    with pytest.raises(ConstraintViolated):
        evaluate_identity("ALMOST_SQUARE", {"n": 3, "m": 4})
    with pytest.raises(ConstraintViolated):
        evaluate_identity("ALMOST_SQUARE", {"n": 3, "m": 0})
    with pytest.raises(ConstraintViolated):
        evaluate_identity("TRIANGULAR", {"n": 0})
    with pytest.raises(ConstraintViolated):
        evaluate_identity("ROWS_COLS", {"n": 3, "p": -1})
    with pytest.raises(ValueError):
        evaluate_identity("NOT_A_ROW", {"n": 3})


@pytest.mark.parametrize("value, shown", [
    (3.9, "3.9"), (True, "True"), (Fraction(7, 2), "Fraction(7, 2)"),
    ("12", "'12'"), ("9" * 4000, "'" + "9" * 199 + "... (4002 characters)"),
], ids=["float", "bool", "fraction", "str", "long-str"])
def test_a_parameter_that_is_not_an_int_is_refused(value, shown):
    with pytest.raises(ConstraintViolated) as refused:
        evaluate_identity("NICOMACHUS", {"n": value})
    assert str(refused.value) == f"NICOMACHUS: n must be an int, got {shown}"
    with pytest.raises(ConstraintViolated):
        evaluate_identity("ALMOST_SQUARE", {"n": 5, "m": value})


@pytest.mark.parametrize("call, shown", [
    (lambda: faulhaber(True, 3), "faulhaber: p must be an int, got True"),
    (lambda: faulhaber(2, True), "faulhaber: n must be an int, got True"),
    (lambda: faulhaber(2, 3.0), "faulhaber: n must be an int, got 3.0"),
    (lambda: bernoulli(True), "bernoulli: m must be an int, got True"),
    (lambda: bernoulli_table(2.0), "bernoulli_table: upto must be an int, got 2.0"),
    (lambda: sum_powers_bruteforce(2.0, 3),
     "sum_powers_bruteforce: p must be an int, got 2.0"),
    (lambda: sum_powers_bruteforce(2, "9" * 4000),
     "sum_powers_bruteforce: n must be an int, got '" + "9" * 199
     + "... (4002 characters)"),
    (lambda: truncated_power_sum(2, True, 3),
     "truncated_power_sum: m must be an int, got True"),
    (lambda: lemma_rows(True, 1, 3), "lemma_rows: p must be an int, got True"),
    (lambda: odd_weighted_squares(True),
     "odd_weighted_squares: n must be an int, got True"),
], ids=["faulhaber-p", "faulhaber-n", "faulhaber-float-n", "bernoulli",
        "bernoulli_table", "bruteforce-p", "bruteforce-long-str",
        "truncated_power_sum", "lemma_rows", "odd_weighted_squares"])
def test_sums_never_coerce_a_value_that_is_not_an_int(call, shown):
    with pytest.raises(TypeError) as refused:
        call()
    assert str(refused.value) == shown


@pytest.mark.parametrize("call, shown", [
    (lambda: faulhaber(-1, 3), "faulhaber: p must be >= 0, got -1"),
    (lambda: odd_weighted_squares(-2), "odd_weighted_squares: n must be >= 0, got -2"),
    (lambda: lemma_rows(2, 1, -1), "lemma_rows: n must be >= 0, got -1"),
], ids=["faulhaber-p", "odd_weighted_squares", "lemma_rows"])
def test_sums_refuse_a_negative_value(call, shown):
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == shown


def test_the_count_guard_is_written_once():
    """Every count parameter is refused by ``figurate._naturals``; the only
    other text of the rule is ``evaluate_identity``'s, whose class differs."""
    src = Path(__file__).parents[1] / "src"
    found = {path.relative_to(src).as_posix():
             path.read_text(encoding="utf-8").count("must be an int")
             for path in src.rglob("*.py")}
    assert {path: k for path, k in found.items() if k} == {
        "powersums/figurate.py": 2}


def test_report_string_form():
    text = str(evaluate_identity("NICOMACHUS", {"n": 6}))
    assert "441 = 441" in text and "HOLDS" in text


def test_bernoulli_memo_is_thread_safe():
    import threading

    results = []

    def worker(m):
        results.append((m, bernoulli(m)))

    threads = [threading.Thread(target=worker, args=(m,))
               for m in (40, 35, 50, 45) * 4]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for m, value in results:
        assert value == bernoulli(m)
