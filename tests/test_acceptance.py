"""Acceptance suite: one test per criterion of ``powersums.verify``, run at
the acceptance ranges.

Every test prints a single ACCEPT line (visible with ``pytest -s``) and
enforces its time budget.  All comparisons are exact; the only tolerances
in this file are wall-clock limits.
"""

from __future__ import annotations

import time
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

from powersums import figurate, pyramid, render, verify
from powersums.exact import QuadExt


def _accept(number: int, budget_seconds: float) -> None:
    criterion = verify.CRITERIA[number - 1]
    assert criterion.number == number
    start = time.perf_counter()
    failure = criterion.run(None)
    elapsed = time.perf_counter() - start
    print(f"ACCEPT-{number:02d} {'PASS' if failure is None else 'FAIL'} "
          f"{criterion.label} ({elapsed:.2f}s / budget {budget_seconds:g}s)")
    assert failure is None, f"criterion {number} failed: {failure}"
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded budget: {elapsed:.2f}s")


def test_criterion_01_bernoulli_fidelity():
    _accept(1, 1.0)


def test_criterion_02_bernoullis_boast():
    _accept(2, 1.0)


def test_criterion_03_faulhaber_vs_oracle():
    _accept(3, 10.0)


def test_criterion_04_identity_registry_sweep():
    _accept(4, 30.0)


def test_criterion_05_section_partitions():
    _accept(5, 60.0)


def test_criterion_06_certificate_suite():
    _accept(6, 300.0)


def test_criterion_07_mutation_sensitivity():
    _accept(7, 60.0)


def test_criterion_08_quadratic_field_facts():
    _accept(8, 1.0)


def test_criterion_09_final_assembly():
    _accept(9, 120.0)


def test_criterion_10_rendering_determinism():
    _accept(10, 10.0)


def _drop_a_cell(cells):
    *sections, last = pyramid.main_sections(cells)
    return [*sections, pyramid.CellSet(last.dimension,
                                       last.cells - {min(last.cells)})]


def _fails(report):
    return lambda *args: report


# (criterion, name in verify's namespace, planted fault)
FAULTS = [
    (1, "bernoulli_table", lambda upto: [Fraction(0)] * (upto + 1)),
    (2, "faulhaber", lambda p, n: figurate.faulhaber(p, n) + 1),
    (3, "faulhaber", lambda p, n: figurate.faulhaber(p, n) + 1),
    (4, "evaluate_identity", _fails(SimpleNamespace(holds=False))),
    (5, "main_sections", _drop_a_cell),
    (6, "check_certificate", _fails(SimpleNamespace(ok=False))),
    (6, "AREAS", {**verify.AREAS, "GAUSS_RECT": ("target_area", lambda n: n * n)}),
    (7, "mutate_piece", lambda data, rng: (data, "no change")),
    (8, "strip_root", lambda: QuadExt(Fraction(1, 3))),
    (9, "full_theorem_report", _fails(SimpleNamespace(holds=False, lhs=0))),
    (10, "emit_figure", lambda spec: render.emit_figure(spec) + " "),
]


@pytest.mark.parametrize("number,name,fault", FAULTS,
                         ids=[f"{number:02d}-{name}" for number, name, _ in FAULTS])
def test_each_criterion_can_fail(number, name, fault, monkeypatch):
    monkeypatch.setattr(verify, name, fault)
    failure = verify.CRITERIA[number - 1].run(2)
    assert isinstance(failure, str) and "\n" not in failure


def test_criterion_05_reports_a_secondary_section(monkeypatch):
    """A secondary section that loses a cell is reported with its pyramid
    and axis.  Only a section of two or more cells loses one here, so
    P_3(1), whose sections are single cells, passes and P_3(2) fails."""
    def drop_a_cell(p, axis):
        first, *rest = pyramid.secondary_sections(p, axis)
        if len(first) > 1:
            first = pyramid.CellSet(first.dimension, first.cells - {min(first.cells)})
        return [first, *rest]

    monkeypatch.setattr(verify, "secondary_sections", drop_a_cell)
    assert verify.CRITERIA[4].run(2) == "P_3(2): secondary sections along axis 2"


def test_criterion_08_reports_the_scissor_factor_row(monkeypatch):
    """Criterion 08 evaluates the registry's SCISSOR_FACTOR row rather than
    restating it, so a wrong form there is reported as that row's report."""
    _params, form = figurate.REGISTRY["SCISSOR_FACTOR"]

    def wrong_at_7(n):
        lhs, rhs = form(n)
        return (lhs + 1 if n == 7 else lhs), rhs

    monkeypatch.setitem(figurate.REGISTRY, "SCISSOR_FACTOR", (("n",), wrong_at_7))
    row = figurate.evaluate_identity("SCISSOR_FACTOR", {"n": 7})
    assert not row.holds
    assert verify.CRITERIA[7].run(None) == str(row)


def test_criterion_08_reports_a_root_of_the_wrong_sign(monkeypatch):
    other = QuadExt(-1) - verify.strip_root()  # x^2 + x = 1/3 holds, x < 0
    monkeypatch.setattr(verify, "strip_root", lambda: other)
    assert verify.CRITERIA[7].run(None) == (
        f"strip root {other} is not the positive root of x^2 + x = 1/3")


def test_criterion_09_reports_a_sampled_final_assembly_row(monkeypatch):
    """The sampled FINAL_ASSEMBLY rows go through ``verify``'s own
    ``evaluate_identity``, so a wrong row is reported as that row's report.
    The pipeline calls the ``generators`` binding, so it still passes."""
    evaluate = verify.evaluate_identity

    def wrong_at_20(name, params):
        report = evaluate(name, params)
        return replace(report, holds=False) if params["n"] == 20 else report

    monkeypatch.setattr(verify, "evaluate_identity", wrong_at_20)
    row = replace(evaluate("FINAL_ASSEMBLY", {"n": 20}), holds=False)
    assert verify.CRITERIA[8].run(1) == str(row)


@pytest.mark.parametrize("max_n, error", [(0, ValueError), (-3, ValueError),
                                          (True, TypeError), ("x", TypeError)],
                         ids=["0", "-3", "True", "x"])
@pytest.mark.parametrize("number", range(1, 11))
def test_a_bound_that_is_not_a_count_is_refused(number, max_n, error):
    """No criterion passes having checked less than n = 1, whether or not
    it has a range of n to cut."""
    with pytest.raises(error, match="max_n must be"):
        verify.CRITERIA[number - 1].run(max_n)
