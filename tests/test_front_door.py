"""The CLI's one front door: one parser per process, one refusal path, no
flag read by nothing, a budget on every unbounded input, and the README's
commands kept runnable."""

from __future__ import annotations

import ast
import shlex
from pathlib import Path

import pytest

from powersums import cli, figurate, pyramid, render
from powersums.cli import main
from powersums.dissect import full_theorem_report, generators
from powersums.dissect.checker import check_certificate
from powersums.dissect.generators import UnsupportedN

HUGE = "1" + "0" * 400  # 10**400


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- one parser, one refusal path ----------------------------------------------


def test_two_calls_build_one_parser(capsys):
    cli._build_parser.cache_clear()
    assert run(capsys, "faulhaber", "--p", "1", "--n", "3")[0] == 0
    assert run(capsys, "bernoulli", "--upto", "2")[0] == 0
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize("refusal", cli._REFUSALS, ids=lambda t: t.__name__)
def test_a_refusal_is_one_error_line_and_exit_3(refusal, monkeypatch, capsys):
    def refuse(p, n):
        raise refusal("no such sum")

    monkeypatch.setattr(figurate, "faulhaber", refuse)
    code, out, err = run(capsys, "faulhaber", "--p", "1", "--n", "3")
    assert (code, out, err) == (3, "", "error: no such sum\n")


def test_any_other_exception_propagates(monkeypatch):
    def crash(p, n):
        raise RuntimeError("a bug")

    monkeypatch.setattr(figurate, "faulhaber", crash)
    with pytest.raises(RuntimeError, match="a bug"):
        main(["faulhaber", "--p", "1", "--n", "3"])


# -- flags that nothing reads ----------------------------------------------------


@pytest.mark.parametrize("argv, message", [
    (("certificate", "GAUSS_RECT", "--n", "2", "--variant", "bijection"),
     "GAUSS_RECT takes no variant"),
    (("figure", "GAUSS", "--n", "2", "--section", "7"),
     "GAUSS takes no section"),
    (("figure", "GAUSS", "--n", "2", "--format", "tikz", "--unit-px", "999"),
     "tikz takes no --unit-px"),
], ids=["certificate", "figure", "figure-tikz-unit-px"])
def test_an_unread_flag_is_refused(argv, message, tmp_path, capsys):
    out = tmp_path / "x.out"
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    assert (code, stdout, err) == (3, "", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (("NICOMACHUS", "--n", "3", "--m", "9", "--p", "4"),
     "NICOMACHUS takes no parameter 'm'"),
    (("ALMOST_SQUARE", "--n", "5", "--m", "2", "--p", "3"),
     "ALMOST_SQUARE takes no parameter 'p'"),
])
def test_an_identity_refuses_a_parameter_it_does_not_take(argv, message,
                                                          capsys):
    assert run(capsys, "identity", *argv) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, flag", [
    (("certificate", "STEP4_TOP", "--n", "2"), ("--variant", "overlap")),
    (("figure", "FIVE_PYR_SECTION", "--n", "2"), ("--section", "1")),
], ids=["certificate", "figure"])
def test_an_unflagged_call_writes_the_default(argv, flag, tmp_path, capsys):
    unflagged, flagged = tmp_path / "unflagged", tmp_path / "flagged"
    assert run(capsys, *argv, "--out", str(unflagged))[0] == 0
    assert run(capsys, *argv, *flag, "--out", str(flagged))[0] == 0
    assert unflagged.read_bytes() == flagged.read_bytes()


# -- budgets -----------------------------------------------------------------------

#: (argv with N for the value under test, the first refused value, message)
BUDGETS = {
    "bernoulli --upto": (
        ("bernoulli", "--upto", "N"), figurate.MAX_BERNOULLI + 1,
        f"too large: Bernoulli numbers are computed up to "
        f"B_{figurate.MAX_BERNOULLI}"),
    "faulhaber --p": (
        ("faulhaber", "--p", "N", "--n", "3"), figurate.MAX_BERNOULLI + 1,
        f"too large: Bernoulli numbers are computed up to "
        f"B_{figurate.MAX_BERNOULLI}"),
    "identity --n": (
        ("identity", "FINAL_ASSEMBLY", "--n", "N"), figurate.MAX_IDENTITY_N + 1,
        f"too large: FINAL_ASSEMBLY is evaluated for "
        f"n <= {figurate.MAX_IDENTITY_N}"),
    "identity --p": (
        ("identity", "ROWS_COLS", "--p", "N", "--n", "3"),
        figurate.MAX_IDENTITY_P + 1,
        f"too large: ROWS_COLS is evaluated for p <= {figurate.MAX_IDENTITY_P}"),
    # the first n whose S_4(n) cells exceed the budget
    "sections --n": (
        ("sections", "--dim", "5", "--n", "N"),
        next(n for n in range(1, 100)
             if pyramid._CELLS[5](n) > pyramid.MAX_PYRAMID_CELLS),
        f"too large: P_5(n) is built for at most "
        f"{pyramid.MAX_PYRAMID_CELLS} cells"),
}


@pytest.mark.parametrize("value", ["cap + 1", "10**400"])
@pytest.mark.parametrize("budget", BUDGETS)
def test_a_value_over_budget_is_refused_before_any_work(budget, value, capsys):
    argv, first_refused, message = BUDGETS[budget]
    text = str(first_refused) if value == "cap + 1" else HUGE
    argv = [text if a == "N" else a for a in argv]
    assert run(capsys, *argv) == (3, "", f"error: {message}\n")


def test_the_sections_budget_counts_the_cells_exactly():
    for d in (2, 3, 4, 5):
        for n in range(1, 7):
            assert len(pyramid.build_pyramid(d, n)) == pyramid._CELLS[d](n)
            assert pyramid._CELLS[d](n) == figurate.faulhaber(d - 1, n)


# -- the README's commands -------------------------------------------------------


def _readme_commands() -> list[str]:
    readme = Path(__file__).parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    # verify-all --max-n 8 runs in test_cli.py
    return [line for line in block.splitlines()
            if line.startswith("powersums ") and "verify-all" not in line]


def test_readme_installs_with_the_line_ci_runs():
    root = Path(__file__).parents[1]
    workflow = (root / ".github" / "workflows" / "tier1.yml").read_text()
    installs = [line.split("run: ", 1)[1] for line in workflow.splitlines()
                if "run: " in line and " install " in line]
    assert installs == ['python -m pip install -e ".[test]"']
    block = (root / "README.md").read_text(encoding="utf-8").split(
        "## Install and test", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    assert [line.split("  #")[0].rstrip() for line in block.splitlines()
            if " install " in line] == installs


def test_every_source_file_parses_as_python_3_10():
    """CI's 3.10 job, as far as the grammar goes: every .py file under
    src/, tests/, scripts/ and perfbench/ parses as Python 3.10.  It checks
    syntax only, not library APIs, and ``feature_version`` is best-effort:
    it refuses newer syntax such as ``except*``."""
    root = Path(__file__).parents[1]
    paths = sorted(path for folder in ("src", "tests", "scripts", "perfbench")
                   for path in (root / folder).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, 10))


def test_readme_cli_examples_exit_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = _readme_commands()
    assert len(lines) >= 9
    for line in lines:  # in order: `check` reads what `certificate` wrote
        assert main(shlex.split(line, comments=True)[1:]) == 0, line


# -- the faulhaber --n budget ----------------------------------------------------


def _first_refused_n(p):
    """The least n whose (p + 1) * n.bit_length() is over the budget."""
    return 2 ** (figurate.MAX_FAULHABER_BITS // (p + 1))


@pytest.mark.parametrize("p, value", [
    (0, "cap + 1"), (10, "cap + 1"), (400, "cap + 1"),
    (10, "10**400"), (400, "10**400"),  # p = 0 admits 10**400
])
def test_faulhaber_n_over_budget_is_refused_before_summing(p, value,
                                                           monkeypatch, capsys):
    def no_sum(upto):
        raise AssertionError("summed")

    monkeypatch.setattr(figurate, "bernoulli_table", no_sum)
    n = str(_first_refused_n(p)) if value == "cap + 1" else HUGE
    assert run(capsys, "faulhaber", "--p", str(p), "--n", n) == (
        3, "", f"error: too large: S_p(n) is evaluated for (p + 1) * "
               f"n.bit_length() <= {figurate.MAX_FAULHABER_BITS}\n")


@pytest.mark.parametrize("p", [0, 10, 400])
def test_faulhaber_budget_admits_a_result_that_prints(p, capsys):
    n = _first_refused_n(p) - 1
    code, out, err = run(capsys, "faulhaber", "--p", str(p), "--n", str(n))
    assert (code, err) == (0, "")
    assert int(out) == figurate.faulhaber(p, n) > 0


# -- out-of-range ints are not echoed whole --------------------------------------

BIG = "1" + "0" * 4000  # 10**4000, within argparse's int-to-text limit


@pytest.mark.parametrize("argv", [
    ("sections", "--dim", "3", "--n", "3", "--secondary", BIG),
    ("sections", "--dim", BIG, "--n", "3"),
    ("sections", "--dim", "3", "--n", "-" + BIG),
    ("certificate", "GAUSS_RECT", "--n", BIG, "--out", "F"),
    ("certificate", "GAUSS_RECT", "--n", "-" + BIG, "--out", "F"),
    ("figure", "GAUSS", "--n", BIG, "--out", "F"),
    ("figure", "GAUSS", "--n", "-" + BIG, "--out", "F"),
    ("figure", "FIVE_PYR_SECTION", "--n", "2", "--section", BIG, "--out", "F"),
    ("identity", "NICOMACHUS", "--n", "-" + BIG),
    ("identity", "TRUNCATED", "--n", "5", "--m", BIG, "--p", "2"),
    ("identity", "ROWS_COLS", "--n", "3", "--p", "-" + BIG),
], ids=lambda argv: " ".join(argv).replace(BIG, "N"))
def test_an_out_of_range_int_is_not_echoed_whole(argv, tmp_path, monkeypatch,
                                                 capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) < 1024
    assert not (tmp_path / "F").exists()


def test_library_refusals_do_not_echo_an_int_whole():
    for refuse in (lambda: full_theorem_report(-int(BIG)),
                   lambda: pyramid.truncated_pyramid(3, 3, int(BIG))):
        with pytest.raises(ValueError) as exc:
            refuse()
        assert len(str(exc.value)) < 1024
    # past the interpreter's int-to-text limit (4,300 digits), each refusal
    # keeps its own class and words and names the int by its size
    huge, gauss = 10**5000, "GAUSS_RECT: cell-level generation supports n <= 100"
    for refuse, kind, prefix in (
            (lambda: generators._gauss_rectangle(huge), UnsupportedN, gauss),
            (lambda: render.emit_figure(render.FigureSpec("GAUSS", huge)),
             UnsupportedN, gauss),
            (lambda: figurate.faulhaber(3, -huge), ValueError,
             "faulhaber: n must be >= 0"),
            (lambda: full_theorem_report(huge), UnsupportedN,
             "FIVE_PYR_LAYERS: cell-level generation supports n <= 10")):
        with pytest.raises(ValueError) as exc:
            refuse()
        assert type(exc.value) is kind
        assert str(exc.value) == f"{prefix}, got an int of 16610 bits"
    report = check_certificate(generators._gauss_rectangle(1).cert._replace(n=huge))
    assert str(report) == ("FAIL malformed: n must be <= 100 for GAUSS_RECT, "
                           "got an int of 16610 bits")
