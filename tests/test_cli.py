"""CLI surface: subcommands, output format, and the exit-code table."""

from __future__ import annotations

import ast
import functools
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import ANY

import pytest

import powersums
from powersums import cli, figurate, verify
from powersums.cli import main
from powersums.dissect import generators
from powersums.dissect import (
    CONSTRUCTIONS,
    dumps_certificate,
    gauss_rectangle,
    loads_certificate,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_identity_nicomachus(capsys):
    code, out, _ = run(capsys, "identity", "NICOMACHUS", "--n", "6")
    assert code == 0
    assert "441 = 441" in out


def test_identity_with_extra_params(capsys):
    code, out, _ = run(capsys, "identity", "TRUNCATED",
                       "--n", "5", "--m", "2", "--p", "3")
    assert code == 0 and "HOLDS" in out


def test_identity_missing_param_is_exit_3(capsys):
    code, _, err = run(capsys, "identity", "ALMOST_SQUARE", "--n", "5")
    assert code == 3 and "requires parameter" in err


def test_bernoulli_listing(capsys):
    code, out, _ = run(capsys, "bernoulli", "--upto", "12")
    assert code == 0
    assert out.splitlines() == [f"B_{m} = {value}"
                                for m, value in enumerate(verify.BERNOULLI[:13])]


def test_faulhaber_boast(capsys):
    p, n, total = verify.BOAST
    code, out, _ = run(capsys, "faulhaber", "--p", str(p), "--n", str(n))
    assert code == 0
    assert out == f"{total}\n"


def test_sections_sizes_and_cells(capsys):
    code, out, _ = run(capsys, "sections", "--dim", "3", "--n", "4")
    assert code == 0 and out.strip() == "sizes: 1 4 9 16"
    code, out, _ = run(capsys, "sections", "--dim", "3", "--n", "4",
                       "--secondary", "2")
    assert code == 0 and out.strip() == "sizes: 10 9 7 4"
    code, out, _ = run(capsys, "sections", "--dim", "2", "--n", "2",
                       "--emit", "cells")
    assert code == 0
    assert out.splitlines() == ["1 0", "2 0", "2 1"]


def test_sections_bad_dimension_is_exit_3(capsys):
    code, _, err = run(capsys, "sections", "--dim", "7", "--n", "3")
    assert code == 3 and "dimension" in err


def test_certificate_roundtrip_and_check(tmp_path, capsys):
    path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "certificate", "THREE_PYR_2D",
                       "--n", "3", "--out", str(path))
    assert code == 0 and str(path) in out
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0 and "PASS" in out


#: (construction, variant) -> its (placements, area) at n = 1, 2, 3
_CERTIFICATE_LINES = {
    ("GAUSS_RECT", None): ((2, "2"), (2, "6"), (2, "12")),
    ("THREE_PYR_2D", None): ((4, "3"), (8, "15"), (12, "42")),
    ("NICOMACHUS_4D_2D", None): ((4, "4"), (17, "36"), (41, "144")),
    ("FIVE_PYR_LAYERS", None): ((5, "5"), (37, "85"), (126, "490")),
    ("STEP2_RESHAPE", None): ((2, "4"), (16, "72"), (54, "432")),
    ("STEP3_SCISSOR", None): ((8, "4"), (48, "72"), (144, "432")),
    ("STEP4_TOP", "overlap"): ((4, "4"), (12, "36"), (24, "144")),
    ("STEP4_TOP", "bijection"): ((1, "1"), (13, "13"), (58, "58")),
    ("STEP4_TOP", "bijection-full"): ((1, "1"), (12, "12"), (45, "45")),
}


@pytest.mark.parametrize("name,variant", _CERTIFICATE_LINES)
def test_the_certificate_line_is_pinned(name, variant, tmp_path, capsys):
    flags = () if variant is None else ("--variant", variant)
    path = tmp_path / "x.json"
    for n, (placements, area) in enumerate(_CERTIFICATE_LINES[name, variant], 1):
        code, out, _ = run(capsys, "certificate", name, "--n", str(n),
                           "--out", str(path), *flags)
        assert code == 0
        assert out == (f"{name} n={n}: {placements} placements, "
                       f"area {area} -> {path}\n")


def test_check_detects_mutation_with_exit_2(tmp_path, capsys):
    cert = gauss_rectangle(4)
    data = json.loads(dumps_certificate(cert))
    data["placements"][0]["transform"]["dx"] = "0"  # displace one staircase
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, _ = run(capsys, "check", str(path))
    assert code == 2
    assert "FAIL" in out


def test_check_malformed_is_exit_3(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{oops", encoding="utf-8")
    code, _, err = run(capsys, "check", str(path))
    assert code == 3 and "error" in err
    code, _, err = run(capsys, "check", str(tmp_path / "missing.json"))
    assert code == 3


def _transform(data):
    return data["placements"][0]["transform"]


# the hostile documents of perfbench/workloads.HOSTILE_KINDS, plus an object
# for a list and JSON nested too deeply for the decoder
HOSTILE_EDITS = {
    "zero-denominator": lambda data: _transform(data).update(dx="1/0"),
    "reflect-string": lambda data: _transform(data).update(reflect="false"),
    "fractional-n": lambda data: data.update(n=data["n"] + 0.9),
    "quarter-turns-string": lambda data: _transform(data).update(
        quarter_turns=str(_transform(data)["quarter_turns"])),
    # the same value as the canonical "12", so only the spelling is wrong
    "non-canonical": lambda data: _transform(data).update(dx="24/2"),
    "placements-object": lambda data: data.update(placements={}),
}


@pytest.mark.parametrize("kind", [*HOSTILE_EDITS, "truncated", "deep-nesting"])
def test_check_hostile_document_is_exit_3(kind, tmp_path, capsys):
    text = dumps_certificate(gauss_rectangle(4))
    if kind == "truncated":
        text = text[: len(text) // 2]
    elif kind == "deep-nesting":
        text = "[" * 100_000
    else:
        data = json.loads(text)
        assert _transform(data) == {"quarter_turns": 0, "reflect": False,
                                    "dx": "12", "dy": "0"}
        HOSTILE_EDITS[kind](data)
        text = json.dumps(data)
    path = tmp_path / f"{kind}.json"
    path.write_text(text, encoding="utf-8")
    code, _, err = run(capsys, "check", str(path))
    assert code == 3 and err.startswith("error:")


def test_step4_variants(tmp_path, capsys):
    for variant in ("overlap", "bijection", "bijection-full"):
        path = tmp_path / f"{variant}.json"
        code, _, _ = run(capsys, "certificate", "STEP4_TOP", "--n", "2",
                         "--out", str(path), "--variant", variant)
        assert code == 0
        assert loads_certificate(path.read_text()).construction == "STEP4_TOP"


def test_the_variant_help_names_the_default_it_writes(monkeypatch, tmp_path, capsys):
    """The help's default is the first key of ``certificate_builders``, and
    so is the variant written without ``--variant``, in either order."""
    table = cli.certificate_builders("STEP4_TOP")
    default, named = tmp_path / "default.json", tmp_path / "named.json"
    try:
        for order in (list(table), list(table)[::-1]):
            with monkeypatch.context() as m:
                m.setattr(cli, "certificate_builders",
                          lambda name: {variant: table[variant] for variant in order})
                cli._build_parser.cache_clear()
                with pytest.raises(SystemExit) as done:
                    main(["certificate", "--help"])
                assert done.value.code == 0
                help_text = " ".join(capsys.readouterr().out.split())
                assert f"(default {order[0]})" in help_text
                for path, flags in ((default, ()), (named, ("--variant", order[0]))):
                    assert run(capsys, "certificate", "STEP4_TOP", "--n", "2",
                               "--out", str(path), *flags)[0] == 0
            assert default.read_bytes() == named.read_bytes()
    finally:
        cli._build_parser.cache_clear()


#: STEP4_TOP's variants -> the generators function that builds it
_STEP4_BUILDERS = {"overlap": "step4_overlap", "bijection": "step4_bijection",
                   "bijection-full": "step4_bijection_full"}


def _count_calls(monkeypatch, *functions):
    """Wrap each (module, name) function in a call counter, wherever a
    package module or a module-level table holds it; return the counts."""
    calls: Counter = Counter()
    modules = [m for key, m in list(sys.modules.items())
               if key == "powersums" or key.startswith("powersums.")]
    for module, name in functions:
        original = getattr(module, name)

        @functools.wraps(original)  # as perfbench's spans: ``build.core`` stays
        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        for namespace in map(vars, modules):
            for key, value in list(namespace.items()):
                if value is original:
                    monkeypatch.setitem(namespace, key, counted)
                elif type(value) is dict:
                    for k in [k for k, v in value.items() if v is original]:
                        monkeypatch.setitem(value, k, counted)
    return calls


@pytest.fixture
def builds(monkeypatch):
    return _count_calls(
        monkeypatch, (figurate, "evaluate_identity"),
        (generators, "step3_scissor"),
        *((generators, name) for name in _STEP4_BUILDERS.values()))


@pytest.mark.parametrize("variant", [None, *_STEP4_BUILDERS])
def test_a_step4_certificate_builds_only_its_variant(variant, core_builds,
                                                     tmp_path, capsys):
    flags = () if variant is None else ("--variant", variant)
    code, _, _ = run(capsys, "certificate", "STEP4_TOP", "--n", "3",
                     "--out", str(tmp_path / "x.json"), *flags)
    assert code == 0
    assert core_builds == Counter({f"_{_STEP4_BUILDERS[variant or 'overlap']}": 1})


@pytest.fixture
def core_builds():
    """Calls of the kernel-data builders of STEP3_SCISSOR and STEP4_TOP,
    counted by code object: the figures hold these builders in their own
    table, where no namespace rebinding reaches them."""
    names = {getattr(generators, f"_{name}").__code__: f"_{name}"
             for name in ("step3_scissor", *_STEP4_BUILDERS.values())}
    calls: Counter = Counter()

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code in names:
            calls[names[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    yield calls
    sys.setprofile(previous)


def test_figures_and_verify_build_only_what_they_draw(builds, core_builds,
                                                      tmp_path, capsys):
    for name in ("TWO_COPIES", "STEP3_SCISSOR"):
        code, _, _ = run(capsys, "figure", name, "--n", "3",
                         "--out", str(tmp_path / f"{name}.svg"))
        assert code == 0
    assert core_builds == Counter({"_step4_overlap": 1})
    assert builds == Counter()  # the figures build no certificate object
    label, _data = next(verify._certificates("STEP4_TOP", 2))
    assert label == "STEP4_TOP n=2 overlap"
    assert core_builds == Counter({"_step4_overlap": 2})
    assert builds == Counter()  # criterion 06 checks kernel data


def test_step4_top_layer_evaluates_no_identity(builds):
    generators.step4_top_layer(3)
    assert builds == Counter(dict.fromkeys(_STEP4_BUILDERS.values(), 1))


def test_certificate_out_of_range_is_exit_3(tmp_path, capsys):
    code, _, err = run(capsys, "certificate", "NICOMACHUS_4D_2D",
                       "--n", "21", "--out", str(tmp_path / "x.json"))
    assert code == 3 and "supports n <=" in err


_S4_STAGES = ("FIVE_PYR_LAYERS", "STEP2_RESHAPE", "STEP3_SCISSOR", "STEP4_TOP")


@pytest.mark.parametrize("name", CONSTRUCTIONS)
def test_construction_table(name, tmp_path, capsys):
    cap = CONSTRUCTIONS[name]
    # `certificate` accepts the name, and its generator refuses cap + 1
    code, _, err = run(capsys, "certificate", name, "--n", str(cap + 1),
                       "--out", str(tmp_path / "x.json"))
    assert code == 3
    assert err == (f"error: {name}: cell-level generation supports "
                   f"n <= {cap}, got {cap + 1}\n")
    assert not (tmp_path / "x.json").exists()
    # full_theorem_report generates every S_4 stage up to its own cap
    if name in _S4_STAGES:
        assert CONSTRUCTIONS["FIVE_PYR_LAYERS"] <= cap


def test_certificate_refuses_names_outside_the_table(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["certificate", "STEP4_TOP/layered", "--n", "2",
              "--out", str(tmp_path / "x.json")])
    assert exc.value.code == 3


def test_figure_writes_file(tmp_path, capsys):
    out = tmp_path / "fig.svg"
    code, _, _ = run(capsys, "figure", "GAUSS", "--n", "4",
                     "--format", "svg", "--out", str(out))
    assert code == 0
    assert out.read_text().startswith("<?xml")


@pytest.mark.parametrize("unit_px", [
    "0", "-5", "1001", pytest.param("1" + "0" * 400, id="10**400")])
def test_figure_unit_px_out_of_range_is_exit_3(unit_px, tmp_path, capsys):
    out = tmp_path / "fig.svg"
    code, _, err = run(capsys, "figure", "GAUSS", "--n", "4",
                       "--unit-px", unit_px, "--out", str(out))
    assert code == 3 and "--unit-px" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("certificate", "GAUSS_RECT", "--n", "2"),
    ("figure", "GAUSS", "--n", "2"),
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("out", ["directory", "missing/x.out"])
def test_unwritable_out_is_exit_3(argv, out, tmp_path, capsys):
    path = tmp_path if out == "directory" else tmp_path / out
    code, stdout, err = run(capsys, *argv, "--out", str(path))
    assert (code, stdout) == (3, "")
    assert err.startswith("error: ") and str(path) in err


def test_bad_flags_exit_3(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["identity", "NICOMACHUS"])  # missing --n
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 3


def test_verify_all_small_sweep(capsys):
    code, out, _ = run(capsys, "verify-all", "--max-n", "2")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert lines and all(l.startswith("PASS") for l in lines)


def test_verify_all_json_report(capsys):
    code, out, _ = run(capsys, "verify-all", "--max-n", "2",
                       "--report", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert all(check["ok"] for check in payload["checks"])
    assert [check["check"] for check in payload["checks"]] == [
        criterion.check for criterion in verify.CRITERIA]


def test_verify_all_max_n_8_exits_zero(capsys):
    code, out, _ = run(capsys, "verify-all", "--max-n", "8")
    assert code == 0
    assert "FAIL" not in out


def _sweep_work(monkeypatch, max_n):
    """Run every criterion of verify-all with the generators, the checker,
    the pipeline and the identity and section evaluators replaced by
    counting stubs; return the call counts and the certificates asked for,
    in order."""
    calls: Counter = Counter()
    generated = []
    mutant = SimpleNamespace(cert=object())

    def stub(label, result):
        def counted(*args):
            calls[label] += 1
            return result
        return counted

    def certificates(name, n):
        generated.append((name, n))
        return iter([(name, SimpleNamespace(cert=None))])

    def check(cert):
        calls["check"] += 1
        return SimpleNamespace(ok=cert is not mutant.cert)

    for attr, label, result in (
            ("evaluate_identity", "identity", SimpleNamespace(holds=True)),
            ("_section_failure", "sections", None),
            ("full_theorem_report", "pipeline",
             SimpleNamespace(holds=True, lhs=ANY)),
            ("mutate_piece", "mutate", (mutant, "")),
            ("_area", "area", ANY)):  # areas equal to any expected value
        monkeypatch.setattr(verify, attr, stub(label, result))
    monkeypatch.setattr(verify, "check_certificate", check)
    monkeypatch.setattr(verify, "_certificates", certificates)
    for criterion in verify.CRITERIA:
        assert criterion.run(max_n) is None, criterion.check
    return calls, generated


def test_verify_all_work_is_bounded_by_the_acceptance_ranges(monkeypatch):
    calls, generated = _sweep_work(monkeypatch, 100)
    assert _sweep_work(monkeypatch, 1000) == (calls, generated)
    assert calls["pipeline"] == CONSTRUCTIONS["FIVE_PYR_LAYERS"]
    # every construction up to its cap, STEP4_TOP's n = 11 and 12 included
    assert generated[:-len(CONSTRUCTIONS)] == [
        (name, n) for name in CONSTRUCTIONS
        for n in range(1, CONSTRUCTIONS[name] + 1)]


def test_verify_all_mutations_match_criterion_07(monkeypatch):
    calls, generated = _sweep_work(monkeypatch, 2)
    # one n = 2 certificate per construction, in table order, 100 mutants each
    assert generated[-len(CONSTRUCTIONS):] == [(name, 2)
                                               for name in CONSTRUCTIONS]
    assert calls["mutate"] == 100 * len(CONSTRUCTIONS)


def test_verify_all_reports_a_failing_criterion(monkeypatch, capsys):
    monkeypatch.setattr(verify, "mutate_piece",
                        lambda data, rng: (data, "unchanged"))
    code, out, _ = run(capsys, "verify-all", "--max-n", "1")
    assert code == cli.EXIT_COVER
    assert ("FAIL certificate/mutations (mutant GAUSS_RECT n=2 unchanged "
            "passes)") in out


def test_verify_all_refuses_max_n_0(capsys):
    assert run(capsys, "verify-all", "--max-n", "0") == (
        cli.EXIT_MALFORMED, "", "error: --max-n must be >= 1\n")


@pytest.mark.parametrize("kind,exit_code", [("cover", cli.EXIT_COVER),
                                            ("identity", cli.EXIT_IDENTITY)])
def test_verify_all_reports_a_criterion_that_raises(monkeypatch, capsys, kind,
                                                    exit_code):
    """A crash is that criterion's failure: the later criteria still run,
    and the exit code follows the crashed criterion's kind."""
    def crash(max_n):
        raise RuntimeError("planted")

    monkeypatch.setattr(verify, "CRITERIA", (
        verify.Criterion(1, "planted/crash", "crashes", kind, crash),
        verify.Criterion(2, "planted/pass", "passes", "cover", lambda max_n: None)))
    code, out, _ = run(capsys, "verify-all", "--max-n", "1")
    lines = out.splitlines()
    assert code == exit_code
    assert lines[0].startswith("FAIL planted/crash (RuntimeError: planted) (")
    assert lines[1].startswith("PASS planted/pass (")
    assert lines[2:] == ["1/2 checks passed"]


def _child(*argv: str) -> subprocess.CompletedProcess:
    """A fresh interpreter run with ``argv``, importing this package."""
    src = str(Path(powersums.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)


def test_python_dash_m_help_exits_zero():
    done = _child("-m", "powersums", "--help")
    assert done.returncode == 0
    assert done.stdout.startswith("usage: powersums")


_REIMPORT = """
import gc, sys, weakref
def load():
    for name in [n for n in sys.modules if n.split(".")[0] == "powersums"]:
        del sys.modules[name]
    import powersums.cli, powersums.dissect
    return weakref.ref(sys.modules["powersums.exact"].QuadExt)
old = load()
load()
gc.collect()
sys.exit(old() is not None)
"""


def test_a_fresh_import_lets_the_old_package_go():
    """Nothing outside the package, such as ``typing``'s cache of
    subscripted types, keeps a class of an earlier import alive, so
    repeated fresh imports do not grow the heap."""
    done = _child("-c", _REIMPORT)
    assert done.returncode == 0, done.stderr


def test_the_package_root_imports_dissect_and_nothing_else():
    """Each name lives in its defining module; the root only orders the
    import cycle exact -> dissect.kernel -> dissect -> checker -> exact."""
    tree = ast.parse(Path(powersums.__file__).read_text(encoding="utf-8"))
    docstring, *statements = tree.body
    assert isinstance(docstring, ast.Expr) and ast.get_docstring(tree)
    assert [ast.dump(s) for s in statements] == [
        ast.dump(ast.parse("from . import dissect").body[0])]


@pytest.mark.parametrize("module", ["powersums.figurate", "powersums.dissect"])
def test_a_library_import_loads_neither_render_nor_pyramid(module):
    done = _child("-c", f"import sys, {module}; print(*sys.modules)")
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert module in loaded
    assert not loaded & {"powersums.render", "powersums.pyramid"}


def test_verify_all_compares_figures_with_the_golden_bytes(monkeypatch):
    golden = verify.CRITERIA[9]
    assert golden.check == "render/golden" and golden.run(2) is None
    emit = verify.emit_figure
    monkeypatch.setattr(verify, "emit_figure",
                        lambda spec: emit(spec).replace("<", "< ", 1))
    assert golden.run(2) is not None
