"""CLI surface: subcommands, output format, and the exit-code table."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

import powersums
from powersums import cli
from powersums.cli import main
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
    lines = out.strip().splitlines()
    assert lines[0] == "B_0 = 1"
    assert lines[1] == "B_1 = 1/2"
    assert lines[12] == "B_12 = -691/2730"


def test_faulhaber_boast(capsys):
    code, out, _ = run(capsys, "faulhaber", "--p", "10", "--n", "1000")
    assert code == 0
    assert out.strip() == "91409924241424243424241924242500"


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


@pytest.mark.parametrize("unit_px", ["0", "-5"])
def test_figure_unit_px_below_one_is_exit_3(unit_px, tmp_path, capsys):
    out = tmp_path / "fig.svg"
    code, _, err = run(capsys, "figure", "GAUSS", "--n", "4",
                       "--unit-px", unit_px, "--out", str(out))
    assert code == 3 and "--unit-px" in err
    assert not out.exists()


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


def test_verify_all_max_n_8_exits_zero(capsys):
    code, out, _ = run(capsys, "verify-all", "--max-n", "8")
    assert code == 0
    assert "FAIL" not in out


def _sweep_work(monkeypatch, max_n):
    """Run every verify-all check with the generators, the checker and the
    identity and section evaluators replaced by counting stubs; return the
    call counts and the certificates asked for, in order."""
    calls: Counter = Counter()
    generated = []
    mutant = object()

    def stub(label, result):
        def counted(*args):
            calls[label] += 1
            return result
        return counted

    def certificate(name, n):
        generated.append((name, n))
        return object()

    def check(cert):
        calls["check"] += 1
        return SimpleNamespace(ok=cert is not mutant)

    holds = SimpleNamespace(holds=True)
    for module, attr, label, result in (
            (cli.figurate, "evaluate_identity", "identity", holds),
            (cli.pyramid, "sections_agree", "sections", holds),
            (cli.dissect, "full_theorem_report", "pipeline", holds),
            (cli.dissect, "mutate_placement", "mutate", (mutant, ""))):
        monkeypatch.setattr(module, attr, stub(label, result))
    monkeypatch.setattr(cli.dissect, "check_certificate", check)
    monkeypatch.setattr(cli, "_certificate", certificate)
    for name, thunk, _kind in cli._sweep_checks(max_n):
        assert thunk(), name
    return calls, generated


def test_verify_all_work_is_bounded_by_the_acceptance_ranges(monkeypatch):
    calls, generated = _sweep_work(monkeypatch, 100)
    assert _sweep_work(monkeypatch, 1000) == (calls, generated)
    assert calls["pipeline"] == CONSTRUCTIONS["FIVE_PYR_LAYERS"]
    standalone = [name for name in CONSTRUCTIONS if name not in _S4_STAGES]
    assert generated[:-len(CONSTRUCTIONS)] == [
        (name, n) for name in standalone
        for n in range(1, CONSTRUCTIONS[name] + 1)]


def test_verify_all_mutations_match_criterion_07(monkeypatch):
    calls, generated = _sweep_work(monkeypatch, 2)
    # one n = 2 certificate per construction, in table order, 100 mutants each
    assert generated[-len(CONSTRUCTIONS):] == [(name, 2)
                                               for name in CONSTRUCTIONS]
    assert calls["mutate"] == 100 * len(CONSTRUCTIONS)


def test_python_dash_m_help_exits_zero():
    src = str(Path(powersums.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "powersums", "--help"],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stdout.startswith("usage: powersums")


def test_verify_all_compares_figures_with_the_golden_bytes(monkeypatch):
    render_check = {name: thunk for name, thunk, _kind
                    in cli._sweep_checks(2)}["render/golden"]
    assert render_check()
    emit = cli.render.emit_figure
    monkeypatch.setattr(cli.render, "emit_figure",
                        lambda spec: emit(spec).replace("<", "< ", 1))
    assert not render_check()
