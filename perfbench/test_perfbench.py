"""Tests of the benchmark itself: known answers catch planted faults, tiny
runs of every workload give the expected error rate, and traced work
counts repeat.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Instrumentation, Tracer  # noqa: E402

SEED = 7


@pytest.fixture(autouse=True)
def clock():
    with run.ReferenceClock() as reference:
        yield reference


def _block(workload: str, tmp_path: Path, clock, keep=lambda op: True):
    _setup_s, mods, block = run.set_up(workload, SEED, tmp_path, clock,
                                       repeats=1, seconds=0)
    return mods, [op for op in block if keep(op)]


def _run(block, clock, inst=None, blocks=1):
    return run.run_blocks(block, SEED, 0, clock, inst, max_blocks=blocks)


def _error_rate(result) -> float:
    _correct, attempted, failed = run.correctness(result)
    return failed / attempted


def test_planted_wrong_verdict_raises_error_rate(tmp_path, clock):
    mods, block = _block("identities", tmp_path, clock,
                         lambda op: op.key.startswith("identity"))
    assert _error_rate(_run(block, clock)) == 0
    honest = mods.figurate.evaluate_identity
    mods.figurate.evaluate_identity = (
        lambda name, params: dataclasses.replace(honest(name, params),
                                                 holds=False))
    result = _run(block, clock)
    assert _error_rate(result) == 1
    assert run.correctness(result)[0] is False


def test_planted_wrong_exit_code_raises_error_rate(tmp_path, clock):
    mods, block = _block("check", tmp_path, clock, lambda op: op.parent is not None)
    assert _error_rate(_run(block, clock)) == 0
    mods.cli.main = lambda argv: wl.EXIT_OK  # every mutant "passes"
    assert _error_rate(_run(block, clock)) == 1


def test_one_changed_output_byte_raises_error_rate(tmp_path, clock):
    mods, block = _block("emit", tmp_path, clock,
                         lambda op: op.key.startswith("figure GAUSS "))
    assert any(op.key.endswith("golden") for op in block)
    assert _error_rate(_run(block, clock)) == 0
    honest = mods.render.emit_figure
    mods.render.emit_figure = lambda spec: honest(spec)[:-1] + " "
    result = _run(block, clock)
    assert _error_rate(result) == 1


@pytest.mark.parametrize("workload,keep", [
    ("theorem", lambda op: op.key in ("theorem n=1", "theorem n=2")),
    ("check", lambda op: "n=1" in op.key or op.key.startswith("check GAUSS")),
    ("emit", lambda op: " --n 1 " in op.key or op.key.endswith("golden")),
    ("identities", lambda op: "d=5" not in op.key),
])
def test_tiny_run_has_expected_error_rate(workload, keep, tmp_path, clock):
    _mods, block = _block(workload, tmp_path, clock, keep)
    result = _run(block, clock)
    correct, attempted, failed = run.correctness(result)
    assert correct and attempted == len(block)
    hostile = [op.key for op in block if op.hostile]
    # only the hostile documents of check may be answered wrongly
    assert set(result.failed_keys) <= set(hostile)
    assert failed == result.hostile["failed"]
    assert bool(hostile) == (workload == "check")


def test_check_block_has_every_kind_of_file(tmp_path, clock):
    _mods, block = _block("check", tmp_path, clock)
    kinds = {op.key.split()[1] for op in block if op.parent is None
             and not op.hostile}
    assert kinds == {k for k, _a, _ns in wl.CERTIFICATE_KINDS}
    valid = [op for op in block if op.parent is None and not op.hostile]
    assert sorted(op.parent for op in block if op.parent) == sorted(
        op.key for op in valid)
    assert [op.key.rsplit(" ", 1)[1] for op in block if op.hostile] == list(
        wl.HOSTILE_KINDS)


def test_hostile_documents_carry_their_defect(tmp_path):
    mods = run.import_package()
    valid = mods.dissect.dumps_certificate(mods.dissect.step3_scissor(1))
    docs = {k: wl.hostile_document(valid, k) for k in wl.HOSTILE_KINDS}
    with pytest.raises(json.JSONDecodeError):
        json.loads(docs["truncated"])
    transforms = {k: [p["transform"] for p in json.loads(v)["placements"]]
                  for k, v in docs.items() if k != "truncated"}
    assert {"dx": "1/0"}.items() <= transforms["zero-denominator"][0].items()
    assert transforms["reflect-string"][0]["reflect"] == "false"
    assert transforms["quarter-turns-string"][0]["quarter_turns"] == "0"
    assert json.loads(docs["fractional-n"])["n"] == 1.9
    assert wl._non_canonical("1/2") == "2/4"
    assert wl._non_canonical("-3/2+1/6*sqrt21") == "-6/4+1/6*sqrt21"


def test_traced_work_counts_repeat(tmp_path, clock):
    def traced_counts():
        mods, block = _block("check", tmp_path, clock, lambda op: "n=2" in op.key)
        inst = Instrumentation(mods, Tracer(clock.now))
        result = _run(block, clock, inst, blocks=4)  # untraced, traced, ...
        assert result.traced_ops == 2 * len(block)
        assert not result.count_mismatches
        metrics = run.per_layer(result, inst)
        return {k: v for k, (v, unit) in metrics.items()
                if unit != "s/op" and k != "tracing.overhead"}

    first, second = traced_counts(), traced_counts()
    assert first == second
    assert first["checker.cells"] > 0 and first["exact.quadext_new"] > 0
    assert 0 < first["checker.reject_scan_ratio"] <= 1


def test_uninstall_restores_the_package(tmp_path):
    mods = run.import_package()
    before = (mods.cli.main, mods.cli._GENERATORS["GAUSS_RECT"],
              mods.exact.QuadExt.__init__, mods.dissect.geometry.Placement.placed)
    inst = Instrumentation(mods, Tracer())
    inst.install()
    assert mods.cli._GENERATORS["GAUSS_RECT"] is not before[1]
    inst.uninstall()
    after = (mods.cli.main, mods.cli._GENERATORS["GAUSS_RECT"],
             mods.exact.QuadExt.__init__, mods.dissect.geometry.Placement.placed)
    assert after == before


def test_tail_percentile_comes_from_the_block():
    latencies = [float(i) for i in range(1, 101)]
    assert run.tail(latencies, 10) == (100.0, 100.0)
    assert run.tail(latencies, 42) == (75.0, 75.0)
    assert run.tail(latencies * 3, 104) == (90.0, 90.0)
    assert run.tail(latencies, 1000) == (99.0, 99.0)


def test_refuses_to_run_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(Path(run.__file__).parent, bench,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "identities",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert "no package source" in proc.stderr
