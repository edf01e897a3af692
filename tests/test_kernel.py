"""The trusted kernel and its two front ends: the kernel stands alone, and
a certificate gets the same verdict from its JSON text as from its objects."""

from __future__ import annotations

import ast
import json
import random
from pathlib import Path
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powersums import cli, exact
from powersums.dissect import (
    CONSTRUCTIONS,
    CertificateFormatError,
    check_certificate,
    dumps_certificate,
    five_pyramids_layers,
    gauss_rectangle,
    geometry,
    loads_certificate,
    mutate_placement,
    nicomachus_4d_2d,
    read_certificate,
    step2_reshape,
    step3_scissor,
    step4_top_layer,
    three_pyramids_2d,
)
from powersums.dissect import kernel

KERNEL_PATH = Path(kernel.__file__)


def test_kernel_imports_only_the_standard_library():
    tree = ast.parse(KERNEL_PATH.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import on line {node.lineno}"
            assert not (node.module or "").startswith("powersums")
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("powersums") for a in node.names)


def test_one_sign_routine():
    assert exact.lattice_sign is kernel.lattice_sign


def test_pieces_doubled_like_their_targets_are_malformed():
    square = ((0, 0), (0, 0), (1, 0), (1, 0))
    failure, cells = kernel._check_layer_cover("l", [square, square],
                                               [square, square])
    assert failure == kernel.Failure("malformed", "l", square,
                                     "target regions overlap (2 deep)")
    assert cells == 1


def _exit_code(report: Any) -> int:
    if report.ok:
        return cli.EXIT_OK
    if report.failure.kind == "malformed":
        return cli.EXIT_MALFORMED
    return cli.EXIT_COVER


def _verdict(text: str, read: Any) -> tuple[int, str, int, int]:
    """(exit code, output line, layers, cells) of ``text`` read by ``read``."""
    try:
        cert = read(text)
    except CertificateFormatError as exc:
        return cli.EXIT_MALFORMED, f"error: {exc}", 0, 0
    report = check_certificate(cert)
    return (_exit_code(report), f"{cert.construction} n={cert.n}: {report}",
            report.layers_checked, report.cells_checked)


def _assert_front_ends_agree(text: str) -> tuple[int, str, int, int]:
    from_wire = _verdict(text, read_certificate)
    assert from_wire == _verdict(text, loads_certificate)
    return from_wire


_MAKERS = {
    "GAUSS_RECT": lambda n: [gauss_rectangle(n)],
    "THREE_PYR_2D": lambda n: [three_pyramids_2d(n)],
    "NICOMACHUS_4D_2D": lambda n: [nicomachus_4d_2d(n)],
    "FIVE_PYR_LAYERS": lambda n: [five_pyramids_layers(n)],
    "STEP2_RESHAPE": lambda n: [step2_reshape(n)],
    "STEP3_SCISSOR": lambda n: [step3_scissor(n)],
    "STEP4_TOP": lambda n: list(step4_top_layer(n).certificates()),
}


@pytest.mark.parametrize("construction", CONSTRUCTIONS)
def test_front_ends_agree_on_generated_certificates(construction, tmp_path,
                                                    capsys):
    path = tmp_path / "cert.json"
    for n in range(1, 4):
        for cert in _MAKERS[construction](n):
            text = dumps_certificate(cert)
            code, line, layers, cells = _assert_front_ends_agree(text)
            assert code == cli.EXIT_OK and layers > 0 and cells > 0
            path.write_text(text, encoding="utf-8")
            assert cli.main(["check", str(path)]) == code
            assert capsys.readouterr().out == line + "\n"


def test_front_ends_agree_on_criterion_07_mutants():
    rng = random.Random(21)
    codes = set()
    for name in CONSTRUCTIONS:
        cert = _MAKERS[name](2)[-1]  # STEP4_TOP: the overlap certificate
        for _ in range(100):
            mutant, _description = mutate_placement(cert, rng)
            codes.add(_assert_front_ends_agree(dumps_certificate(mutant))[0])
    assert codes == {cli.EXIT_COVER}


# -- hostile leaves -------------------------------------------------------

SMALL_TEXT = dumps_certificate(step3_scissor(1))


def _leaf_paths(data: Any, path: tuple = ()) -> list[tuple]:
    if isinstance(data, dict):
        return [p for k, v in data.items() for p in _leaf_paths(v, path + (k,))]
    if isinstance(data, list):
        return [p for i, v in enumerate(data) for p in _leaf_paths(v, path + (i,))]
    return [path]


LEAF_PATHS = _leaf_paths(json.loads(SMALL_TEXT))

json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-10**30, 10**30),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=8),
    st.sampled_from(["0", "1", "-1", "1/2", "2/4", "1/0", "0/1", "-0",
                     "1/2+1/6*sqrt21", "1/2+-1/6*sqrt21", "3+0*sqrt21",
                     "leftover", "layer/1", f"1/{2 ** 300}", "GAUSS_RECT"]),
)
hostile_values = st.one_of(json_leaves, st.lists(json_leaves, max_size=4),
                           st.dictionaries(st.text(max_size=6), json_leaves,
                                           max_size=3))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(LEAF_PATHS), hostile_values)
def test_front_ends_agree_on_a_hostile_leaf(path, value):
    data = json.loads(SMALL_TEXT)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    code, _line, _layers, _cells = _assert_front_ends_agree(json.dumps(data))
    assert code in (cli.EXIT_OK, cli.EXIT_COVER, cli.EXIT_MALFORMED)


# -- the JSON front end builds no exact objects -------------------------------


def test_valid_document_is_checked_without_exact_objects(monkeypatch):
    text = dumps_certificate(five_pyramids_layers(2))
    distinct = {v for p in json.loads(text)["placements"]
                for v in (p["transform"]["dx"], p["transform"]["dy"],
                          *(c for r in p["source"]["rects"] for c in r))}
    parsed = []

    def counted(text: str) -> tuple[int, int, int]:
        parsed.append(text)
        return exact.triple_from_text(text)

    def refuse(*_args: Any) -> None:
        raise AssertionError("built an exact object")

    monkeypatch.setattr(geometry, "triple_from_text", counted)
    monkeypatch.setattr(exact, "_new", refuse)
    monkeypatch.setattr(exact.QuadExt, "__init__", refuse)
    monkeypatch.setattr(geometry, "Rect", refuse)
    monkeypatch.setattr(geometry, "Region", refuse)
    report = check_certificate(read_certificate(text))
    assert report.ok
    assert len(parsed) == len(set(parsed)) and distinct <= set(parsed)


def test_integers_past_the_digit_limit_are_refused(tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text('{"construction": "GAUSS_RECT", "n": ' + "1" * 5000 + "}",
                    encoding="utf-8")
    assert cli.main(["check", str(path)]) == cli.EXIT_MALFORMED
    assert capsys.readouterr().err.startswith("error: not valid JSON: Exceeds")
