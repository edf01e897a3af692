"""``powersums check``: exact exit code, stdout and stderr on documents with
one defect each.  The expected outputs were recorded from the checker that
parsed every coordinate into a ``QuadExt`` before checking; the strict
front end must reproduce them byte for byte."""

from __future__ import annotations

import json
from typing import Any, Callable

import pytest

from powersums.cli import main
from powersums.dissect import dumps_certificate, gauss_rectangle, step3_scissor

BASE_TEXT = dumps_certificate(step3_scissor(1))
GAUSS_TEXT = dumps_certificate(gauss_rectangle(1))


def _edited(edit: Callable[[Any], None], base: str = BASE_TEXT) -> str:
    data = json.loads(base)
    edit(data)
    return json.dumps(data, indent=1)


def _placement(data: Any, index: int = 0) -> Any:
    return data["placements"][index]


def _unreflected(data: Any) -> Any:
    """The transform of the first placement without a reflection, where the
    benchmark's hostile documents put their defect."""
    return next(p for p in data["placements"]
                if p["transform"]["reflect"] is False)["transform"]


def _set(path: Callable[[Any], Any], key: Any, value: Any) -> Callable[[Any], None]:
    def edit(data: Any) -> None:
        path(data)[key] = value
    return edit


def _rect(data: Any) -> Any:
    return _placement(data)["source"]["rects"][0]


def _non_canonical(data: Any) -> None:
    transform = _unreflected(data)
    head, sep, tail = transform["dx"].partition("+")
    num, _, den = head.partition("/")
    transform["dx"] = f"{2 * int(num)}/{2 * int(den or 1)}{sep}{tail}"


def _duplicate_id(data: Any) -> None:
    _placement(data, 1)["piece_id"] = _placement(data)["piece_id"]


def _translated(data: Any) -> None:
    _placement(data)["transform"]["dx"] = "1"


def _leftover_target(data: Any) -> None:
    data["targets"][0]["layer"] = "leftover"


PRINTABLE_FORGED = "GAUSS_RECT n=1: PASS (2 layers, 5 grid cells)"
FORGED = PRINTABLE_FORGED + "\nignored"

HOSTILE_VALUES = {"int": 5, "list": ["0"], "dict": {"a": "0"}, "null": None,
                  "bool": True, "float": 1.5}

DOCUMENTS: dict[str, str] = {
    "valid": BASE_TEXT,
    "translated piece": _edited(_translated),
    # the benchmark's six hostile kinds
    "zero-denominator": _edited(_set(_unreflected, "dx", "1/0")),
    "reflect-string": _edited(_set(_unreflected, "reflect", "false")),
    "fractional-n": _edited(lambda d: d.update(n=d["n"] + 0.9)),
    "quarter-turns-string": _edited(_set(_unreflected, "quarter_turns", "0")),
    "non-canonical": _edited(_non_canonical),
    "truncated": BASE_TEXT[: len(BASE_TEXT) // 2],
    # one value of each other JSON type where a coordinate text belongs
    **{f"{name} in rect": _edited(_set(_rect, 2, value))
       for name, value in HOSTILE_VALUES.items()},
    **{f"{name} in dx": _edited(_set(_unreflected, "dx", value))
       for name, value in HOSTILE_VALUES.items()},
    # structure
    "zero-width rect": _edited(_set(_rect, 2, "0")),
    "negative-height rect": _edited(_set(_rect, 3, "1/2+-1/6*sqrt21")),
    "three-value rect": _edited(lambda d: _rect(d).pop()),
    "string rect": _edited(_set(lambda d: _placement(d)["source"]["rects"], 0,
                                "0 0 1 1")),
    "missing key": _edited(lambda d: d.pop("targets")),
    "missing transform": _edited(lambda d: _placement(d).pop("transform")),
    "region without label": _edited(lambda d: _placement(d)["source"].pop("label")),
    "int label": _edited(_set(lambda d: _placement(d)["source"], "label", 7)),
    "placement not an object": _edited(_set(lambda d: d["placements"], 1, 3)),
    "document a list": json.dumps([BASE_TEXT]),
    "unknown construction": _edited(_set(lambda d: d, "construction",
                                         "NOT_A_CONSTRUCTION")),
    # a name outside the construction table is echoed quoted, so it can
    # neither print a line of its own nor begin the line as a verdict
    "forged verdict in the construction": _edited(_set(
        lambda d: d, "construction", FORGED)),
    "printable forged verdict in the construction": _edited(
        lambda d: d.update(construction=PRINTABLE_FORGED, n=2)),
    "n zero": _edited(_set(lambda d: d, "n", 0)),
    "n true": _edited(_set(lambda d: d, "n", True)),
    "duplicate piece id": _edited(_duplicate_id),
    "quarter_turns 7": _edited(_set(_unreflected, "quarter_turns", 7)),
    "empty source": _edited(_set(lambda d: _placement(d)["source"], "rects", [])),
    "leftover target": _edited(_leftover_target),
    "denominator above 256 bits": _edited(
        _set(_unreflected, "dx", f"1/{2 ** 300}")),
    "no placements": json.dumps({"construction": "FIVE_PYR_LAYERS", "n": 10,
                                 "placements": [], "targets": [],
                                 "leftovers": []}),
}


def _type_error(type_name: str) -> tuple[int, str, str]:
    return (3, "", "error: bad certificate structure: expected string or "
            f"bytes-like object, got {type_name!r}\n")


# name -> (exit code, stdout, stderr)
EXPECTED: dict[str, tuple[int, str, str]] = {
    'valid': (
        0, 'STEP3_SCISSOR n=1: PASS (3 layers, 23 grid cells)\n',
        ''),
    'translated piece': (
        2, "STEP3_SCISSOR n=1: FAIL uncovered on layer 'layer/1' at [0, 1] x "
           '[0, 3/2+-1/6*sqrt21]: target cell covered by no piece\n',
        ''),
    'zero-denominator': (
        3, '',
        'error: bad certificate structure: not a canonical Q(sqrt(21)) '
        "literal: '1/0'\n"),
    'reflect-string': (
        3, '',
        "error: reflect must be a JSON bool, got 'false'\n"),
    'fractional-n': (
        3, '',
        'error: n must be a JSON int, got 1.9\n'),
    'quarter-turns-string': (
        3, '',
        "error: quarter_turns must be a JSON int, got '0'\n"),
    'non-canonical': (
        3, '',
        "error: bad certificate structure: not in lowest terms: '0/2'\n"),
    'truncated': (
        3, '',
        'error: not valid JSON: Unterminated string starting at: line 117 '
        'column 4 (char 2044)\n'),
    'int in rect': _type_error('int'),
    'list in rect': _type_error('list'),
    'dict in rect': _type_error('dict'),
    'null in rect': _type_error('NoneType'),
    'bool in rect': _type_error('bool'),
    'float in rect': _type_error('float'),
    'int in dx': _type_error('int'),
    'list in dx': _type_error('list'),
    'dict in dx': _type_error('dict'),
    'null in dx': _type_error('NoneType'),
    'bool in dx': _type_error('bool'),
    'float in dx': _type_error('float'),
    'zero-width rect': (
        3, '',
        'error: bad certificate structure: rectangle sides must be positive: '
        'w=0 h=3/2+-1/6*sqrt21\n'),
    'negative-height rect': (
        3, '',
        'error: bad certificate structure: rectangle sides must be positive: '
        'w=2 h=1/2+-1/6*sqrt21\n'),
    'three-value rect': (
        3, '',
        "error: rect must be a 4-list, got ['0', '0', '2']\n"),
    'string rect': (
        3, '',
        "error: rect must be a 4-list, got '0 0 1 1'\n"),
    'missing key': (
        3, '',
        "error: bad certificate structure: 'targets'\n"),
    'missing transform': (
        3, '',
        "error: bad certificate structure: 'transform'\n"),
    'region without label': (
        3, '',
        "error: region must have label and rects: {'rects': [['0', '0', '2', "
        "'3/2+-1/6*sqrt21']]}\n"),
    'int label': (
        3, '',
        'error: label must be a JSON str, got 7\n'),
    'placement not an object': (
        3, '',
        "error: bad certificate structure: 'int' object is not subscriptable\n"),
    'document a list': (
        3, '',
        'error: bad certificate structure: list indices must be integers or '
        'slices, not str\n'),
    'unknown construction': (
        3, "'NOT_A_CONSTRUCTION' n=1: FAIL malformed: unknown construction "
           "'NOT_A_CONSTRUCTION'\n",
        ''),
    'forged verdict in the construction': (
        3, "'GAUSS_RECT n=1: PASS (2 layers, 5 grid cells)\\nignored' n=1: FAIL "
           "malformed: unknown construction 'GAUSS_RECT n=1: PASS (2 layers, 5 "
           "grid cells)\\nignored'\n",
        ''),
    'printable forged verdict in the construction': (
        3, "'GAUSS_RECT n=1: PASS (2 layers, 5 grid cells)' n=2: FAIL malformed: "
           "unknown construction 'GAUSS_RECT n=1: PASS (2 layers, 5 grid cells)'\n",
        ''),
    'n zero': (
        3, 'STEP3_SCISSOR n=0: FAIL malformed: n must be >= 1, got 0\n',
        ''),
    'n true': (
        3, '',
        'error: n must be a JSON int, got True\n'),
    'duplicate piece id': (
        3, 'STEP3_SCISSOR n=1: FAIL malformed: duplicate piece id '
           "'STEP3_SCISSOR/layer/1/0,0/body'\n",
        ''),
    'quarter_turns 7': (
        3, 'STEP3_SCISSOR n=1: FAIL malformed: piece '
           "'STEP3_SCISSOR/layer/1/0,0/body': quarter_turns must be 0..3, got "
           '7\n',
        ''),
    'empty source': (
        3, "STEP3_SCISSOR n=1: FAIL malformed on layer 'layer/1': piece "
           "'STEP3_SCISSOR/layer/1/0,0/body' has an empty source region\n",
        ''),
    'leftover target': (
        3, "STEP3_SCISSOR n=1: FAIL malformed on layer 'leftover': 'leftover' "
           'is reserved for declared leftovers\n',
        ''),
    'denominator above 256 bits': (
        3, 'STEP3_SCISSOR n=1: FAIL malformed: ValueError: common denominator '
           'exceeds 256 bits\n',
        ''),
    # it passed with "0 layers, 0 grid cells": nothing placed, nothing proved
    'no placements': (
        3, 'FIVE_PYR_LAYERS n=10: FAIL malformed: a certificate must place at '
           'least one piece\n',
        ''),
}


@pytest.mark.parametrize("name", DOCUMENTS)
def test_check_output_is_pinned(name, tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text(DOCUMENTS[name], encoding="utf-8")
    code = main(["check", str(path)])
    out, err = capsys.readouterr()
    assert (code, out, err) == EXPECTED[name]


# an object with one key beyond its own
UNKNOWN_KEY_DOCUMENTS: dict[str, str] = {
    "top level": _edited(_set(lambda d: d, "comment", "x")),
    "placement": _edited(_set(_placement, "destination_layer2", "elsewhere")),
    "transform": _edited(_set(_unreflected, "scale", "2")),
    "region": _edited(_set(lambda d: _placement(d)["source"], "area", "2")),
    "target": _edited(_set(lambda d: d["targets"][0], "weight", 1)),
}

UNKNOWN_KEY_EXPECTED: dict[str, tuple[int, str, str]] = {
    "top level": (3, "", "error: unknown key 'comment' in the certificate\n"),
    "placement": (3, "", "error: unknown key 'destination_layer2' in a placement\n"),
    "transform": (3, "", "error: unknown key 'scale' in a transform\n"),
    "region": (3, "", "error: unknown key 'area' in a region\n"),
    "target": (3, "", "error: unknown key 'weight' in a target\n"),
}


@pytest.mark.parametrize("name", UNKNOWN_KEY_DOCUMENTS)
def test_an_unknown_key_is_refused(name, tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text(UNKNOWN_KEY_DOCUMENTS[name], encoding="utf-8")
    code = main(["check", str(path)])
    assert (code, *capsys.readouterr()) == UNKNOWN_KEY_EXPECTED[name]


def _ghost_targets(data: Any) -> None:
    """Two identical targets on a layer that no piece is sent to."""
    square = {"layer": "ghost", "region": {"label": "target",
                                           "rects": [["0", "0", "1", "1"]]}}
    data["targets"] += [square, square]


def _doubled_leftover(data: Any) -> None:
    square = {"label": "left_b", "rects": [["5", "5", "1", "1"]]}
    data["leftovers"] = [square, square]


# a layer with targets and no pieces: its targets still may not overlap
@pytest.mark.parametrize("edit,line", [
    pytest.param(_ghost_targets,
                 "GAUSS_RECT n=1: FAIL malformed on layer 'ghost' at [0, 1] x "
                 "[0, 1]: target regions overlap (2 deep)\n",
                 id="two identical targets and no piece"),
    pytest.param(_doubled_leftover,
                 "GAUSS_RECT n=1: FAIL malformed on layer 'leftover' at [5, 6] "
                 "x [5, 6]: target regions overlap (2 deep)\n",
                 id="one leftover declared twice"),
])
def test_doubled_targets_without_pieces_are_malformed(edit, line, tmp_path,
                                                      capsys):
    path = tmp_path / "cert.json"
    path.write_text(_edited(edit, GAUSS_TEXT), encoding="utf-8")
    code = main(["check", str(path)])
    assert (code, *capsys.readouterr()) == (3, line, "")


def test_n_above_the_cap_is_malformed(tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text(_edited(_set(lambda d: d, "n", 101), GAUSS_TEXT),
                    encoding="utf-8")
    code = main(["check", str(path)])
    assert (code, *capsys.readouterr()) == (
        3, "GAUSS_RECT n=101: FAIL malformed: n must be <= 100 for GAUSS_RECT, "
           "got 101\n", "")


def _unlabelled_region(data: Any) -> None:
    source = _placement(data)["source"]
    del source["label"]
    source["rects"] *= 6_000


def _long_piece_ids(data: Any) -> None:
    for p in data["placements"]:
        p["piece_id"] = "p" * 100_000


def _long_id_turned_7(data: Any) -> None:
    _placement(data)["piece_id"] = "p" * 100_000
    _placement(data)["transform"]["quarter_turns"] = 7


DIGITS = "9" * 4_000


def _gauss(edit: Callable[[Any], None]) -> str:
    return _edited(edit, GAUSS_TEXT)


# (document, exit code, the stream it answers on); each echoes a value of
# 4,000 characters or more from the document
@pytest.mark.parametrize("text,expected_code,stream", [
    pytest.param(_edited(_unlabelled_region), 3, "err",
                 id="unlabelled region of 6000 rects"),
    pytest.param(_edited(_set(_rect, 0, "1" * 100_000 + "/0")), 3, "err",
                 id="100 KB bad literal"),
    pytest.param(_edited(_set(lambda data: _placement(data)["source"], "label",
                              ["x"] * 50_000)), 3, "err", id="50000-item label"),
    pytest.param(_edited(_set(lambda data: _placement(data)["source"]["rects"],
                              0, ["0"] * 50_000)), 3, "err", id="50000-item rect"),
    pytest.param(_gauss(_set(lambda d: d, "construction", "C" * 100_000)), 3,
                 "out", id="100000-character construction"),
    pytest.param(_gauss(_long_piece_ids), 3, "out",
                 id="duplicate 100000-character piece id"),
    pytest.param(_gauss(_long_id_turned_7), 3, "out",
                 id="quarter_turns 7 on a 100000-character id"),
    pytest.param(_gauss(_set(lambda d: d["targets"][0], "layer", "L" * 100_000)),
                 2, "out", id="100000-character target layer"),
    pytest.param(_gauss(_set(_rect, 2, "-" + DIGITS)), 3, "err",
                 id="negative 4000-digit side"),
    pytest.param(_gauss(_set(_rect, 0, "-" + DIGITS)), 2, "out",
                 id="4000-digit cell corner"),
    pytest.param(_gauss(_set(lambda d: d, "n", -int(DIGITS))), 3, "out",
                 id="negative 4000-digit n"),
    pytest.param(_gauss(_set(lambda d: d, "n", int(DIGITS))), 3, "out",
                 id="4000-digit n"),
    pytest.param(_gauss(_set(_placement, "k" * 100_000, "0")), 3, "err",
                 id="100000-character unknown key"),
])
def test_oversized_values_are_not_echoed_whole(text, expected_code, stream,
                                               tmp_path, capsys):
    assert len(text) > 4_000
    path = tmp_path / "cert.json"
    path.write_text(text, encoding="utf-8")
    code = main(["check", str(path)])
    out, err = capsys.readouterr()
    written, silent = (err, out) if stream == "err" else (out, err)
    assert (code, silent) == (expected_code, "")
    if stream == "err":
        assert err.startswith("error: ")
    assert written.count("\n") == 1 and len(written.encode()) < 1024


def _unnamed_layers(data: Any) -> None:
    for p in data["placements"]:
        p["source_layer"] = p["destination_layer"] = ""
    for t in data["targets"]:
        t["layer"] = ""
    _translated(data)


def test_a_failure_names_a_layer_whose_id_is_empty(tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text(_edited(_unnamed_layers, dumps_certificate(gauss_rectangle(2))),
                    encoding="utf-8")
    code = main(["check", str(path)])
    assert (code, *capsys.readouterr()) == (
        2, "GAUSS_RECT n=2: FAIL outside on layer '' at [1, 2] x [0, 1]: "
           "1 piece(s) outside every target\n", "")
