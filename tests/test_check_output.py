"""``powersums check``: exact exit code, stdout and stderr on documents with
one defect each.  The expected outputs were recorded from the checker that
parsed every coordinate into a ``QuadExt`` before checking; the strict
front end must reproduce them byte for byte."""

from __future__ import annotations

import json
from typing import Any, Callable

import pytest

from powersums.cli import main
from powersums.dissect import dumps_certificate, step3_scissor

BASE_TEXT = dumps_certificate(step3_scissor(1))


def _edited(edit: Callable[[Any], None]) -> str:
    data = json.loads(BASE_TEXT)
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
    "n zero": _edited(_set(lambda d: d, "n", 0)),
    "n true": _edited(_set(lambda d: d, "n", True)),
    "duplicate piece id": _edited(_duplicate_id),
    "quarter_turns 7": _edited(_set(_unreflected, "quarter_turns", 7)),
    "empty source": _edited(_set(lambda d: _placement(d)["source"], "rects", [])),
    "leftover target": _edited(_leftover_target),
    "denominator above 256 bits": _edited(
        _set(_unreflected, "dx", f"1/{2 ** 300}")),
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
        3, 'NOT_A_CONSTRUCTION n=1: FAIL malformed: unknown construction '
           "'NOT_A_CONSTRUCTION'\n",
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
}


@pytest.mark.parametrize("name", DOCUMENTS)
def test_check_output_is_pinned(name, tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text(DOCUMENTS[name], encoding="utf-8")
    code = main(["check", str(path)])
    out, err = capsys.readouterr()
    assert (code, out, err) == EXPECTED[name]
