"""Rigid transforms, regions, and the certificate wire format."""

from __future__ import annotations

import copy
import json
import pickle
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from powersums import cli
from powersums.dissect import (
    RigidTransform,
    check_certificate,
    dumps_certificate,
    five_pyramids_layers,
    gauss_rectangle,
    loads_certificate,
    read_certificate,
    step3_scissor,
)
from powersums.dissect.geometry import (CertificateFormatError, Rect, _walk,
                                       certificate_to_json)
from powersums.exact import QuadExt

small_quads = st.builds(
    QuadExt,
    st.fractions(min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12),
    st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6),
)
transforms = st.builds(
    RigidTransform,
    st.integers(min_value=0, max_value=3),
    st.booleans(),
    small_quads,
    small_quads,
)


def _rect(x, y, w, h) -> Rect:
    return Rect(*map(QuadExt.of, (x, y, w, h)))


def test_transform_quarter_turn_and_reflection():
    t = RigidTransform(quarter_turns=1)
    r = t.apply_rect(_rect(0, 0, 3, 1))
    assert r == _rect(-1, 0, 1, 3)
    m = RigidTransform(reflect=True)
    assert m.apply_rect(_rect(1, 0, 2, 1)) == _rect(-3, 0, 2, 1)


@given(transforms)
def test_transform_preserves_area(t):
    r = _rect(Fraction(1, 2), 3, Fraction(7, 3), Fraction(5, 4))
    moved = t.apply_rect(r)
    assert moved.w * moved.h == r.w * r.h


def test_json_round_trip_is_bit_exact():
    for cert in (gauss_rectangle(3), step3_scissor(1)):
        text = dumps_certificate(cert)
        again = loads_certificate(text)
        assert again == cert
        assert dumps_certificate(again) == text


def test_json_carries_exact_irrational_coordinates():
    text = dumps_certificate(step3_scissor(1))
    assert "*sqrt21" in text
    assert "." not in text.replace("piece_id", "").split('"rects"')[1][:200]


def test_loads_rejects_garbage():
    with pytest.raises(CertificateFormatError):
        loads_certificate("{not json")
    with pytest.raises(CertificateFormatError):
        loads_certificate('{"construction": "GAUSS_RECT"}')
    with pytest.raises(CertificateFormatError):
        loads_certificate(
            '{"construction": "GAUSS_RECT", "n": 1, "placements": '
            '[{"piece_id": "p", "source_layer": "l", "source": '
            '{"label": "a", "rects": [["0", "0", "zero", "1"]]}, '
            '"transform": {"quarter_turns": 0, "reflect": false, '
            '"dx": "0", "dy": "0"}, "destination_layer": "l"}], '
            '"targets": [], "leftovers": []}'
        )


@pytest.mark.parametrize("clone", [
    copy.copy,
    copy.deepcopy,
    lambda cert: pickle.loads(pickle.dumps(cert)),
], ids=["copy", "deepcopy", "pickle"])
def test_certificate_copies_and_pickles(clone):
    cert = five_pyramids_layers(2)
    twin = clone(cert)
    assert twin == cert
    assert hash(twin) == hash(cert)
    assert check_certificate(_walk(certificate_to_json(twin))).ok


def _edited_first(cert, edit):
    """``cert`` with its first placement passed through ``edit``."""
    first, *rest = cert.placements
    return replace(cert, placements=(edit(first), *rest))


@pytest.mark.parametrize("edit,error,message", [
    (lambda cert: _edited_first(cert, lambda p: replace(p, source=replace(
        p.source, rects=(_rect(0, 0, 0, 1), *p.source.rects[1:])))),
     CertificateFormatError,
     "bad certificate structure: rectangle sides must be positive: w=0 h=1"),
    (lambda cert: _edited_first(cert, lambda p: replace(
        p, transform=replace(p.transform, reflect="false"))),
     CertificateFormatError, "reflect must be a JSON bool, got 'false'"),
    (lambda cert: replace(cert, targets=tuple(
        (layer, replace(region, label="frame")) for layer, region in cert.targets)),
     CertificateFormatError,
     "a target region must be labelled 'target', got 'frame'"),
], ids=["zero-width rect", "reflect string", "target labelled frame"])
def test_dumps_refuses_an_object_whose_document_would_not_be_read(edit, error, message):
    # the writer goes through the reader's walk, so these objects, which
    # would not be read back, are not written
    cert = edit(gauss_rectangle(2))
    with pytest.raises(error) as exc:
        dumps_certificate(cert)
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_a_target_not_labelled_target_is_refused_by_every_reader(tmp_path, capsys):
    """The reader owns the target label: a document whose first target is
    labelled "frame" is not read, by any route, and ``check`` exits 3."""
    cert = gauss_rectangle(2)
    (layer, region), *rest = cert.targets
    cert = replace(cert, targets=((layer, replace(region, label="frame")), *rest))
    text = json.dumps(certificate_to_json(cert), indent=1)
    message = "a target region must be labelled 'target', got 'frame'"
    for read in (read_certificate, loads_certificate,
                 lambda _text: _walk(certificate_to_json(cert))):
        with pytest.raises(CertificateFormatError) as exc:
            read(text)
        assert str(exc.value) == message
    path = tmp_path / "frame.json"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["check", str(path)]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")
