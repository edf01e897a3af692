"""The generators' lattice data, the object view over it, and the kernel's
checks of every field of that data.

Each construction has one builder of its kernel data (``generators._<name>``)
and its public builder returns ``geometry.certificate_from_lattice`` of it.
These tests fail if the view and the lattice drift apart, if the pipeline
goes back to certificate objects, or if a field of the wrong type reaches a
verdict.
"""

from __future__ import annotations

import ast
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powersums import exact, verify
from powersums.dissect import generators, geometry
from powersums.dissect.checker import check_certificate
from powersums.dissect.generators import (certificate_builders,
                                         excess_corner_layout,
                                         full_theorem_report, gauss_rectangle)
from powersums.dissect.geometry import (CertificateFormatError, LabelledLattice,
                                       Rect, Region, _lattice, _walk,
                                       certificate_from_lattice,
                                       certificate_to_json, dumps_certificate,
                                       dumps_lattice, read_certificate)
from powersums.exact import QuadExt, quad_from_triple, strip_root
from powersums.kernel import CONSTRUCTIONS, LatticeCertificate


def _cores():
    """(label, lattice builder, n) for every construction and variant at
    n <= 3, and FIVE_PYR_LAYERS at n = 10."""
    for name in CONSTRUCTIONS:
        for variant, build in certificate_builders(name).items():
            core = build.core
            for n in (1, 2, 3):
                yield f"{name} {variant} n={n}", core, n
    yield "FIVE_PYR_LAYERS n=10", generators._five_pyramids_layers, 10


CORES = list(_cores())


def _scaled(cert, to: int):
    """``cert`` with every point over the denominator ``to``, in lists."""
    k = to // cert.denominator
    assert k * cert.denominator == to

    def rects(rs):
        return [[(a * k, b * k) for a, b in r] for r in rs]

    pieces = [[piece_id, source, rects(rs),
               [turns, reflect, (dx[0] * k, dx[1] * k), (dy[0] * k, dy[1] * k)],
               dest]
              for piece_id, source, rs, (turns, reflect, dx, dy), dest in cert.pieces]
    return [cert.construction, cert.n, pieces,
            [[layer, rects(rs)] for layer, rs in cert.targets],
            [rects(rs) for rs in cert.leftovers]]


def test_x_and_d_are_stated_once():
    view = geometry.PointTable(generators.D, quad_from_triple)
    assert view[generators.X] == strip_root()
    assert all(generators._at(k, s) == (generators.D * k + s * generators.X[0],
                                        s * generators.X[1])
               for k in range(-2, 3) for s in range(-1, 2))


@pytest.mark.parametrize("label,core,n", CORES, ids=[c[0] for c in CORES])
def test_the_view_reads_back_as_its_lattice(label, core, n):
    data = core(n)
    assert data.cert.denominator == generators.D
    assert len(data.labels) == len(data.cert.pieces)
    assert len(data.leftover_labels) == len(data.cert.leftovers)
    view = certificate_from_lattice(data)
    assert [p.source.label for p in view.placements] == list(data.labels)
    assert {region.label for _layer, region in view.targets} <= {"target"}
    walked = _lattice(_walk(certificate_to_json(view))).cert
    assert _scaled(walked, generators.D) == _scaled(data.cert, generators.D)


@pytest.mark.parametrize("label,core,n", [c for c in CORES if c[2] <= 3],
                         ids=[c[0] for c in CORES if c[2] <= 3])
def test_every_input_kind_gets_one_report(label, core, n):
    data = core(n)
    view = certificate_from_lattice(data)
    reports = {str(check_certificate(data.cert)),
               str(check_certificate(_walk(certificate_to_json(view)))),
               str(check_certificate(read_certificate(dumps_certificate(view))))}
    assert len(reports) == 1 and reports.pop().startswith("PASS")


def _read_back(text: str) -> str:
    """``text`` read into lattice data and written again: the walk and
    ``_lattice`` must agree on the order of the flat record."""
    return dumps_lattice(_lattice(read_certificate(text)))


@pytest.mark.parametrize("label,core,n", CORES, ids=[c[0] for c in CORES])
def test_the_reader_and_the_writer_are_inverses(label, core, n):
    text = dumps_lattice(core(n))
    assert _read_back(text) == text


def test_the_reader_and_the_writer_are_inverses_on_criterion_07_mutants():
    for mutant, description in verify.mutants():
        text = dumps_lattice(mutant)
        assert _read_back(text) == text, description


def test_criterion_07_mutant_reports_are_unchanged():
    """One digest over the 700 mutants' reports, each mutant checked as
    lattice data and as its written document, as the object pipeline gave
    them before the builders and the mutants moved to lattice data."""
    digests = {"lattice": hashlib.sha256(), "document": hashlib.sha256()}
    for mutant, description in verify.mutants():
        for route, cert in (("lattice", mutant.cert),
                            ("document", read_certificate(dumps_lattice(mutant)))):
            report = check_certificate(cert)
            digests[route].update(f"{description}: {report}\n".encode())
    assert {route: d.hexdigest() for route, d in digests.items()} == dict.fromkeys(
        digests, "7cae379646dd9badeb79662cba62b667e4a9b9ecaea28871f1c9e77b886bf564")


def _refuse_objects(monkeypatch):
    """Make every binding, in any module of the package, of the functions
    that build or read a certificate object raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("a certificate object was built or read")

    originals = (geometry.certificate_from_lattice, geometry.certificate_to_json)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "powersums":
            for key, value in list(vars(module).items()):
                if any(value is original for original in originals):
                    monkeypatch.setattr(module, key, refuse)
    monkeypatch.setattr(geometry.RigidTransform, "apply_rect", refuse)


def test_the_pipeline_builds_no_certificate_object(monkeypatch):
    _refuse_objects(monkeypatch)
    assert full_theorem_report(3).holds


def test_the_pipeline_builds_no_quadext_per_piece(monkeypatch):
    """``QuadExt`` serves the edges: in ``full_theorem_report`` only the
    identity rows make one, so the count does not grow with n."""
    def counts(n):
        made = {"__init__": 0, "_new": 0}
        init, new = exact.QuadExt.__init__, exact._new

        def counted_init(self, a=0, b=0):
            made["__init__"] += 1
            init(self, a, b)

        def counted_new(*triple):
            made["_new"] += 1
            return new(*triple)

        with monkeypatch.context() as m:
            m.setattr(exact.QuadExt, "__init__", counted_init)
            m.setattr(exact, "_new", counted_new)
            assert full_theorem_report(n).holds
        return made

    small = counts(2)
    assert small["__init__"] > 0
    assert counts(8) == small


def test_criterion_06_builds_no_certificate_object(monkeypatch):
    _refuse_objects(monkeypatch)
    assert verify._certificate_suite(3) is None


def test_criterion_07_builds_no_certificate_object(monkeypatch):
    _refuse_objects(monkeypatch)
    assert verify._mutations(None) is None


def test_verify_imports_no_object_model_name():
    """The criteria run on lattice data: ``verify`` imports no name that
    builds, edits, writes or walks a certificate object."""
    tree = ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))
    names = {a.name for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names}
    assert not names & {"DissectionCertificate", "certificate_from_lattice",
                        "certificate_to_json", "_walk", "mutate_placement"}


def _view_area(view, side: str) -> QuadExt:
    """The area of the object view's piece sources or targets, rect by rect."""
    regions = ([p.source for p in view.placements] if side == "source_area"
               else [region for _layer, region in view.targets])
    return sum((r.w * r.h for region in regions for r in region.rects), QuadExt(0))


def test_criterion_06_reads_each_area_from_the_lattice():
    for name, (side, area) in verify.AREAS.items():
        for n in (1, 2, 3):
            (_label, data), = verify._certificates(name, n)
            view = certificate_from_lattice(data)
            assert verify._area(data.cert, side) == _view_area(view, side) == area(n)


@pytest.mark.parametrize("side", ["leftover_area", None])
def test_lattice_area_refuses_a_side_it_does_not_sum(side):
    cert = generators._step3_scissor(1).cert
    with pytest.raises(ValueError, match="side must be 'source_area' or "
                       f"'target_area', got {side!r}"):
        geometry.lattice_area(cert, side)


def test_excess_corner_layout_refuses_an_n_that_is_not_an_int():
    for value in (True, 2.0):
        with pytest.raises(TypeError, match="n must be an int"):
            excess_corner_layout(value)


# -- the kernel judges every field ---------------------------------------------


def _first_placement(cert, **changes):
    p = cert.placements[0]
    return replace(cert, placements=(replace(p, **changes), *cert.placements[1:]))


def _first_transform(cert, reflect):
    turns, _reflect, dx, dy = cert.pieces[0][3]
    return _edit_pieces(cert, {(0, 3): (turns, reflect, dx, dy)})


@pytest.mark.parametrize("edit,message", [
    (lambda c: _edit_pieces(c, {(0, 0): 7}), "a piece id must be a str, got 7"),
    (lambda c: _edit_pieces(c, {(0, 4): ("plane",)}),
     "a layer id must be a str, got ('plane',)"),
    (lambda c: _first_transform(c, "no"), "reflect must be a bool, got 'no'"),
    (lambda c: c._replace(construction=["GAUSS_RECT"]),
     "the construction must be a str, got ['GAUSS_RECT']"),
], ids=["piece id", "layer id", "reflect", "construction"])
def test_a_field_of_the_wrong_type_is_malformed(edit, message):
    report = check_certificate(edit(generators._gauss_rectangle(2).cert))
    assert not report.ok
    assert (report.failure.kind, report.failure.message) == ("malformed", message)


@pytest.mark.parametrize("edit,message", [
    (lambda c: _first_placement(c, piece_id=7), "piece_id must be a JSON str, got 7"),
    (lambda c: _first_placement(c, destination_layer=("plane",)),
     "destination_layer must be a JSON str, got ('plane',)"),
    (lambda c: _first_placement(c, transform=replace(
        c.placements[0].transform, reflect="no")),
     "reflect must be a JSON bool, got 'no'"),
    (lambda c: replace(c, construction=["GAUSS_RECT"]),
     "construction must be a JSON str, got ['GAUSS_RECT']"),
    (lambda c: replace(c, targets=(*c.targets, ("plane", Region("target", (
        Rect(QuadExt(0), QuadExt(0), QuadExt(0), QuadExt(2)),))))),
     "a target or leftover has a degenerate rectangle"),
], ids=["piece_id", "destination_layer", "reflect", "construction",
        "degenerate target"])
def test_an_object_is_judged_as_its_document(edit, message):
    """An edited object's document gets the strict walk's refusal, as its
    file would; a rect's shape, which the walk does not judge, gets the
    kernel's malformed report."""
    document = certificate_to_json(edit(gauss_rectangle(2)))
    try:
        wire = _walk(document)
    except CertificateFormatError as exc:
        assert str(exc) == message
    else:
        report = check_certificate(wire)
        assert (report.failure.kind, report.failure.message) == ("malformed", message)


def test_an_object_is_malformed_input():
    """The checker takes lattice data and read documents only: an object,
    unedited, is refused with a report, never an exception."""
    report = check_certificate(gauss_rectangle(2))
    assert str(report) == (
        "FAIL malformed: TypeError: check_certificate takes a LatticeCertificate "
        "or a WireCertificate, got DissectionCertificate")


def test_every_target_and_leftover_rect_has_positive_sides():
    """On lattice data, which no walk has read, a target or leftover rect
    with a side <= 0 is malformed on its layer: a zero-width rect beside
    the target, or the target's x-inverted copy that cancels a second copy
    of it, passed the cover scan."""
    cert = generators._gauss_rectangle(2).cert
    layer, (frame,) = cert.targets[0]
    x1, y1, x2, y2 = frame
    cases = [
        (cert._replace(targets=[(layer, [frame, (x2, y1, x2, y2)])]), layer),
        (cert._replace(targets=[(layer, [frame]), ("extra", [(x2, y1, x1, y2)])]),
         "extra"),
        (cert._replace(leftovers=[[(x1, y2, x2, y1)]]), "leftover"),
        (cert._replace(targets=[(layer, [frame, (x2, y1, x1, y2), frame])]), layer),
    ]
    for bad, where in cases:
        failure = check_certificate(bad).failure
        assert (failure.kind, failure.layer, failure.message) == (
            "malformed", where, "a target or leftover has a degenerate rectangle")


def test_a_one_shot_container_is_malformed():
    """The shape pass would use up a one-shot iterator and leave the scans
    nothing: pieces given as a generator passed with no targets at all, and
    a third piece sent outside every target, with its rects given as a
    generator, passed too."""
    cert = generators._gauss_rectangle(2).cert
    _id, _layer, rects, _t, dest = cert.pieces[0]
    stray = ("stray", "extra", (r for r in rects), (0, False, (600, 0), (0, 0)), dest)
    layer, frame = cert.targets[0]
    cases = [
        ("pieces", cert._replace(targets=[], pieces=(p for p in cert.pieces))),
        ("the rects of a region", cert._replace(pieces=[*cert.pieces, stray])),
        ("targets", cert._replace(targets=iter(cert.targets))),
        ("leftovers", cert._replace(leftovers=iter([frame]))),
        ("the rects of a region", cert._replace(targets=[(layer, iter(frame))])),
    ]
    for what, bad in cases:
        report = check_certificate(bad)
        assert report.failure.kind == "malformed"
        assert report.failure.message.startswith(f"{what} must be a list or tuple, got <")


def test_a_lattice_certificate_of_the_wrong_shape_is_malformed():
    cert = generators._gauss_rectangle(2).cert
    ((x1, y1, x2, y2),) = cert.targets[0][1]
    cases = {
        "a rect must be a tuple of 4, got": [(x1, y1, x2)],
        "a point must be a tuple of 2, got": [(x1, y1, x2, (6, 0, 0))],
        "a coordinate must be an int, got": [(x1, y1, x2, (y2[0], True))],
    }
    for message, rects in cases.items():
        bad = cert._replace(targets=[("plane", rects)])
        failure = check_certificate(bad).failure
        assert failure.kind == "malformed" and failure.message.startswith(message)
    for d in (0, -6, 2 ** 256, 6.0):
        failure = check_certificate(cert._replace(denominator=d)).failure
        assert failure.kind == "malformed" and "denominator" in failure.message


#: one of each value the field checks must refuse: every type but the
#: field's own, and an int too large for any int field
_WRONG = (None, True, 1.5, "x", (1, 2, 3), 2 ** 4000)


def _paths(node, path=()):
    """Every position below ``node`` in a lattice certificate, as the index
    path to it."""
    if isinstance(node, (list, tuple)) and path:
        yield path
    if isinstance(node, (list, tuple)):
        for i, child in enumerate(node):
            yield from _paths(child, (*path, i))
    else:
        yield path


def _at(node, path):
    for i in path:
        node = node[i]
    return node


def _put(node, path, value):
    if not path:
        return value
    i, rest = path[0], path[1:]
    items = list(node)
    items[i] = _put(items[i], rest, value)
    return type(node)(*items) if hasattr(node, "_fields") else type(node)(items)


_SMALL = [generators._gauss_rectangle(2), generators._three_pyramids_2d(1),
          generators._step3_scissor(1), generators._step4_overlap(2),
          generators._step4_bijection(2), generators._five_pyramids_layers(1)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_SMALL), st.data(), st.sampled_from(_WRONG))
def test_a_wrong_value_in_any_field_never_passes(data, draw, value):
    cert = data.cert
    paths = list(dict.fromkeys(_paths(cert)))
    path = draw.draw(st.sampled_from(paths))
    old = _at(cert, path)
    if type(old) is type(value) and type(value) in (str, bool):
        return  # a right-typed value: the certificate may still hold
    report = check_certificate(_put(cert, path, value))
    assert not report.ok
    assert report.failure is not None


def test_the_view_shares_one_value_per_point():
    view = certificate_from_lattice(generators._step3_scissor(2))
    corners = [v for p in view.placements for r in p.source.rects for v in r]
    assert len({id(v) for v in corners}) == len(set(corners))
    assert all(type(v) is QuadExt for v in corners)


@pytest.mark.parametrize("edit,message", [
    (lambda w: w._replace(n=True), "n must be an int, got True"),
    (lambda w: w._replace(pieces=[(*w.pieces[0][:3], True, *w.pieces[0][4:]),
                                  *w.pieces[1:]]),
     "piece 'GAUSS_RECT/plane/a': quarter_turns must be 0..3, got True"),
    # the walk checked every side of the document, not these added after it
    # (GAUSS_RECT has no leftovers, so a rect's texts go last)
    (lambda w: w._replace(targets=[*w.targets, ("plane", 1)],
                          keys=[*w.keys, "0", "0", "0", "2"]),
     "a target or leftover has a degenerate rectangle"),
    (lambda w: w._replace(leftovers=[*w.leftovers, ("left_b", 1)],
                          keys=[*w.keys, "0", "0", "0", "2"]),
     "a target or leftover has a degenerate rectangle"),
    # the walk made each value's triple; an edit after it may not be three ints
    *((lambda w, t=triple: w._replace(values={**w.values, "1": t}),
       f"ValueError: a value must be three ints (A, B, den) with den >= 1, "
       f"got {triple!r}")
      for triple in [(0, 0, 0), (1, 0, True), (1.5, 0, 1)]),
], ids=["n", "quarter_turns", "zero_width_target", "zero_width_leftover",
        "zero_denominator", "bool_denominator", "float_value"])
def test_an_edited_wire_certificate_is_typed_again(edit, message):
    wire = read_certificate(dumps_certificate(gauss_rectangle(2)))
    report = check_certificate(edit(wire))
    assert (report.failure.kind, report.failure.message) == ("malformed", message)


def _edit_pieces(cert, edits):
    pieces = [list(p) for p in cert.pieces]
    for (i, field), value in edits.items():
        pieces[i][field] = value
    return cert._replace(pieces=[tuple(p) for p in pieces])


def test_the_first_of_two_defects_is_the_first_piece_s():
    """Piece by piece, as the checks ran before the type checks came in: a
    defect of piece 0 is reported before one of a later piece, and a type
    or shape defect when its frame or piece is reached, not before every
    value check."""
    cert = generators._three_pyramids_2d(2).cert
    first_id = cert.pieces[0][0]
    x1, y1, _x2, y2 = cert.pieces[0][2][0]
    _turns, reflect, dx, dy = cert.pieces[3][3]
    turned_seven = {(3, 3): (7, reflect, dx, dy)}
    _turns, reflect0, dx0, dy0 = cert.pieces[0][3]
    (p1, q1, p2, (y2a, _y2b)), *rest = cert.pieces[3][2]

    def coordinate(value):
        return {(3, 2): [(p1, q1, p2, (y2a, value)), *rest]}

    cases = {
        "has a degenerate rectangle": {(0, 2): [(x1, y1, x1, y2)], (5, 0): first_id},
        "has an empty source region": {(0, 2): [], **turned_seven},
        "duplicate piece id": {(1, 0): first_id, **turned_seven},
        f"piece {first_id!r}: quarter_turns must be 0..3, got 7": {
            (0, 3): (7, reflect0, dx0, dy0), **coordinate(True)},
    }
    for message, edits in cases.items():
        failure = check_certificate(_edit_pieces(cert, edits)).failure
        assert failure.kind == "malformed" and message in failure.message
    layer, frame = cert.targets[0]
    (t1, u1, _t2, u2), *_rest = frame
    zero_width = _edit_pieces(cert, coordinate(1.5))._replace(
        targets=[(layer, [*frame, (t1, u1, t1, u2)]), *cert.targets[1:]])
    failure = check_certificate(zero_width).failure
    assert (failure.kind, failure.layer, failure.message) == (
        "malformed", layer, "a target or leftover has a degenerate rectangle")
    named = check_certificate(cert._replace(construction="NOPE", n=0)).failure
    assert named.message == "unknown construction 'NOPE'"


class _Liar:
    """Reports ``int`` as its ``__class__``, which ``type()`` does not read."""

    __class__ = int


def test_a_coordinate_is_judged_by_its_type_not_its_class():
    cert = generators._gauss_rectangle(2).cert
    piece_id, layer, rects, (turns, reflect, dx, dy), dest = cert.pieces[0]
    (x1, y1, x2, y2), *rest = rects
    assert _Liar().__class__ is int
    for piece in [(piece_id, layer, [(x1, y1, x2, (_Liar(), 0)), *rest],
                   (turns, reflect, dx, dy), dest),
                  (piece_id, layer, rects, (turns, reflect, (_Liar(), 0), dy), dest)]:
        failure = check_certificate(cert._replace(pieces=[piece, *cert.pieces[1:]])).failure
        assert failure.kind == "malformed"
        assert failure.message.startswith("a coordinate must be an int, got <")


# -- the lattice writer ------------------------------------------------------


#: every construction and variant at n = 1, 2, 3 and min(cap, 10)
WRITTEN = [(f"{name} {variant} n={n}", build.core, n)
           for name, cap in CONSTRUCTIONS.items()
           for variant, build in certificate_builders(name).items()
           for n in sorted({1, 2, 3, min(cap, 10)})]


def _json_dumps(data: LabelledLattice) -> str:
    """The stdlib encoder's document for ``data``'s view: the byte oracle
    of the one writer."""
    return json.dumps(certificate_to_json(certificate_from_lattice(data)), indent=1)


@pytest.mark.parametrize("label,core,n", WRITTEN, ids=[w[0] for w in WRITTEN])
def test_the_lattice_writer_writes_the_object_path_s_bytes(label, core, n):
    data = core(n)
    text = dumps_lattice(data)
    assert text == _json_dumps(data)
    assert dumps_certificate(certificate_from_lattice(data)) == text


#: text that JSON must escape, or that no builder writes
_texts = st.one_of(
    st.sampled_from(["", '"', "\\", '\\"', "\n\t\x00\x1f\x7f", "é", "λ·√21",
                     "\U0001f600", "\ud800", "layer/1", "target"]),
    st.text(max_size=12))
_points = st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
_rects = st.lists(st.tuples(_points, _points, _points, _points), max_size=3)
_pieces = st.lists(st.tuples(
    _texts, _texts, _rects,
    st.tuples(st.integers(-8, 8), st.booleans(), _points, _points), _texts),
    max_size=4)


@settings(max_examples=200, deadline=None)
@given(_texts, st.integers(-10**30, 10**30), _pieces,
       st.lists(st.tuples(_texts, _rects), max_size=3),
       st.lists(_rects, max_size=3), st.integers(1, 10**6), st.data())
def test_the_lattice_writer_escapes_and_nests_as_json_does(
        construction, n, pieces, targets, leftovers, d, draw):
    data = LabelledLattice(
        LatticeCertificate(construction, n, pieces, targets, leftovers, d),
        draw.draw(st.lists(_texts, min_size=len(pieces), max_size=len(pieces))),
        draw.draw(st.lists(_texts, min_size=len(leftovers),
                           max_size=len(leftovers))))
    assert dumps_lattice(data) == _json_dumps(data)


@pytest.mark.parametrize("keep", [1, 3])
@pytest.mark.parametrize("write", [certificate_from_lattice, dumps_lattice],
                         ids=["view", "writer"])
def test_a_piece_without_its_label_is_refused(write, keep):
    # paired through zip, an unlabelled piece was dropped without a word:
    # the data passed in process while the written document failed check
    data = generators._gauss_rectangle(2)
    labels = (*data.labels, "extra")[:keep]
    with pytest.raises(ValueError) as exc:
        write(data._replace(labels=labels))
    assert str(exc.value) == f"pieces and their labels differ in count: 2 and {keep}"


@pytest.mark.parametrize("keep", [23, 25])
@pytest.mark.parametrize("write", [certificate_from_lattice, dumps_lattice],
                         ids=["view", "writer"])
def test_a_leftover_without_its_label_is_refused(write, keep):
    data = generators._step3_scissor(2)
    assert len(data.cert.leftovers) == len(data.leftover_labels) == 24
    labels = (*data.leftover_labels, "extra")[:keep]
    with pytest.raises(ValueError) as exc:
        write(data._replace(leftover_labels=labels))
    assert str(exc.value) == (
        f"leftovers and their labels differ in count: 24 and {keep}")
