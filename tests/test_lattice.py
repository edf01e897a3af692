"""The generators' lattice data, the object view over it, and the kernel's
checks of every field of that data.

Each construction has one builder of its kernel data (``generators._<name>``)
and its public builder returns ``geometry.certificate_from_lattice`` of it.
These tests fail if the view and the lattice drift apart, if the pipeline
goes back to certificate objects, or if a field of the wrong type reaches a
verdict.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powersums import exact, verify
from powersums.dissect import (
    CONSTRUCTIONS,
    check_certificate,
    dumps_certificate,
    excess_corner_layout,
    full_theorem_report,
    gauss_rectangle,
    read_certificate,
)
from powersums.dissect import generators, geometry
from powersums.dissect.checker import _from_wire
from powersums.dissect.generators import certificate_builders
from powersums.dissect.geometry import (Rect, Region, _walk, certificate_from_lattice,
                                       certificate_to_json)
from powersums.exact import QuadExt, strip_root


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
    view = geometry.LatticeView(generators.D)
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
    walked = _from_wire(_walk(certificate_to_json(view)))
    assert _scaled(walked, generators.D) == _scaled(data.cert, generators.D)


@pytest.mark.parametrize("label,core,n", [c for c in CORES if c[2] <= 3],
                         ids=[c[0] for c in CORES if c[2] <= 3])
def test_every_input_kind_gets_one_report(label, core, n):
    data = core(n)
    view = certificate_from_lattice(data)
    reports = {str(check_certificate(data.cert)), str(check_certificate(view)),
               str(check_certificate(read_certificate(dumps_certificate(view))))}
    assert len(reports) == 1 and reports.pop().startswith("PASS")


def test_criterion_07_mutant_reports_are_unchanged():
    """One digest over the 700 mutants' reports, as the object pipeline
    gave them before the builders moved to lattice data."""
    digest = hashlib.sha256()
    for mutant, description in verify.mutants():
        digest.update(f"{description}: {check_certificate(mutant)}\n".encode())
    assert digest.hexdigest() == (
        "7cae379646dd9badeb79662cba62b667e4a9b9ecaea28871f1c9e77b886bf564")


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


def test_criterion_06_reads_each_area_from_the_lattice():
    for name, (side, area) in verify.AREAS.items():
        for n in (1, 2, 3):
            (_label, data), = verify._certificates(name, n)
            view = certificate_from_lattice(data)
            assert verify._area(data.cert, side) == getattr(view, side) == area(n)


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
])
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
     "bad certificate structure: rectangle sides must be positive: w=0 h=2"),
])
def test_an_object_is_judged_as_its_document(edit, message):
    """An edited object gets the strict walk's refusal, as its file would."""
    report = check_certificate(edit(gauss_rectangle(2)))
    assert str(report) == f"FAIL malformed: CertificateFormatError: {message}"


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
    (lambda w: w._replace(placements=[w.placements[0]._replace(quarter_turns=True),
                                      *w.placements[1:]]),
     "piece 'GAUSS_RECT/plane/a': quarter_turns must be 0..3, got True"),
    # the walk checked every side of the document, not these added after it
    (lambda w: w._replace(targets=[*w.targets, ("plane", ("target", [["0", "0", "0", "2"]]))]),
     "a target or leftover has a degenerate rectangle"),
    (lambda w: w._replace(leftovers=[*w.leftovers, ("left_b", [["0", "0", "0", "2"]])]),
     "a target or leftover has a degenerate rectangle"),
], ids=["n", "quarter_turns", "zero_width_target", "zero_width_leftover"])
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
    defect of piece 0 is reported before one of a later piece."""
    cert = generators._three_pyramids_2d(2).cert
    first_id = cert.pieces[0][0]
    x1, y1, _x2, y2 = cert.pieces[0][2][0]
    _turns, reflect, dx, dy = cert.pieces[3][3]
    turned_seven = {(3, 3): (7, reflect, dx, dy)}
    cases = {
        "has a degenerate rectangle": {(0, 2): [(x1, y1, x1, y2)], (5, 0): first_id},
        "has an empty source region": {(0, 2): [], **turned_seven},
        "duplicate piece id": {(1, 0): first_id, **turned_seven},
    }
    for message, edits in cases.items():
        failure = check_certificate(_edit_pieces(cert, edits)).failure
        assert failure.kind == "malformed" and message in failure.message
    named = check_certificate(cert._replace(construction="NOPE", n=0)).failure
    assert named.message == "unknown construction 'NOPE'"
