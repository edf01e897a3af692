"""The exact-cover checker: pass/fail semantics and mutation sensitivity."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powersums.dissect import (
    CONSTRUCTIONS,
    DissectionCertificate,
    LEFTOVER_LAYER,
    Placement,
    Region,
    RigidTransform,
    check_certificate,
    covers_exactly,
    dumps_certificate,
    five_pyramids_layers,
    gauss_rectangle,
    mutate_placement,
    nicomachus_4d_2d,
    step2_reshape,
    step3_scissor,
    step4_top_layer,
    three_pyramids_2d,
)
from powersums.dissect import generators, kernel
from powersums.dissect.geometry import (Rect, WireCertificate, _lattice, _walk,
                                       certificate_to_json, dumps_lattice)
from powersums.dissect.kernel import _sorted_points, lattice_sign as _sign
from powersums.dissect.mutants import MUTATION_KINDS, mutate_piece
from powersums.exact import QuadExt, quad_to_text, strip_root


def _rect(x, y, w, h) -> Rect:
    return Rect(*map(QuadExt.of, (x, y, w, h)))


def _document(cert: DissectionCertificate) -> WireCertificate:
    """An edited object as its document: the record its file is read into."""
    return _walk(certificate_to_json(cert))


def _shift_placement(cert: DissectionCertificate, index: int,
                     dx: int, dy: int) -> DissectionCertificate:
    p = cert.placements[index]
    t = replace(p.transform, dx=p.transform.dx + dx, dy=p.transform.dy + dy)
    placements = list(cert.placements)
    placements[index] = replace(p, transform=t)
    return replace(cert, placements=tuple(placements))


def test_generated_gauss_passes():
    report = check_certificate(gauss_rectangle.core(5).cert)
    assert report.ok and report.failure is None


def test_translated_piece_breaks_cover():
    cert = _shift_placement(gauss_rectangle(5), 0, 1, 0)
    report = check_certificate(_document(cert))
    assert not report.ok
    assert report.failure.kind in ("overlap", "uncovered", "outside")
    assert report.failure.cell is not None


def test_enlarged_target_reports_uncovered():
    cert = gauss_rectangle(4)
    layer, region = cert.targets[0]
    widened = Region(region.label, (_rect(region.rects[0].x, 0,
                                          region.rects[0].w + 1,
                                          region.rects[0].h),))
    bad = replace(cert, targets=((layer, widened),))
    report = check_certificate(_document(bad))
    assert not report.ok and report.failure.kind == "uncovered"


def test_overlapping_targets_are_malformed():
    cert = gauss_rectangle(2)
    layer, region = cert.targets[0]
    bad = replace(cert, targets=((layer, region), (layer, region)))
    report = check_certificate(_document(bad))
    assert not report.ok and report.failure.kind == "malformed"


def test_source_overlap_detected():
    cert = gauss_rectangle(3)
    p = cert.placements[0]
    dup = replace(p, piece_id="dup",
                  transform=replace(p.transform, dx=p.transform.dx + 100))
    bad = replace(cert, placements=cert.placements + (dup,))
    report = check_certificate(_document(bad))
    assert not report.ok and report.failure.kind == "source-overlap"


def test_leftover_pieces_must_match_declarations():
    assert check_certificate(step3_scissor.core(1).cert).ok
    cert = step3_scissor(1)
    # drop one declared leftover: its piece is now outside every target
    bad = replace(cert, leftovers=cert.leftovers[1:])
    report = check_certificate(_document(bad))
    assert not report.ok and report.failure.kind in ("outside", "uncovered")


def test_malformed_certificates_never_crash():
    ok = gauss_rectangle(2)
    cases = [
        replace(ok, construction="NOT_A_CONSTRUCTION"),
        replace(ok, n=0),
        replace(ok, placements=ok.placements + (ok.placements[0],)),  # dup id
        replace(ok, placements=(replace(
            ok.placements[0],
            transform=RigidTransform(quarter_turns=7)),) + ok.placements[1:]),
        replace(ok, placements=(replace(
            ok.placements[0], source=Region("empty", ())),) + ok.placements[1:]),
        replace(ok, targets=((LEFTOVER_LAYER, ok.targets[0][1]),)),
    ]
    data = gauss_rectangle.core(2).cert
    piece_id, layer, rects, (_turns, *shift), dest = data.pieces[0]
    built = [  # lattice data built in process, so no JSON walk refused these first
        data._replace(n=True),
        data._replace(n=2.0),
        data._replace(pieces=[(piece_id, layer, rects, (True, *shift), dest),
                              *data.pieces[1:]]),
    ]
    for bad in [*map(_document, cases), *built]:
        report = check_certificate(bad)
        assert not report.ok and report.failure.kind == "malformed"


def test_oversized_common_denominator_is_malformed():
    cert = gauss_rectangle(2)
    layer, region = cert.targets[0]
    r = region.rects[0]
    tiny = QuadExt(Fraction(1, 2**300))
    bad = replace(cert, targets=((layer, Region(region.label, (
        r._replace(x=r.x + tiny),))),))
    report = check_certificate(_document(bad))
    assert not report.ok and report.failure.kind == "malformed"
    assert "common denominator" in report.failure.message


def test_failure_reports_offending_cell_exactly():
    cert = _shift_placement(gauss_rectangle(1), 1, 0, 1)
    report = check_certificate(_document(cert))
    assert not report.ok
    cell = report.failure.cell
    # the vacated or doubly-covered strip is one unit tall
    assert cell.y2 - cell.y1 <= QuadExt(1)


def test_covers_exactly_helper():
    assert covers_exactly([_rect(0, 0, 1, 2), _rect(1, 0, 1, 2)],
                          [_rect(0, 0, 2, 2)])
    assert not covers_exactly([_rect(0, 0, 1, 2)], [_rect(0, 0, 2, 2)])
    assert not covers_exactly([_rect(0, 0, 2, 2), _rect(1, 0, 1, 2)],
                              [_rect(0, 0, 2, 2)])


@pytest.mark.parametrize("make", [
    lambda: gauss_rectangle(2),
    lambda: three_pyramids_2d(2),
    lambda: nicomachus_4d_2d(2),
    lambda: five_pyramids_layers(2),
    lambda: step2_reshape(2),
    lambda: step3_scissor(2),
    lambda: step4_top_layer(2).overlap,
])
def test_every_mutation_fails(make):
    cert = make()
    rng = random.Random(21)
    for _ in range(40):
        mutant, description = mutate_placement(cert, rng)
        assert not check_certificate(_document(mutant)).ok, description


def test_all_mutation_kinds_fail_individually():
    cert = three_pyramids_2d(3)
    base = cert.placements[5]
    one = QuadExt(1)
    variants = [
        replace(base.transform, dx=base.transform.dx + one),
        replace(base.transform, dy=base.transform.dy - one),
        replace(base.transform,
                quarter_turns=(base.transform.quarter_turns + 1) % 4),
        replace(base.transform, reflect=not base.transform.reflect),
    ]
    for t in variants:
        placements = list(cert.placements)
        placements[5] = replace(base, transform=t)
        mutant = replace(cert, placements=tuple(placements))
        assert not check_certificate(_document(mutant)).ok


# -- the integer-lattice kernel ---------------------------------------------

lattice_ints = st.integers(-10**12, 10**12)


def _unit_power(k: int) -> tuple[int, int]:
    """(a, b) with a + b*sqrt(21) = (55 + 12*sqrt(21))**k, of norm 1."""
    a, b = 1, 0
    for _ in range(k):
        a, b = 55 * a + 252 * b, 12 * a + 55 * b
    return a, b


@st.composite
def near_ties(draw):
    """Two lattice points whose real values differ by a + b*sqrt(21) of
    size below 3, or, for a unit power, about 1/(2a)."""
    p, q = draw(lattice_ints), draw(lattice_ints)
    if draw(st.booleans()):
        a, b = _unit_power(draw(st.integers(1, 6)))
        a, b = (a, -b) if draw(st.booleans()) else (-a, b)
    else:
        b = draw(st.integers(-10**9, 10**9))
        a = -isqrt(21 * b * b) if b > 0 else isqrt(21 * b * b)
        a += draw(st.integers(-2, 2))
    return [(p, q), (p + a, q + b)]


@given(st.lists(st.tuples(lattice_ints, lattice_ints), max_size=30),
       st.lists(near_ties(), max_size=5))
def test_lattice_order_matches_quadext_order(points, ties):
    # 458 vs 100*sqrt(21): 458**2 = 209764 against 21 * 100**2 = 210000
    points = set(points) | {(458, 0), (0, 100), (459, 0), (0, -100), (-458, 0)}
    points |= {pt for pair in ties for pt in pair}
    as_quad = sorted(points, key=lambda pt: QuadExt(pt[0], pt[1]))
    assert _sorted_points(points) == as_quad
    for a, b in points:
        assert _sign(a, b) == QuadExt(a, b).sign()
    assert _sign(458, -100) == -1 and _sign(-458, 100) == 1
    assert _sign(459, -100) == 1


sixths = st.integers(-120, 120).map(lambda k: Fraction(k, 6))
sqrt21_values = st.builds(QuadExt, sixths, sixths.map(lambda v: v / 6))
# a + c*x with a, c >= 0 and x = strip_root() > 0: positive, and irrational
# whenever c is not 0
sqrt21_sides = st.builds(
    lambda a, c: QuadExt(Fraction(a, 6)) + strip_root() * Fraction(c, 6),
    st.integers(1, 60), st.integers(0, 18))
sqrt21_rects = st.builds(Rect, sqrt21_values, sqrt21_values, sqrt21_sides,
                         sqrt21_sides)


@pytest.mark.parametrize("reflect", [False, True])
@pytest.mark.parametrize("quarter_turns", [0, 1, 2, 3])
@given(st.lists(sqrt21_rects, max_size=4), sqrt21_values, sqrt21_values)
@example([], QuadExt(Fraction(5, 2)) - strip_root(), QuadExt(1, Fraction(-1, 3)))
@settings(max_examples=40)
def test_lattice_transform_matches_placed(reflect, quarter_turns, rects, dx,
                                          dy):
    x = strip_root()
    r = Rect(x + Fraction(1, 3), QuadExt(-2) - x, QuadExt(3) + x, x)
    t = RigidTransform(quarter_turns, reflect, dx, dy)
    piece = Placement("p", "a", Region("piece", (r, *rects)), t, "b")
    target = Region("target", piece.placed().rects)
    cert = DissectionCertificate("GAUSS_RECT", 1, (piece,), (("b", target),), ())
    lattice = _lattice(_document(cert)).cert
    [(_id, _source_layer, source, transform, _layer)] = lattice.pieces
    assert kernel._place(source, transform) == lattice.targets[0][1]


class _Fixed:
    """A stand-in rng whose ``randrange`` answers are given in advance."""

    def __init__(self, *answers: int) -> None:
        self._answers = list(answers)

    def randrange(self, _stop: int) -> int:
        return self._answers.pop(0)


_MAKERS = {
    "gauss_rectangle": gauss_rectangle,
    "three_pyramids_2d": three_pyramids_2d,
    "nicomachus_4d_2d": nicomachus_4d_2d,
    "five_pyramids_layers": five_pyramids_layers,
    "step2_reshape": step2_reshape,
    "step3_scissor": step3_scissor,
    "step4_overlap": generators.step4_overlap,
}

# Reports recorded from the checker that ordered QuadExt coordinates
# directly, before it moved to integer lattice points: the lattice kernel
# must reproduce each one, failing cell included.  The last two fields
# count the layers and cells scanned up to and including the failing cell.
# (maker, n, placement index, mutation,
#  kind, layer, cell (x1, y1, x2, y2), layers_checked, cells_checked)
PINNED_MUTANTS = [
    ('gauss_rectangle', 3, 0, 'translate+x on GAUSS_RECT/plane/a',
     'uncovered', 'plane', ('10', '0', '11', '1'), 2, 22),
    ('gauss_rectangle', 3, 0, 'translate-x on GAUSS_RECT/plane/a',
     'outside', 'plane', ('9', '0', '10', '1'), 2, 22),
    ('gauss_rectangle', 3, 0, 'translate+y on GAUSS_RECT/plane/a',
     'uncovered', 'plane', ('10', '0', '11', '1'), 2, 22),
    ('three_pyramids_2d', 3, 9, 'translate-y on THREE_PYR_2D/layer/3/stair_b',
     'outside', 'layer/3', ('3', '-1', '4', '0'), 6, 77),
    ('three_pyramids_2d', 3, 3, 'quarter-turn on THREE_PYR_2D/layer/1/halfrow',
     'outside', 'layer/3', ('-1', '-1/2', '-1/2', '0'), 6, 72),
    ('three_pyramids_2d', 3, 9, 'reflect on THREE_PYR_2D/layer/3/stair_b',
     'outside', 'layer/3', ('-4', '0', '-3', '1'), 6, 72),
    ('nicomachus_4d_2d', 2, 0, 'translate+x on NICOMACHUS_4D_2D/grid/1,1/stair_a',
     'uncovered', 'grid', ('0', '3', '1', '4'), 2, 52),
    ('nicomachus_4d_2d', 2, 11, 'translate-x on NICOMACHUS_4D_2D/grid/2,2/square',
     'overlap', 'grid', ('2', '1', '3', '2'), 2, 62),
    ('nicomachus_4d_2d', 2, 5, 'translate+y on NICOMACHUS_4D_2D/grid/1,2/square',
     'uncovered', 'grid', ('3', '4', '5', '5'), 2, 74),
    ('five_pyramids_layers', 2, 3, 'translate-y on FIVE_PYR_LAYERS/layer/1/1,2/square',
     'overlap', 'layer/1', ('3', '3', '5', '4'), 5, 138),
    ('five_pyramids_layers', 2, 35, 'quarter-turn on FIVE_PYR_LAYERS/fifth/2/1,0',
     'outside', 'excess', ('-3', '4', '-1', '5'), 4, 105),
    ('five_pyramids_layers', 2, 30, 'reflect on FIVE_PYR_LAYERS/layer/2/row0/2/1,0',
     'outside', 'layer/2', ('-4', '5', '-3', '6'), 6, 152),
    ('step2_reshape', 2, 0, 'translate+x on STEP2_RESHAPE/layer/1/0,0/body',
     'uncovered', 'layer/1', ('0', '0', '1', '2'), 3, 17),
    ('step2_reshape', 2, 14, 'translate-x on STEP2_RESHAPE/layer/2/1,1/body',
     'overlap', 'layer/2', ('2', '2', '3', '4'), 4, 30),
    ('step2_reshape', 2, 12, 'translate+y on STEP2_RESHAPE/layer/2/1,0/body',
     'uncovered', 'layer/2', ('0', '2', '3', '3'), 4, 26),
    ('step3_scissor', 2, 45, 'translate-y on STEP3_SCISSOR/layer/2/2,1/a',
     'overlap', 'layer/2', ('7', '3', '13/2+1/6*sqrt21', '9/2+-1/6*sqrt21'), 4, 129),
    ('step3_scissor', 2, 27, 'quarter-turn on STEP3_SCISSOR/layer/2/0,0/c',
     'outside', 'leftover', ('-9/2+1/6*sqrt21', '3', '-5+1/3*sqrt21', '5/2+1/6*sqrt21'), 5, 127),
    ('step3_scissor', 2, 9, 'reflect on STEP3_SCISSOR/layer/1/1,0/a',
     'overlap', 'layer/1', ('3', '-1/2+1/6*sqrt21', '5/2+1/6*sqrt21', '5/2+-1/6*sqrt21'), 3, 80),
    ('step4_overlap', 2, 0, 'translate+x on STEP4_TOP/overlap/dual/0,0',
     'uncovered', 'doubled', ('2', '2', '3', '3'), 5, 51),
    ('step4_overlap', 2, 6, 'translate-x on STEP4_TOP/overlap/deficit2/1',
     'overlap', 'doubled', ('3', '4', '4', '5'), 5, 58),
    ('step4_overlap', 2, 0, 'translate+y on STEP4_TOP/overlap/dual/0,0',
     'uncovered', 'doubled', ('2', '2', '3', '3'), 5, 51),
]


@pytest.mark.parametrize(
    "maker,n,index,description,kind,layer,cell,layers,cells", PINNED_MUTANTS,
    ids=[row[3] for row in PINNED_MUTANTS])
def test_pinned_mutant_reports(maker, n, index, description, kind, layer,
                               cell, layers, cells):
    """Each row through both appliers of the one table of edits: the
    object's, checked as its document, and the lattice data's."""
    mutation = MUTATION_KINDS.index(description.split(" on ")[0])
    build = _MAKERS[maker]
    mutant, label = mutate_placement(build(n), _Fixed(index, mutation))
    data, data_label = mutate_piece(build.core(n), _Fixed(index, mutation))
    assert label == data_label == description
    for report in (check_certificate(_document(mutant)), check_certificate(data.cert)):
        failure = report.failure
        got_cell = tuple(quad_to_text(v) for v in (
            failure.cell.x1, failure.cell.y1, failure.cell.x2, failure.cell.y2))
        assert (failure.kind, failure.layer, got_cell, report.layers_checked,
                report.cells_checked) == (kind, layer, cell, layers, cells)


@pytest.mark.parametrize("maker", _MAKERS)
def test_both_appliers_write_the_same_mutant(maker):
    """Each kind of edit, on the first and the last piece, gives the same
    document from the object and from its lattice data."""
    build = _MAKERS[maker]
    cert, data = build(2), build.core(2)
    for index in (0, len(cert.placements) - 1):
        for mutation in range(len(MUTATION_KINDS)):
            mutant, label = mutate_placement(cert, _Fixed(index, mutation))
            lattice, data_label = mutate_piece(data, _Fixed(index, mutation))
            assert label == data_label
            assert dumps_certificate(mutant) == dumps_lattice(lattice), label


_CERTIFICATES = {
    "GAUSS_RECT": lambda n: [gauss_rectangle(n)],
    "THREE_PYR_2D": lambda n: [three_pyramids_2d(n)],
    "NICOMACHUS_4D_2D": lambda n: [nicomachus_4d_2d(n)],
    "FIVE_PYR_LAYERS": lambda n: [five_pyramids_layers(n)],
    "STEP2_RESHAPE": lambda n: [step2_reshape(n)],
    "STEP3_SCISSOR": lambda n: [step3_scissor(n)],
    "STEP4_TOP": lambda n: list(step4_top_layer(n).certificates()),
}


@pytest.mark.parametrize("construction", CONSTRUCTIONS)
def test_generated_certificates_need_denominator_six(construction):
    # halves (THREE_PYR_2D) and the strip width (-3 + sqrt(21))/6 are the
    # only non-integers the generators emit
    for n in range(1, 5):
        for cert in _CERTIFICATES[construction](n):
            d = _lattice(_document(cert)).cert.denominator
            assert 6 % d == 0
