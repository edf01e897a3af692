"""The exact-cover checker: pass/fail semantics and mutation sensitivity."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given
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
    five_pyramids_layers,
    gauss_rectangle,
    mutate_placement,
    nicomachus_4d_2d,
    rect,
    step2_reshape,
    step3_scissor,
    step4_top_layer,
    three_pyramids_2d,
)
from powersums.dissect.checker import (
    MUTATION_KINDS,
    _certificate_values,
    _common_denominator,
    _lattice_rect,
    _place,
    _sign,
    _sorted_points,
)
from powersums.exact import QuadExt, quad_to_text, strip_root


def _shift_placement(cert: DissectionCertificate, index: int,
                     dx: int, dy: int) -> DissectionCertificate:
    p = cert.placements[index]
    t = replace(p.transform, dx=p.transform.dx + dx, dy=p.transform.dy + dy)
    placements = list(cert.placements)
    placements[index] = replace(p, transform=t)
    return replace(cert, placements=tuple(placements))


def test_generated_gauss_passes():
    report = check_certificate(gauss_rectangle(5))
    assert report.ok and report.failure is None


def test_translated_piece_breaks_cover():
    cert = _shift_placement(gauss_rectangle(5), 0, 1, 0)
    report = check_certificate(cert)
    assert not report.ok
    assert report.failure.kind in ("overlap", "uncovered", "outside")
    assert report.failure.cell is not None


def test_enlarged_target_reports_uncovered():
    cert = gauss_rectangle(4)
    layer, region = cert.targets[0]
    widened = Region(region.label, (rect(region.rects[0].x, 0,
                                         region.rects[0].w + 1,
                                         region.rects[0].h),))
    bad = replace(cert, targets=((layer, widened),))
    report = check_certificate(bad)
    assert not report.ok and report.failure.kind == "uncovered"


def test_overlapping_targets_are_malformed():
    cert = gauss_rectangle(2)
    layer, region = cert.targets[0]
    bad = replace(cert, targets=((layer, region), (layer, region)))
    report = check_certificate(bad)
    assert not report.ok and report.failure.kind == "malformed"


def test_source_overlap_detected():
    cert = gauss_rectangle(3)
    p = cert.placements[0]
    dup = replace(p, piece_id="dup",
                  transform=replace(p.transform, dx=p.transform.dx + 100))
    bad = replace(cert, placements=cert.placements + (dup,))
    report = check_certificate(bad)
    assert not report.ok and report.failure.kind == "source-overlap"


def test_leftover_pieces_must_match_declarations():
    cert = step3_scissor(1)
    assert check_certificate(cert).ok
    # drop one declared leftover: its piece is now outside every target
    bad = replace(cert, leftovers=cert.leftovers[1:])
    report = check_certificate(bad)
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
    for bad in cases:
        report = check_certificate(bad)
        assert not report.ok and report.failure.kind == "malformed"


def test_oversized_common_denominator_is_malformed():
    cert = gauss_rectangle(2)
    layer, region = cert.targets[0]
    r = region.rects[0]
    tiny = QuadExt(Fraction(1, 2**300))
    bad = replace(cert, targets=((layer, Region(region.label, (
        r._replace(x=r.x + tiny),))),))
    report = check_certificate(bad)
    assert not report.ok and report.failure.kind == "malformed"
    assert "common denominator" in report.failure.message


def test_failure_reports_offending_cell_exactly():
    cert = _shift_placement(gauss_rectangle(1), 1, 0, 1)
    report = check_certificate(cert)
    assert not report.ok
    cell = report.failure.cell
    # the vacated or doubly-covered strip is one unit tall
    assert cell.y2 - cell.y1 <= QuadExt(1)


def test_covers_exactly_helper():
    assert covers_exactly([rect(0, 0, 1, 2), rect(1, 0, 1, 2)],
                          [rect(0, 0, 2, 2)])
    assert not covers_exactly([rect(0, 0, 1, 2)], [rect(0, 0, 2, 2)])
    assert not covers_exactly([rect(0, 0, 2, 2), rect(1, 0, 1, 2)],
                              [rect(0, 0, 2, 2)])


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
        assert not check_certificate(mutant).ok, description


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
        assert not check_certificate(mutant).ok


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


@pytest.mark.parametrize("reflect", [False, True])
@pytest.mark.parametrize("quarter_turns", [0, 1, 2, 3])
def test_lattice_transform_matches_placed(reflect, quarter_turns):
    x = strip_root()
    r = rect(x + Fraction(1, 3), QuadExt(-2) - x, QuadExt(3) + x, x)
    t = RigidTransform(quarter_turns, reflect, QuadExt(Fraction(5, 2)) - x,
                       QuadExt(1, Fraction(-1, 3)))
    placed = Placement("p", "a", Region("piece", (r,)), t, "b").placed()
    d = _common_denominator([*r, *placed.rects[0], t.dx, t.dy])
    assert _place([_lattice_rect(r, d)], t, d) == [
        _lattice_rect(placed.rects[0], d)]


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
    "step4_overlap": lambda n: step4_top_layer(n).overlap,
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
    mutation = MUTATION_KINDS.index(description.split(" on ")[0])
    mutant, label = mutate_placement(_MAKERS[maker](n), _Fixed(index, mutation))
    assert label == description
    report = check_certificate(mutant)
    failure = report.failure
    got_cell = tuple(quad_to_text(v) for v in (
        failure.cell.x1, failure.cell.y1, failure.cell.x2, failure.cell.y2))
    assert (failure.kind, failure.layer, got_cell, report.layers_checked,
            report.cells_checked) == (kind, layer, cell, layers, cells)


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
            assert 6 % _common_denominator(_certificate_values(cert)) == 0
