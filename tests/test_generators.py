"""Certificate generators: areas, structure, and pipeline consistency."""

from __future__ import annotations

import dataclasses
import re
import tracemalloc
from fractions import Fraction

import pytest

from powersums import verify
from powersums.dissect import generators, kernel
from powersums.dissect.checker import check_certificate
from powersums.dissect.generators import (StageCheckError, UnsupportedN,
                                         excess_corner_layout,
                                         five_pyramids_layers,
                                         full_theorem_report, gauss_rectangle,
                                         nicomachus_4d_2d, step2_reshape,
                                         step3_scissor, step4_top_layer,
                                         three_pyramids_2d)
from powersums.dissect.geometry import _walk, certificate_to_json, lattice_area
from powersums.dissect.kernel import CONSTRUCTIONS, LEFTOVER_LAYER
from powersums.exact import QuadExt, strip_root
from powersums.figurate import (
    evaluate_identity,
    odd_weighted_squares,
    sum_powers_bruteforce,
)
from powersums.verify import AREAS


def _area(build, n: int, side: str = "source_area") -> QuadExt:
    """The area of ``build``'s piece sources or targets at n, summed on its
    lattice data."""
    return lattice_area(build.core(n).cert, side)


def _leftover_area(cert) -> QuadExt:
    """The area of lattice data's leftover regions, summed as targets."""
    return lattice_area(cert._replace(targets=[
        (LEFTOVER_LAYER, rects) for rects in cert.leftovers]), "target_area")


def _area_conserved(data) -> bool:
    cert = data.cert
    return (lattice_area(cert, "source_area")
            == lattice_area(cert, "target_area") + _leftover_area(cert))


def _has_theorem_area(data) -> bool:
    side, area = AREAS[data.cert.construction]
    return lattice_area(data.cert, side) == area(data.cert.n)


def test_gauss_examples():
    cert = gauss_rectangle(1)
    assert len(cert.placements) == 2
    assert all(len(p.source.rects) == 1 for p in cert.placements)
    _, target = cert.targets[0]
    assert (target.rects[0].w, target.rects[0].h) == (QuadExt(2), QuadExt(1))

    assert _area(gauss_rectangle, 4, "target_area") == QuadExt(20)
    assert check_certificate(gauss_rectangle.core(4).cert).ok

    assert _area(gauss_rectangle, 50, "target_area") == QuadExt(2550)
    assert check_certificate(gauss_rectangle.core(50).cert).ok


def test_three_pyramids_examples():
    cert = three_pyramids_2d(1)
    _, target = cert.targets[0]
    assert target.rects[0].w == QuadExt(2)
    assert target.rects[0].h == QuadExt(Fraction(3, 2))
    assert _area(three_pyramids_2d, 1, "target_area") == QuadExt(3)

    cert = three_pyramids_2d(4)
    assert len(cert.targets) == 4
    assert all(r.rects[0].w * r.rects[0].h == QuadExt(Fraction(45, 2))
               for _, r in cert.targets)
    assert _area(three_pyramids_2d, 4) == QuadExt(90)  # 3 * (1 + 4 + 9 + 16)
    assert check_certificate(three_pyramids_2d.core(4).cert).ok

    # odd: the middle layer swaps with itself
    assert _area(three_pyramids_2d, 7) == QuadExt(420)
    assert check_certificate(three_pyramids_2d.core(7).cert).ok


def test_three_pyramids_totals_match_oracle():
    for n in range(1, 13):
        data = three_pyramids_2d.core(n)
        assert _has_theorem_area(data)
        assert _area_conserved(data)


def test_nicomachus_examples():
    cert = nicomachus_4d_2d(1)
    assert len(cert.targets) == 1
    assert _area(nicomachus_4d_2d, 1, "target_area") == QuadExt(4)

    cert = nicomachus_4d_2d(2)
    assert len(cert.targets) == 4
    assert all(len(region.rects) == 1
               and region.rects[0].w * region.rects[0].h == QuadExt(9)
               for _, region in cert.targets)
    assert _area(nicomachus_4d_2d, 2) == QuadExt(36)
    assert check_certificate(nicomachus_4d_2d.core(2).cert).ok

    cert = nicomachus_4d_2d(4)
    assert len(cert.targets) == 16
    assert _area(nicomachus_4d_2d, 4) == QuadExt(400)
    assert check_certificate(nicomachus_4d_2d.core(4).cert).ok


def test_nicomachus_totals_match_oracle():
    for n in range(1, 9):
        data = nicomachus_4d_2d.core(n)
        assert _has_theorem_area(data)
        assert (lattice_area(data.cert, "source_area")
                == QuadExt(4 * sum_powers_bruteforce(3, n)))


def test_five_pyramids_examples():
    cert = five_pyramids_layers(1)
    layer_targets = [t for t in cert.targets if t[0] == "layer/1"]
    excess_targets = [t for t in cert.targets if t[0] == "excess"]
    assert len(layer_targets) == 1 and len(excess_targets) == 1
    assert _area(five_pyramids_layers, 1) == QuadExt(5)  # 5 = 4 + 1

    cert = five_pyramids_layers(2)
    # Archimedes generalisation at n=2
    assert _area(five_pyramids_layers, 2) == QuadExt(85)
    excess_area = sum((r.w * r.h for t, region in cert.targets if t == "excess"
                       for r in region.rects), QuadExt(0))
    assert excess_area == QuadExt(13)
    assert check_certificate(five_pyramids_layers.core(2).cert).ok

    assert _area(five_pyramids_layers, 4) == QuadExt(1770)  # 5 * S_4(4)
    assert check_certificate(five_pyramids_layers.core(4).cert).ok


def test_five_pyramids_excess_is_corner_of_squares():
    for n in (2, 3, 5):
        slots = excess_corner_layout(n)
        assert len(slots) == n * n
        for k in range(1, n + 1):
            ring = [s for s in slots if s[2] == k]
            assert len(ring) == 2 * k - 1
        total = sum(k * k for _, _, k in slots)
        assert total == odd_weighted_squares(n)


def test_five_pyramids_totals_match_oracle():
    for n in range(1, 7):
        data = five_pyramids_layers.core(n)
        assert _has_theorem_area(data)
        assert _area_conserved(data)


def test_step2_examples():
    cert = step2_reshape(1)
    assert len([t for t in cert.targets if t[0] == "layer/1"]) == 2
    assert _area(step2_reshape, 1) == QuadExt(4)

    cert = step2_reshape(2)
    per_layer = [r for t, region in cert.targets if t == "layer/1"
                 for r in region.rects]
    assert len(per_layer) == 6
    assert all(r.w == QuadExt(3) and r.h == QuadExt(2) for r in per_layer)
    assert _area(step2_reshape, 2) == QuadExt(72)
    assert check_certificate(step2_reshape.core(2).cert).ok

    cert = step2_reshape(3)
    per_layer = [r for t, region in cert.targets if t == "layer/2"
                 for r in region.rects]
    assert len(per_layer) == 12
    assert _area(step2_reshape, 3) == QuadExt(3 * 144)
    assert check_certificate(step2_reshape.core(3).cert).ok


def test_step3_examples():
    x = strip_root()
    cert = step3_scissor(1)
    targets = [r for t, region in cert.targets if t == "layer/1"
               for r in region.rects]
    assert all(r.w * r.h == QuadExt(2) - QuadExt(Fraction(1, 3))
               for r in targets)
    assert all(r.w == QuadExt(2) + x and r.h == QuadExt(1) - x for r in targets)

    cert = step3_scissor(2)
    targets = [r for t, region in cert.targets if t == "layer/1"
               for r in region.rects]
    assert all(r.w * r.h == QuadExt(Fraction(17, 3)) for r in targets)
    assert check_certificate(step3_scissor.core(2).cert).ok


def test_step3_leftovers_are_one_third_per_rectangle():
    x = strip_root()
    third = QuadExt(Fraction(1, 3))
    assert x * QuadExt(1) + x * x == third  # B area + C area
    for n in (1, 2, 3):
        cert = step3_scissor(n)
        pairs = len(cert.leftovers) // 2
        assert pairs == n * n * (n + 1)
        assert _leftover_area(step3_scissor.core(n).cert) == third * pairs
        for region in cert.leftovers:
            [r] = region.rects
            if region.label == "left_b":
                assert r.w * r.h == x
            else:
                assert r.w * r.h == x * x
        leftover_pieces = [p for p in cert.placements
                           if p.destination_layer == LEFTOVER_LAYER]
        assert len(leftover_pieces) == 2 * pairs


def test_step3_target_sides_multiply_to_scissor_factor():
    for n in (1, 2, 4):
        cert = step3_scissor(n)
        expected = QuadExt(Fraction(n * n + n)) - QuadExt(Fraction(1, 3))
        for _, region in cert.targets:
            r = region.rects[0]
            assert r.w * r.h == expected
        # assembled area per layer is rational: the sqrt(21) part cancels
        assert _area(step3_scissor, n, "target_area").b == 0


@pytest.fixture
def in_q_sqrt3(monkeypatch):
    """The kernel in Q(sqrt(3)).  ``_at`` caches the lattice points it makes
    with ``generators.X``, so its cache is cleared on entry and on exit."""
    monkeypatch.setattr(kernel, "RADICAND", 3)
    generators._at.cache_clear()
    yield monkeypatch
    generators._at.cache_clear()


@pytest.mark.parametrize("width,leftover", [
    ((-3, 3), Fraction(1, 2)),  # y = (-1 + sqrt(3))/2: y**2 + y = 1/2
    ((-3, 2), Fraction(1, 12)),  # (-3 + 2*sqrt(3))/6, a control
], ids=["y", "control"])
def test_the_next_factor_comes_from_the_same_cut(in_q_sqrt3, width, leftover):
    """STEP3's cut of width y over Q(sqrt(3)) passes the kernel and leaves
    y + y**2 = 1/2 per rectangle, where x leaves 1/3: each rectangle becomes
    (n+1+y) x (n-y) = (2n**2 + 2n - 1)/2, S_5's factor, as x gives S_4's
    (3n**2 + 3n - 1)/3.  Any width in (0, 1) passes: only the leftover
    pins the root."""
    in_q_sqrt3.setattr(generators, "X", width)
    for n in range(1, 11):
        cert = generators._step3_scissor(n).cert
        assert check_certificate(cert).ok
        rectangles = n * n * (n + 1)
        assert _leftover_area(cert) == leftover * rectangles
        assert lattice_area(cert, "target_area") == (n * n + n - leftover) * rectangles


def test_step4_certificates_and_counts():
    # layered: sum (2k-1)k^2
    assert _area(generators.step4_bijection, 3) == QuadExt(58)
    assert _area(generators.step4_bijection_full, 3) == QuadExt(45)  # 9 * 5
    assert _area(generators.step4_overlap, 3) == QuadExt(144)  # 3^2 * 4^2
    for build in generators.certificate_builders("STEP4_TOP").values():
        assert check_certificate(build.core(3).cert).ok
    assert evaluate_identity("R_BALANCE", {"n": 3}).holds
    assert evaluate_identity("TOP_LAYER_DOUBLE", {"n": 3}).holds

    # 2 * 13 + 2 * 5 = 36 = 2^2 * 3^2
    assert _area(generators.step4_overlap, 2) == QuadExt(36)
    assert evaluate_identity("TOP_LAYER_DOUBLE", {"n": 2}).lhs == QuadExt(26)

    assert _area(generators.step4_overlap, 1) == QuadExt(4)


def test_step4_bijection_is_cell_level():
    for n in (1, 2, 4):
        res = step4_top_layer(n)
        assert len(res.bijection.placements) == odd_weighted_squares(n)
        assert all(len(p.source.rects) == 1
                   and p.source.rects[0].w * p.source.rects[0].h == QuadExt(1)
                   for p in res.bijection.placements)
        assert len(res.bijection_full_scale.placements) == n * n * (2 * n - 1)


def test_step4_bijection_exhaustive_at_upper_bound():
    bijection = generators.step4_bijection.core(12).cert
    assert len(bijection.pieces) == odd_weighted_squares(12)
    assert check_certificate(bijection).ok
    assert check_certificate(generators.step4_bijection_full.core(12).cert).ok


def test_full_theorem_report_examples():
    r = full_theorem_report(1)
    assert r.holds and r.lhs == QuadExt(5)  # 1*2*(5/3)*(3/2)
    r = full_theorem_report(2)
    assert r.holds and r.lhs == QuadExt(85)  # 2*3*(17/3)*(5/2)
    r = full_theorem_report(10)
    assert r.holds and r.lhs == QuadExt(5 * 25333)


def test_interface_failure_names_its_cell(monkeypatch):
    honest = generators._layer_sources
    monkeypatch.setattr(generators, "_layer_sources",
                        lambda cert, layer: honest(cert, layer)[1:])
    with pytest.raises(StageCheckError) as info:
        full_theorem_report(2)
    assert info.value.stage == "interface five->step2 layer/1"
    failure = info.value.report.failure
    assert failure.kind == "uncovered" and failure.layer == "layer/1"
    assert failure.cell is not None


def test_every_stage_is_checked_before_any_link(monkeypatch):
    """A broken link and a broken later stage: the stage is reported, as
    each stage is checked before the first link runs."""
    honest_sources, honest_step3 = generators._layer_sources, generators._step3_scissor

    def step3_without_its_first_target(n):
        data = honest_step3(n)
        return data._replace(cert=data.cert._replace(targets=data.cert.targets[1:]))

    monkeypatch.setattr(generators, "_layer_sources",
                        lambda cert, layer: honest_sources(cert, layer)[1:])
    monkeypatch.setattr(generators, "_step3_scissor", step3_without_its_first_target)
    with pytest.raises(StageCheckError) as info:
        full_theorem_report(2)
    assert info.value.stage == "step3_scissor"
    failure = info.value.report.failure
    assert failure.kind == "outside" and failure.layer == "layer/1"


def test_the_pipeline_holds_only_what_its_links_read():
    """Each stage keeps only its links' rects once checked: at the cap the
    heap peaks below 8 MiB, where holding five stages' data took 10.8 MB."""
    tracemalloc.start()
    try:
        assert full_theorem_report(10).holds
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_identity_stage_failure_names_both_sides(monkeypatch):
    honest = generators.evaluate_identity

    def wrong_at_2(name, params):
        report = honest(name, params)
        if name == "R_BALANCE" and params["n"] == 2:
            return dataclasses.replace(report, rhs=report.rhs + 1, holds=False)
        return report

    monkeypatch.setattr(generators, "evaluate_identity", wrong_at_2)
    with pytest.raises(StageCheckError) as info:
        full_theorem_report(2)
    message = "stage 'identity R_BALANCE' failed: R_BALANCE n=2: 34 = 35 FAILS"
    assert info.value.stage == "identity R_BALANCE"
    assert str(info.value) == message
    assert verify.CRITERIA[8].run(2) == f"pipeline n=2: {message}"


def _shifted(rects, dx=0, dy=0):
    """Lattice rects moved by (dx, dy) in whole units."""
    dx, dy = dx * generators.D, dy * generators.D
    return [((x1[0] + dx, x1[1]), (y1[0] + dy, y1[1]), (x2[0] + dx, x2[1]),
             (y2[0] + dy, y2[1])) for x1, y1, x2, y2 in rects]


def _moved_pieces(data, dx=0, dy=0):
    """The lattice certificate with every transform's shift moved by (dx, dy)."""
    dx, dy = dx * generators.D, dy * generators.D
    pieces = [(piece_id, source_layer, rects,
               (turns, reflect, (sx[0] + dx, sx[1]), (sy[0] + dy, sy[1])), dest)
              for piece_id, source_layer, rects, (turns, reflect, sx, sy), dest
              in data.cert.pieces]
    return data._replace(cert=data.cert._replace(pieces=pieces))


def _sources_moved_right(data):
    """Every source 1,000 units right, and every transform's shift moved back
    by that step's image under the piece's motion: the same placed pieces,
    from sources that are no longer where the previous stage left them."""
    pieces = []
    for piece_id, layer, rects, (turns, reflect, sx, sy), dest in data.cert.pieces:
        vx, vy = -1000 if reflect else 1000, 0
        for _ in range(turns % 4):
            vx, vy = -vy, vx
        pieces.append((piece_id, layer, _shifted(rects, dx=1000),
                       (turns, reflect, (sx[0] - vx * generators.D, sx[1]),
                        (sy[0] - vy * generators.D, sy[1])), dest))
    return data._replace(cert=data.cert._replace(pieces=pieces))


def _targets_moved_up(data):
    """Every target and every dy 1,000 up: a square-of-corners that is no
    longer the overlap certificate's copy B."""
    moved = _moved_pieces(data, dy=1000)
    return moved._replace(cert=moved.cert._replace(targets=[
        (layer, _shifted(rects, dy=1000)) for layer, rects in data.cert.targets]))


#: the text each moved bijection's pipeline failure had at the object pipeline
_MOVED_MESSAGES = {
    "interface excess->step4 bijection": "FAIL uncovered on layer 'excess' at "
    "[0, 1] x [0, 1]: target cell covered by no piece",
    "interface step4 bijection->overlap": "FAIL outside on layer 'dual' at "
    "[0, 1] x [0, 1]: 1 piece(s) outside every target",
}


@pytest.mark.parametrize("move,stage,kind,layer", [
    (_sources_moved_right, "interface excess->step4 bijection", "uncovered",
     "excess"),
    (_targets_moved_up, "interface step4 bijection->overlap", "outside",
     "dual"),
])
def test_a_moved_bijection_breaks_its_pipeline_link(monkeypatch, move, stage,
                                                     kind, layer):
    honest = generators._step4_bijection
    moved = move(honest(3))
    assert check_certificate(moved.cert).ok  # it passes on its own
    assert check_certificate(_walk(certificate_to_json(
        generators.certificate_from_lattice(moved)))).ok  # and as its document
    monkeypatch.setattr(generators, "_step4_bijection",
                        lambda n: move(honest(n)))
    with pytest.raises(StageCheckError) as info:
        full_theorem_report(3)
    assert info.value.stage == stage
    failure = info.value.report.failure
    assert (failure.kind, failure.layer) == (kind, layer)
    assert str(info.value) == f"stage {stage!r} failed: {_MOVED_MESSAGES[stage]}"


@pytest.mark.parametrize("build,stage,layer", [
    ("_step3_scissor", "interface step2->step3 layer/1", "layer/1"),
    ("_step4_overlap", "interface excess->step4", "excess"),
])
def test_moved_sources_break_their_pipeline_link(monkeypatch, build, stage,
                                                  layer):
    """A stage whose sources sit 1,000 units right, with every dx 1,000 less,
    passes on its own, but no longer retiles the previous stage's targets."""
    honest = getattr(generators, build)
    assert check_certificate(_sources_moved_right(honest(2)).cert).ok
    monkeypatch.setattr(generators, build, lambda n: _sources_moved_right(honest(n)))
    with pytest.raises(StageCheckError) as info:
        full_theorem_report(2)
    assert info.value.stage == stage
    failure = info.value.report.failure
    assert (failure.kind, failure.layer) == ("uncovered", layer)
    assert failure.cell is not None


@pytest.mark.parametrize("n", range(1, CONSTRUCTIONS["STEP4_TOP"] + 1))
def test_the_full_scale_bijection_is_ring_n_of_the_layered_one(n):
    """Why the full-scale bijection is linked to no stage: its pieces are
    the layered bijection's ring-n pieces, in order, but for the id prefix."""
    def unprefixed(data, prefix):
        return [(piece_id.removeprefix(prefix), *rest)
                for piece_id, *rest in data.cert.pieces
                if piece_id.startswith(prefix)]

    full = unprefixed(generators._step4_bijection_full(n), "STEP4_TOP/full/")
    ring_n = unprefixed(generators._step4_bijection(n), "STEP4_TOP/layered/")
    assert len(full) == n * n * (2 * n - 1)
    assert full == [piece for piece in ring_n if piece[0].startswith(f"{n}/")]


def test_the_theorem_does_not_build_the_full_scale_bijection(monkeypatch):
    """No link reads the full-scale bijection, so the theorem holds without
    it; criterion 06 checks it instead."""
    def refuse(n):
        raise AssertionError("the full-scale bijection was built")

    monkeypatch.setattr(generators, "_step4_bijection_full", refuse)
    assert full_theorem_report(3).holds


def test_a_broken_full_scale_bijection_fails_criterion_06(monkeypatch):
    honest = generators.step4_bijection_full.core
    monkeypatch.setattr(generators.step4_bijection_full, "core",
                        lambda n: _moved_pieces(honest(n), dy=1000))
    assert verify._certificate_suite(2) == (
        "STEP4_TOP n=1 bijection-full: FAIL uncovered on layer 'dual' at "
        "[0, 1] x [0, 1]: target cell covered by no piece")


#: every certificate builder, the figure's scissor cut, and the pipeline
_N_TAKERS = [*(build for name in CONSTRUCTIONS
               for build in generators.certificate_builders(name).values()),
             step4_top_layer, full_theorem_report, generators.scissor_rectangle]


@pytest.mark.parametrize("value", [True, 2.0, 2.5], ids=repr)
@pytest.mark.parametrize("build", _N_TAKERS)
def test_an_n_that_is_not_an_int_is_refused(build, value):
    with pytest.raises(TypeError,
                       match=f"n must be an int, got {re.escape(repr(value))}"):
        build(value)


def test_the_scissor_cuts_in_range_are_step3_s_cuts():
    """``scissor_rectangle(n)`` is the first cut of STEP3_SCISSOR at n: its
    four pieces, its target and its two leftovers, in order, with their
    labels."""
    for n in range(1, CONSTRUCTIONS["STEP3_SCISSOR"] + 1):
        cut, whole = generators.scissor_rectangle(n), generators._step3_scissor(n)
        assert cut.cert.pieces == whole.cert.pieces[:4]
        assert cut.cert.targets == whole.cert.targets[:1]
        assert cut.cert.leftovers == whole.cert.leftovers[:2]
        assert list(cut.labels) == list(whole.labels[:4])
        assert list(cut.leftover_labels) == list(whole.leftover_labels[:2])


def test_full_theorem_arithmetic_only_beyond_cap():
    r = full_theorem_report(500)
    assert r.holds
    assert r.lhs == QuadExt(5 * sum_powers_bruteforce(4, 500))


def test_unsupported_n_raises():
    with pytest.raises(UnsupportedN):
        gauss_rectangle(0)
    with pytest.raises(UnsupportedN):
        gauss_rectangle(101)
    with pytest.raises(UnsupportedN):
        three_pyramids_2d(51)
    with pytest.raises(UnsupportedN):
        nicomachus_4d_2d(21)
    with pytest.raises(UnsupportedN):
        five_pyramids_layers(11)
    with pytest.raises(UnsupportedN):
        step4_top_layer(13)


def test_piece_ids_are_unique_and_deterministic():
    for make in (lambda: three_pyramids_2d(3), lambda: five_pyramids_layers(2)):
        a, b = make(), make()
        assert a == b
        ids = [p.piece_id for p in a.placements]
        assert len(ids) == len(set(ids))


@pytest.mark.parametrize("make", [
    lambda: gauss_rectangle.core(3),
    lambda: three_pyramids_2d.core(3),
    lambda: nicomachus_4d_2d.core(3),
    lambda: five_pyramids_layers.core(3),
    lambda: step2_reshape.core(3),
    lambda: step3_scissor.core(3),
    lambda: generators._step4_overlap(3),
    lambda: generators._step4_bijection(3),
])
def test_area_conservation_everywhere(make):
    assert _area_conserved(make())
