"""Pyramid cell sets and their main/secondary section partitions."""

from __future__ import annotations

import hashlib
import re
import tracemalloc
from collections import Counter
from itertools import chain
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powersums import pyramid
from powersums.cli import main
from powersums.exact import QuadExt
from powersums.figurate import (lemma_rows, sum_powers_bruteforce,
                                 truncated_power_sum)
from powersums.pyramid import (
    MAX_PYRAMID_CELLS,
    AxisOutOfRange,
    CellSet,
    DimensionOutOfRange,
    NotAPyramid,
    build_pyramid,
    main_sections,
    secondary_sections,
    section_counts,
    sections_agree,
    truncated_pyramid,
)


def test_build_pyramid_sizes():
    assert len(build_pyramid(3, 2)) == 5  # 1 + 4
    assert len(build_pyramid(5, 3)) == 98  # 1 + 16 + 81
    p = build_pyramid(2, 1)
    assert p.cells == frozenset({(1, 0)})
    for d in (2, 3, 4, 5):
        for n in (1, 3, 6):
            assert len(build_pyramid(d, n)) == sum_powers_bruteforce(d - 1, n)


def test_build_pyramid_rejects_bad_dimension():
    with pytest.raises(DimensionOutOfRange):
        build_pyramid(1, 3)
    with pytest.raises(DimensionOutOfRange):
        build_pyramid(6, 3)
    for d in (True, 3.0):
        with pytest.raises(DimensionOutOfRange):
            build_pyramid(d, 2)
    with pytest.raises(ValueError):
        build_pyramid(3, 0)


@pytest.mark.parametrize("value", [True, 2.0, 2.5, "x"], ids=repr)
def test_values_that_are_not_ints_are_refused(value):
    with pytest.raises(TypeError, match="n must be an int"):
        build_pyramid(3, value)
    with pytest.raises(TypeError, match="n must be an int"):
        sections_agree(3, value)
    with pytest.raises(TypeError, match="n must be an int"):
        truncated_pyramid(3, value, 1)
    with pytest.raises(TypeError, match="m must be an int"):
        truncated_pyramid(3, 3, value)


def test_main_section_sizes():
    assert [len(s) for s in main_sections(build_pyramid(3, 4))] == [1, 4, 9, 16]
    assert [len(s) for s in main_sections(build_pyramid(4, 3))] == [1, 8, 27]
    assert [len(s) for s in main_sections(build_pyramid(2, 3))] == [1, 2, 3]


def test_secondary_section_sizes():
    p3 = build_pyramid(3, 4)
    for axis in (2, 3):
        assert [len(s) for s in secondary_sections(p3, axis)] == [10, 9, 7, 4]
    p4 = build_pyramid(4, 3)
    for axis in (2, 3, 4):
        assert [len(s) for s in secondary_sections(p4, axis)] == [14, 13, 9]
    assert [len(s) for s in secondary_sections(build_pyramid(2, 2), 2)] == [2, 1]


def test_axis_out_of_range():
    p = build_pyramid(3, 2)
    with pytest.raises(AxisOutOfRange):
        secondary_sections(p, 1)
    with pytest.raises(AxisOutOfRange):
        secondary_sections(p, 4)
    for axis in (True, 2.0):
        with pytest.raises(AxisOutOfRange):
            secondary_sections(p, axis)


def test_main_sections_reject_non_pyramid():
    p = build_pyramid(3, 2)
    broken = CellSet(3, p.cells | {(2, 5, 5)})
    with pytest.raises(NotAPyramid):
        main_sections(broken)
    missing = CellSet(3, frozenset(c for c in p.cells if c != (2, 1, 1)))
    with pytest.raises(NotAPyramid):
        main_sections(missing)


def _reassemble_from_main(sections):
    cells = set()
    for k, section in enumerate(sections, start=1):
        for cell in section.cells:
            cells.add((k, *cell))
    return cells


def _reassemble_from_secondary(sections, axis):
    idx = axis - 1
    cells = set()
    for m, section in enumerate(sections, start=1):
        for cell in section.cells:
            cells.add(cell[:idx] + (m - 1,) + cell[idx:])
    return cells


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_sections_partition_cell_for_cell(d):
    for n in range(1, 7 if d == 5 else 9):
        p = build_pyramid(d, n)
        mains = main_sections(p)
        assert sum(len(s) for s in mains) == len(p)
        assert _reassemble_from_main(mains) == set(p.cells)
        for axis in range(2, d + 1):
            secs = secondary_sections(p, axis)
            assert sum(len(s) for s in secs) == len(p)
            assert _reassemble_from_secondary(secs, axis) == set(p.cells)


def test_sections_agree_reports():
    r = sections_agree(3, 4)
    assert r.holds and r.lhs == r.rhs
    assert r.lhs == 30
    r = sections_agree(4, 3)
    assert r.holds and r.lhs == 36
    r = sections_agree(5, 2)
    assert r.holds and r.lhs == 17  # 1 + 16


def test_secondary_section_sizes_are_the_lemma_rows():
    # the row comprehension sections_agree had before it read lemma_rows
    for d in (3, 4, 5):
        for n in range(1, 13):
            rows = [sum(k ** (d - 2) for k in range(m, n + 1))
                    for m in range(1, n + 1)]
            assert lemma_rows(d - 2, 1, n) == rows
            assert sections_agree(d, n).holds


def test_truncated_pyramid_reproduces_lemma_rows():
    for d in (3, 4):
        for n in (4, 6):
            for m in range(1, n + 1):
                t = truncated_pyramid(d, n, m)
                assert len(t) == truncated_power_sum(d - 1, m, n)
                sizes = [len(s) for s in secondary_sections(t, 2) if len(s)]
                expected = ([truncated_power_sum(d - 2, m, n)] * m
                            + [truncated_power_sum(d - 2, j, n)
                               for j in range(m + 1, n + 1)])
                assert sizes == expected


# -- one pass per family, against the per-slice filter ---------------------------


def reference_main_sections(p):
    """Main sections by one filter over p per level."""
    if not p.cells:
        raise NotAPyramid("empty cell set")
    d, n = p.dimension, max(c[0] for c in p.cells)
    levels = sorted({c[0] for c in p.cells})
    if levels != list(range(1, n + 1)):
        raise NotAPyramid(f"stack levels are {levels}, expected 1..{n}")
    sections = []
    for k in range(1, n + 1):
        cells = frozenset(c[1:] for c in p.cells if c[0] == k)
        if len(cells) != k ** (d - 1):
            raise NotAPyramid(
                f"level {k} has {len(cells)} cells, expected {k ** (d - 1)}")
        sections.append(CellSet(d - 1, cells))
    return sections


def reference_secondary_sections(p, axis):
    """Secondary sections by one filter over p per slice."""
    if not p.cells:
        raise NotAPyramid("empty cell set")
    idx, n = axis - 1, max(c[0] for c in p.cells)
    return [CellSet(p.dimension - 1,
                    frozenset(c[:idx] + c[idx + 1:] for c in p.cells
                              if c[idx] == m - 1))
            for m in range(1, n + 1)]


def _outcome(sections, *args):
    try:
        return sections(*args)
    except NotAPyramid as exc:
        return f"NotAPyramid: {exc}"


@st.composite
def cell_sets(draw):
    d = draw(st.integers(2, 5))
    n = draw(st.integers(1, 5 if d == 5 else 7))
    kind = draw(st.sampled_from(["built", "truncated", "perturbed", "random"]))
    if kind == "built":
        return build_pyramid(d, n)
    if kind == "truncated":
        return truncated_pyramid(d, n, draw(st.integers(1, n)))
    # a coordinate below 0 or at n and above is off every slice of its axis
    cells = st.lists(st.tuples(*[st.integers(-2, n + 2)] * d), max_size=12)
    extra = set(draw(cells))
    if kind == "random":
        return CellSet(d, frozenset(extra))
    built = build_pyramid(d, n).sorted_cells()
    dropped = set(draw(st.lists(st.sampled_from(built), max_size=3)))
    return CellSet(d, frozenset(set(built) - dropped | extra))


@given(cell_sets())
@settings(max_examples=200, deadline=None)
def test_sections_match_the_per_slice_filter(p):
    assert _outcome(main_sections, p) == _outcome(reference_main_sections, p)
    for axis in range(2, p.dimension + 1):
        assert (_outcome(secondary_sections, p, axis)
                == _outcome(reference_secondary_sections, p, axis))


def test_main_sections_name_what_is_not_a_pyramid():
    p = build_pyramid(3, 3)
    cases = {
        frozenset(): "empty cell set",
        p.cells - {c for c in p.cells if c[0] == 2}:
            "stack levels are [1, 3], expected 1..3",
        p.cells | {(2, 5, 5)}: "level 2 has 5 cells, expected 4",
        p.cells - {(3, 1, 1)}: "level 3 has 8 cells, expected 9",
    }
    for cells, message in cases.items():
        with pytest.raises(NotAPyramid) as exc:
            main_sections(CellSet(3, cells))
        assert str(exc.value) == message


def test_secondary_sections_drop_cells_off_every_slice():
    p = build_pyramid(4, 3)
    for axis in (2, 3, 4):
        strays = set()
        for off in (-1, 3, 10**40):  # below 0 and at or past n = 3
            cell = [2, 0, 0, 0]
            cell[axis - 1] = off
            strays.add(tuple(cell))
        with_strays = CellSet(4, p.cells | strays)
        assert secondary_sections(with_strays, axis) == secondary_sections(p, axis)


class CountingCells(frozenset):
    """A cell set that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_sections_pass_over_the_cells_a_fixed_number_of_times(d):
    passes = {"main": set(), "secondary": set()}
    for n in range(1, 13):
        cells = CountingCells(build_pyramid(d, n).cells)
        p = CellSet(d, cells)
        before = cells.iterations
        main_sections(p)
        passes["main"].add(cells.iterations - before)
        for axis in range(2, d + 1):
            before = cells.iterations
            secondary_sections(p, axis)
            passes["secondary"].add(cells.iterations - before)
    assert [len(counts) for counts in passes.values()] == [1, 1], passes


def test_a_supplied_cell_of_the_wrong_length_is_refused():
    with pytest.raises(ValueError,
                       match=re.escape("cell (1, 0) has dimension 2, expected 3")):
        CellSet(3, frozenset({(1, 0, 0), (1, 0)}))


def test_cell_sets_made_here_are_not_walked_again(monkeypatch):
    # build_pyramid, truncated_pyramid and the sections make cells of the
    # right length by construction; only a supplied CellSet is checked
    def walked(self):
        raise AssertionError("a cell set made here was checked again")

    monkeypatch.setattr(CellSet, "__post_init__", walked)
    assert sections_agree(4, 3).holds
    assert len(truncated_pyramid(5, 4, 2)) == 16 + 81 + 256
    with pytest.raises(AssertionError, match="checked again"):
        CellSet(2, frozenset({(1, 0)}))


def test_truncated_pyramid_makes_only_its_levels(monkeypatch):
    expected = {(d, n, m): frozenset(c for c in build_pyramid(d, n).cells
                                     if c[0] >= m)
                for d in (2, 3, 4, 5) for n in (1, 4) for m in range(1, n + 1)}

    def whole_pyramid(d, n):
        raise AssertionError("truncated_pyramid built the whole of P_d(n)")

    monkeypatch.setattr(pyramid, "build_pyramid", whole_pyramid)
    for (d, n, m), cells in expected.items():
        assert truncated_pyramid(d, n, m) == CellSet(d, cells)


def test_truncated_pyramid_is_refused_as_the_whole_pyramid_is():
    # level 14 of P_5(14) alone has 14**4 = 38,416 cells, P_5(14) 127,687
    too_large = f"too large: P_5(n) is built for at most {MAX_PYRAMID_CELLS} cells"
    with pytest.raises(ValueError, match=re.escape(too_large)):
        truncated_pyramid(5, 14, 14)
    with pytest.raises(DimensionOutOfRange):
        truncated_pyramid(6, 3, 2)
    with pytest.raises(ValueError, match="m must satisfy"):
        truncated_pyramid(3, 3, 4)


def test_sections_cli_bytes_are_pinned(capsys):
    digest = hashlib.sha256()
    for d in (2, 3, 4, 5):
        for n in (1, 2, 3, 4):
            for axis in (None, *range(2, d + 1)):
                for emit in ("cells", "sizes"):
                    argv = ["sections", "--dim", str(d), "--n", str(n),
                            "--emit", emit]
                    if axis is not None:
                        argv += ["--secondary", str(axis)]
                    assert main(argv) == 0
                    digest.update(repr(argv).encode())
                    digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == (
        "9c1ae3da71be8f1f6d0fdbabb2f56305da43979ba04bd210fe94fbc85eca1aa9")


# -- sections_agree counts the slices instead of making them ---------------------


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_the_counts_are_the_slices_sizes(d):
    for n in range(1, 7 if d == 5 else 9):
        p = build_pyramid(d, n)
        assert section_counts(d, n) == [
            [len(s) for s in main_sections(p)],
            *([len(s) for s in secondary_sections(p, axis)]
              for axis in range(2, d + 1))]


#: d -> |P_d(n)| for n = 1..12, the lhs and rhs of sections_agree(d, n) as
#: recorded when it still measured every slice's CellSet
RECORDED_TOTALS = {
    2: [1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 66, 78],
    3: [1, 5, 14, 30, 55, 91, 140, 204, 285, 385, 506, 650],
    4: [1, 9, 36, 100, 225, 441, 784, 1296, 2025, 3025, 4356, 6084],
    5: [1, 17, 98, 354, 979, 2275, 4676, 8772, 15333, 25333, 39974, 60710],
}

#: d -> the largest n with P_d(n) under MAX_PYRAMID_CELLS
_LARGEST = {2: 446, 3: 66, 4: 24, 5: 13}


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_sections_agree_reports_are_unchanged(d):
    for n, total in enumerate(RECORDED_TOTALS[d], start=1):
        r = sections_agree(d, n)
        assert (r.identity_name, r.holds, r.lhs, r.rhs, r.parameters) == (
            "ROWS_COLS", True, QuadExt(total), QuadExt(total),
            {"p": d - 2, "n": n, "d": d})


def test_sections_agree_makes_no_slice(monkeypatch, capsys):
    built = []
    build = pyramid.build_pyramid

    def counted(d, n):
        built.append((d, n))
        return build(d, n)

    def sliced(*_args):
        raise AssertionError("a slice was made")

    monkeypatch.setattr(pyramid, "build_pyramid", counted)
    for name in ("main_sections", "secondary_sections", "_slices", "_cell_set"):
        monkeypatch.setattr(pyramid, name, sliced)
    assert sections_agree(5, 4).holds
    for axis in ([], ["--secondary", "3"]):
        assert main(["sections", "--dim", "5", "--n", "4", "--emit", "sizes",
                     *axis]) == 0
    assert capsys.readouterr().out == "sizes: 1 16 81 256\nsizes: 100 99 91 64\n"
    assert built == []


_level_stream = pyramid._level_stream


def _dropped_at_n(d, m, n):
    last = (n, *[n - 1] * (d - 1))
    return (cell for cell in _level_stream(d, m, n) if cell != last)


def _stray_at_n_plus_1(d, m, n):
    return chain(_level_stream(d, m, n), [(n + 1, *[0] * (d - 1))])


@pytest.mark.parametrize("plant,d,n,message", [
    (_dropped_at_n, 2, 1, "empty cell set"),
    (_dropped_at_n, 2, 3, "level 3 has 2 cells, expected 3"),
    (_dropped_at_n, 3, 4, "level 4 has 15 cells, expected 16"),
    (_dropped_at_n, 5, 4, "level 4 has 255 cells, expected 256"),
    (_stray_at_n_plus_1, 2, 1, "level 2 has 1 cells, expected 2"),
    (_stray_at_n_plus_1, 2, 3, "level 4 has 1 cells, expected 4"),
    (_stray_at_n_plus_1, 3, 4, "level 5 has 1 cells, expected 25"),
    (_stray_at_n_plus_1, 5, 4, "level 5 has 1 cells, expected 625"),
])
def test_sections_agree_refuses_what_main_sections_refused(
        monkeypatch, plant, d, n, message):
    # the texts main_sections raised when sections_agree still called it
    monkeypatch.setattr(pyramid, "_level_stream", plant)
    with pytest.raises(NotAPyramid) as exc:
        sections_agree(d, n)
    assert str(exc.value) == message
    with pytest.raises(NotAPyramid) as exc:
        main_sections(build_pyramid(d, n))
    assert str(exc.value) == message


def _moved_past_n(d, m, n):
    # level n keeps its n**(d-1) cells, but one of them leaves the slices
    return chain(_dropped_at_n(d, m, n), [(n, n + 5, *[n - 1] * (d - 2))])


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_a_cell_past_the_secondary_slices_fails_sections_agree(monkeypatch, d):
    monkeypatch.setattr(pyramid, "_level_stream", _moved_past_n)
    # at the cap the moved coordinate, n + 5, is past 255 for d = 2
    top = _LARGEST[d]
    for n, total in [*enumerate(RECORDED_TOTALS[d][:4], start=1),
                     (top, pyramid._CELLS[d](top))]:
        r = sections_agree(d, n)
        assert (r.holds, r.lhs, r.rhs) == (False, QuadExt(total), QuadExt(total - 1))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_sections_agree_passes_over_the_cells_once_per_coordinate(monkeypatch, d):
    # one stream of the levels writes every coordinate into the column,
    # which each count then reads, n taken from the main counts
    made = []

    def counting(d, m, n):
        made.append(0)
        for cell in _level_stream(d, m, n):
            made[-1] += 1
            yield cell

    monkeypatch.setattr(pyramid, "_level_stream", counting)
    for n in range(1, 13):
        assert sections_agree(d, n).holds
    assert made == RECORDED_TOTALS[d]


@pytest.mark.parametrize("cells", [[(1, 0), (1, 0)], {(1, 0)}, ((1, 0),), "ab"],
                         ids=lambda c: type(c).__name__)
def test_cells_that_are_not_a_frozenset_are_refused(cells):
    # a list with a repeated cell had len 2 and one secondary section of 2
    with pytest.raises(TypeError, match=re.escape(
            f"cells must be a frozenset, got {type(cells).__name__}")):
        CellSet(2, cells)
    # refused before the dimension walk, which would name the cell instead
    with pytest.raises(TypeError, match="cells must be a frozenset"):
        CellSet(3, cells)
    assert len(CellSet(2, CountingCells({(1, 0)}))) == 1


def _counted_report(d, n):
    """sections_agree(d, n)'s report as counted when it made one
    Counter(map(itemgetter(i), cells)) pass per coordinate."""
    cells = pyramid.build_pyramid(d, n).cells
    counts = [Counter(map(itemgetter(i), cells)) for i in range(d)]
    main = [counts[0][k] for k in range(1, n + 1)]
    secondaries = [[c[m] for m in range(n)] for c in counts[1:]]
    holds = (sum(main) == sum(secondaries[0]) == len(cells)
             and secondaries == [lemma_rows(d - 2, 1, n)] * (d - 1))
    return counts, (holds, QuadExt(sum(main)), QuadExt(sum(secondaries[0])))


# n = 255 and 256 lie on each side of the column's one-byte coordinates
@pytest.mark.parametrize("d,n", [(2, 255), (2, 256), *_LARGEST.items()])
def test_the_column_holds_every_coordinate_up_to_the_cap(d, n):
    if n == _LARGEST[d]:
        assert pyramid._CELLS[d](n) <= MAX_PYRAMID_CELLS < pyramid._CELLS[d](n + 1)
    counts, report = _counted_report(d, n)
    column = pyramid._column(d, n)
    assert [Counter(column[i::d]) for i in range(d)] == counts
    r = sections_agree(d, n)
    assert (r.holds, r.lhs, r.rhs) == report == (True, QuadExt(len(column) // d),
                                                 QuadExt(len(column) // d))


def test_the_column_costs_about_one_byte_per_coordinate():
    # a zip(*cells) transpose of P_5(13) peaks at 14.4 bytes per coordinate;
    # the stream keeps no cell, so the peak is the column's
    tracemalloc.start()
    try:
        assert sections_agree(5, 13).holds
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    coordinates = 5 * pyramid._CELLS[5](13)
    assert coordinates == 446_355
    # one byte each, plus the quarter bytes() may over-allocate as it grows
    assert peak <= 1.3 * coordinates, peak / coordinates
