"""Lattice cell-set models of stacked hypercube pyramids and their sections.

The d-pyramid of height n stacks (d-1)-cubes of side 1..n along coordinate
0.  Main sections (k**(d-1) cells) cut across the stack, secondary sections
(truncated pyramids) along a cube-spanning axis; both partition the pyramid,
the geometric rows/columns lemma.  One stream of the levels defines the
cells: ``build_pyramid`` and ``truncated_pyramid`` gather it into a
``CellSet``, and ``section_counts`` writes it into one flat column of
coordinates, from which every family's sizes are counted with no cell set
and no cell hashed.  ``sections_agree`` and ``powersums sections
--emit sizes`` read those counts; criterion 05 (``verify``) checks each
partition cell for cell.
"""

from __future__ import annotations

from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain, product
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from .exact import QuadExt
from .figurate import IdentityReport, _naturals, lemma_rows
from .kernel import bounded

Cell = tuple[int, ...]

#: Most cells of a pyramid: P_3(66), 98,021 cells, builds in 16 ms; its
#: main sections take 27 ms more, one axis of secondary sections 34 ms, and
#: ``sections_agree``, which builds no cell set, 16 ms at a 395 KiB
#: ``tracemalloc`` peak (2-core x86, Python 3.11.7, best of 15).  The
#: criteria and figures use at most P_5(12), 60,710 cells.
MAX_PYRAMID_CELLS = 100_000

#: A strip of fewer values than this is counted one value at a time, each a
#: C-level ``bytes.count`` of about 0.4 ns per byte, where one ``Counter``
#: pass costs about 30 ns per byte.  Each count also pays a fixed cost, so
#: ``section_counts`` breaks even near 52 values on P_2(n)'s short strips,
#: and past 67 on P_3(n)'s (2-core x86, Python 3.11.7).
_PER_VALUE_LIMIT = 48

#: d -> |P_d(n)| = S_(d-1)(n) in closed form, for each supported dimension
_CELLS = {
    2: lambda n: n * (n + 1) // 2,
    3: lambda n: n * (n + 1) * (2 * n + 1) // 6,
    4: lambda n: (n * (n + 1) // 2) ** 2,
    5: lambda n: n * (n + 1) * (2 * n + 1) * (3 * n * n + 3 * n - 1) // 30,
}


class DimensionOutOfRange(ValueError):
    pass


class AxisOutOfRange(ValueError):
    pass


class NotAPyramid(ValueError):
    pass


@dataclass(frozen=True)
class CellSet:
    """Finite set of integer lattice cells sharing one dimension."""

    dimension: int
    cells: frozenset[Cell]

    def __post_init__(self) -> None:
        if not isinstance(self.cells, frozenset):
            raise TypeError(
                f"cells must be a frozenset, got {type(self.cells).__name__}")
        for cell in self.cells:
            if len(cell) != self.dimension:
                raise ValueError(
                    f"cell {cell} has dimension {len(cell)}, expected {self.dimension}"
                )

    def __len__(self) -> int:
        return len(self.cells)

    def sorted_cells(self) -> list[Cell]:
        return sorted(self.cells)


def _cell_set(dimension: int, cells: frozenset[Cell]) -> CellSet:
    """A ``CellSet`` of cells made here, each of length ``dimension`` by
    construction, so not walked again as ``__post_init__`` would."""
    made = object.__new__(CellSet)
    object.__setattr__(made, "dimension", dimension)
    object.__setattr__(made, "cells", cells)
    return made


def _require(d: int, n: int) -> None:
    """Refuse P_d(n) unless d is an int in 2..5, n an int >= 1, and it has
    at most ``MAX_PYRAMID_CELLS`` cells."""
    if type(d) is not int or d not in _CELLS:
        raise DimensionOutOfRange(f"dimension must be 2..5, got {bounded(d)}")
    _naturals("", 1, n=n)
    if _CELLS[d](n) > MAX_PYRAMID_CELLS:
        raise ValueError(f"too large: P_{d}(n) is built for at most "
                         f"{MAX_PYRAMID_CELLS} cells")


def _level_stream(d: int, m: int, n: int) -> Iterator[Cell]:
    """Levels m..n of P_d(n), level after level: level k is
    {k} x range(k)**(d-1).  Every cell of a pyramid is made here."""
    return chain.from_iterable(
        product((k,), *[range(k)] * (d - 1)) for k in range(m, n + 1))


def build_pyramid(d: int, n: int) -> CellSet:
    """P_d(n): level k (1 <= k <= n) is a (d-1)-cube of side k.

    Cube coordinates are 0-based; |P_d(n)| = S_(d-1)(n), which is bounded
    by ``MAX_PYRAMID_CELLS`` before any cell is made.
    """
    _require(d, n)
    return _cell_set(d, frozenset(_level_stream(d, 1, n)))


def truncated_pyramid(d: int, n: int, m: int) -> CellSet:
    """Levels m..n of P_d(n); reproduces the truncated-lemma rows.

    Only those levels are made, but P_d(n) itself must be within
    ``MAX_PYRAMID_CELLS``, as for ``build_pyramid``.
    """
    _naturals("", None, m=m, n=n)
    if not 1 <= m <= n:
        raise ValueError(f"m must satisfy 1 <= m <= n, "
                         f"got m={bounded(m)} n={bounded(n)}")
    _require(d, n)
    return _cell_set(d, frozenset(_level_stream(d, m, n)))


def _levels(levels: Iterable[int]) -> int:
    top = max(levels, default=None)
    if top is None:
        raise NotAPyramid("empty cell set")
    return top


def _dropping(d: int, idx: int) -> Callable[[Cell], Cell]:
    """Cell -> the same cell without coordinate idx."""
    if d > 2:
        return itemgetter(*(i for i in range(d) if i != idx))
    # itemgetter of one index returns the coordinate itself, not a 1-tuple
    return lambda c: c[:idx] + c[idx + 1:]


def _slices(p: CellSet, idx: int) -> dict[int, list[Cell]]:
    """The cells of p by their coordinate idx, each without that
    coordinate, in one pass over p."""
    drop = _dropping(p.dimension, idx)
    slices: defaultdict[int, list[Cell]] = defaultdict(list)
    for cell in p.cells:
        slices[cell[idx]].append(drop(cell))
    return slices


def _level_sizes(cube: int, counts: dict[int, int]) -> list[int]:
    """counts[1..n]; ``NotAPyramid`` unless levels are 1..n, k**cube cells at k."""
    n = _levels(counts)
    if counts.keys() != set(range(1, n + 1)):
        raise NotAPyramid(f"stack levels are {sorted(counts)}, expected 1..{n}")
    for k in range(1, n + 1):
        if counts[k] != k ** cube:
            raise NotAPyramid(f"level {k} has {counts[k]} cells, expected {k ** cube}")
    return [counts[k] for k in range(1, n + 1)]


def _axis_index(d: int, axis: int) -> int:
    """The coordinate that the secondary sections along axis 2..d fix."""
    if type(axis) is not int or not 2 <= axis <= d:
        raise AxisOutOfRange(f"axis must be 2..{d}, got {bounded(axis)}")
    return axis - 1


def _column(d: int, n: int) -> bytes | array:
    """Every coordinate of P_d(n), cell after cell as ``_level_stream``
    makes them, in one flat column: one byte each while n < 256, two above
    (P_d(n)'s coordinates are 0..n).  No cell is kept once it is written."""
    _require(d, n)
    flat = chain.from_iterable(_level_stream(d, 1, n))
    return bytes(flat) if n < 256 else array("H", flat)


def _family_counts(column: bytes | array, d: int, idx: int, n: int) -> dict[int, int]:
    """value -> how many cells of ``column`` take it at coordinate idx, for
    the values present.

    The strip column[idx::d] is a copy for a ``bytes`` column, one C loop
    that ``Counter`` then reads faster than a view, and a view for an
    ``array``, whose strided slice copies item by item.  While the values
    0..n are fewer than ``_PER_VALUE_LIMIT``, each is counted by one
    ``bytes.count``.  Past that, one ``Counter`` pass counts the strip.  It
    does so too when the per-value counts fall short of the strip: a value
    lies outside 0..n, and ``_level_sizes`` must see it to refuse it."""
    strip = column[idx::d] if type(column) is bytes else memoryview(column)[idx::d]
    if n < _PER_VALUE_LIMIT:
        counts = {v: c for v in range(n + 1) if (c := strip.count(v))}
        if sum(counts.values()) == len(strip):
            return counts
    return Counter(strip)


def section_counts(d: int, n: int) -> list[list[int]]:
    """The sizes of P_d(n)'s main sections, refused as ``main_sections``
    refuses them, then of its secondary sections along each axis 2..d.

    Family i is counted by ``_family_counts`` off the one ``_column``:
    dropping coordinate i is one-to-one on the cells that share a value of
    it, so the count at each value is that slice's size.  The secondary
    counts are read at 0..n-1, n from the main counts, which
    ``_level_sizes`` has refused unless they are levels 1..n.
    """
    column = _column(d, n)
    main = _level_sizes(d - 1, _family_counts(column, d, 0, n))
    families = [main]
    for idx in range(1, d):
        counts = _family_counts(column, d, idx, n)
        families.append([counts.get(m, 0) for m in range(len(main))])
    return families


def main_sections(p: CellSet) -> list[CellSet]:
    """Slices at stack coordinate k = 1..n, re-embedded in dimension d-1.

    The k-th slice must contain exactly k**(d-1) cells; anything else
    raises ``NotAPyramid``.
    """
    by_level = _slices(p, 0)
    _level_sizes(p.dimension - 1, {k: len(c) for k, c in by_level.items()})
    return [_cell_set(p.dimension - 1, frozenset(by_level[k]))
            for k in sorted(by_level)]


def secondary_sections(p: CellSet, axis: int) -> list[CellSet]:
    """Profile slices along one cube-spanning axis (axis in 2..d).

    The m-th slice (m = 1..n) collects cells with coordinate axis equal
    to m-1 and drops that coordinate; it is a truncated pyramid with
    sum_{k=m..n} k**(d-2) cells.  One pass over p puts every cell into
    its slice; a cell whose coordinate axis is outside 0..n-1 is in none.
    """
    idx = _axis_index(p.dimension, axis)
    n = _levels(map(itemgetter(0), p.cells))
    by_coordinate = _slices(p, idx)
    return [_cell_set(p.dimension - 1, frozenset(by_coordinate.get(m, ())))
            for m in range(n)]


def sections_agree(d: int, n: int) -> IdentityReport:
    """Check that P_d(n)'s main and secondary section sizes, as
    ``section_counts`` counts them from one stream of its levels, have one
    total, and that the secondary sizes are sum_{k=m..n} k**(d-2) on every
    axis, so that the total is S_(d-1)(n): the rows/columns lemma with
    p = d-2.  No ``CellSet`` is made; criterion 05 checks each family cell
    for cell."""
    main, *secondaries = section_counts(d, n)
    main_total = sum(main)
    secondary_total = sum(secondaries[0])
    holds = (main_total == secondary_total
             and secondaries == [lemma_rows(d - 2, 1, n)] * (d - 1))
    return IdentityReport(
        identity_name="ROWS_COLS",
        parameters={"p": d - 2, "n": n, "d": d},
        lhs=QuadExt(main_total),
        rhs=QuadExt(secondary_total),
        holds=holds,
    )
