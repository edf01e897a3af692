"""Lattice cell-set models of stacked hypercube pyramids and their sections.

The d-pyramid of height n stacks (d-1)-cubes of side 1..n along the first
coordinate.  Slicing perpendicular to the stack gives the main sections
(sizes k**(d-1)); slicing along any cube-spanning axis gives the secondary
sections (truncated pyramids).  Both families partition the same cell set,
which is the geometric face of the rows/columns lemma.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, product
from operator import itemgetter
from typing import Callable

from .dissect.kernel import bounded
from .exact import QuadExt
from .figurate import IdentityReport, _naturals, lemma_rows

Cell = tuple[int, ...]

#: Most cells of a built pyramid: P_3(66), 98,021 cells, takes 0.15 s to
#: build and cut into main sections, 0.1 s more for one axis of secondary
#: sections, and 40 MiB of peak RSS for the whole process (2-core x86,
#: Python 3.11).  The criteria and figures use at most P_5(12), 60,710 cells.
MAX_PYRAMID_CELLS = 100_000

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
        raise DimensionOutOfRange(f"dimension must be 2..5, got {bounded(str(d))}")
    _naturals("", 1, n=n)
    if _CELLS[d](n) > MAX_PYRAMID_CELLS:
        raise ValueError(f"too large: P_{d}(n) is built for at most "
                         f"{MAX_PYRAMID_CELLS} cells")


def _levels_cells(d: int, m: int, n: int) -> frozenset[Cell]:
    """Levels m..n of P_d(n): level k is {k} x range(k)**(d-1)."""
    return frozenset(chain.from_iterable(
        product((k,), *[range(k)] * (d - 1)) for k in range(m, n + 1)))


def build_pyramid(d: int, n: int) -> CellSet:
    """P_d(n): level k (1 <= k <= n) is a (d-1)-cube of side k.

    Cube coordinates are 0-based; |P_d(n)| = S_(d-1)(n), which is bounded
    by ``MAX_PYRAMID_CELLS`` before any cell is made.
    """
    _require(d, n)
    return _cell_set(d, _levels_cells(d, 1, n))


def truncated_pyramid(d: int, n: int, m: int) -> CellSet:
    """Levels m..n of P_d(n); reproduces the truncated-lemma rows.

    Only those levels are made, but P_d(n) itself must be within
    ``MAX_PYRAMID_CELLS``, as for ``build_pyramid``.
    """
    _naturals("", None, m=m, n=n)
    if not 1 <= m <= n:
        raise ValueError(f"m must satisfy 1 <= m <= n, "
                         f"got m={bounded(str(m))} n={bounded(str(n))}")
    _require(d, n)
    return _cell_set(d, _levels_cells(d, m, n))


def _levels(p: CellSet) -> int:
    if not p.cells:
        raise NotAPyramid("empty cell set")
    return max(map(itemgetter(0), p.cells))


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


def main_sections(p: CellSet) -> list[CellSet]:
    """Slices at stack coordinate k = 1..n, re-embedded in dimension d-1.

    The k-th slice must contain exactly k**(d-1) cells; anything else
    raises ``NotAPyramid``.
    """
    d = p.dimension
    n = _levels(p)
    by_level = _slices(p, 0)
    if set(by_level) != set(range(1, n + 1)):
        raise NotAPyramid(f"stack levels are {sorted(by_level)}, expected 1..{n}")
    sections = []
    for k in range(1, n + 1):
        slice_cells = frozenset(by_level[k])
        if len(slice_cells) != k ** (d - 1):
            raise NotAPyramid(
                f"level {k} has {len(slice_cells)} cells, expected {k ** (d - 1)}"
            )
        sections.append(_cell_set(d - 1, slice_cells))
    return sections


def secondary_sections(p: CellSet, axis: int) -> list[CellSet]:
    """Profile slices along one cube-spanning axis (axis in 2..d).

    The m-th slice (m = 1..n) collects cells with coordinate axis equal
    to m-1 and drops that coordinate; it is a truncated pyramid with
    sum_{k=m..n} k**(d-2) cells.  One pass over p puts every cell into
    its slice; a cell whose coordinate axis is outside 0..n-1 is in none.
    """
    d = p.dimension
    if type(axis) is not int or not 2 <= axis <= d:
        raise AxisOutOfRange(f"axis must be 2..{d}, got {bounded(str(axis))}")
    n = _levels(p)
    by_coordinate = _slices(p, axis - 1)
    return [_cell_set(d - 1, frozenset(by_coordinate.get(m, ())))
            for m in range(n)]


def sections_agree(d: int, n: int) -> IdentityReport:
    """Check that both section families partition P_d(n).

    Confirms that main and secondary section sizes both total |P_d(n)|,
    that the secondary sizes are independent of the chosen axis, and that
    they equal the truncated sums sum_{k=m..n} k**(d-2); this is the
    geometric form of the rows/columns lemma with p = d-2.
    """
    pyramid = build_pyramid(d, n)
    main_total = sum(len(s) for s in main_sections(pyramid))
    rows = lemma_rows(d - 2, 1, n)
    holds = main_total == len(pyramid)
    secondary_total = 0
    for axis in range(2, d + 1):
        sizes = [len(s) for s in secondary_sections(pyramid, axis)]
        if axis == 2:
            secondary_total = sum(sizes)
        holds = holds and sizes == rows
    holds = holds and secondary_total == len(pyramid)
    return IdentityReport(
        identity_name="ROWS_COLS",
        parameters={"p": d - 2, "n": n, "d": d},
        lhs=QuadExt(main_total),
        rhs=QuadExt(secondary_total),
        holds=holds,
    )
