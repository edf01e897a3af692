"""Lattice cell-set models of stacked hypercube pyramids and their sections.

The d-pyramid of height n stacks (d-1)-cubes of side 1..n along the first
coordinate.  Slicing perpendicular to the stack gives the main sections
(sizes k**(d-1)); slicing along any cube-spanning axis gives the secondary
sections (truncated pyramids).  Both families partition the same cell set,
which is the geometric face of the rows/columns lemma.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .exact import QuadExt
from .figurate import IdentityReport

Cell = tuple[int, ...]

#: Most cells of a built pyramid: P_3(66), 98,021 cells, takes 0.2 s to
#: build and cut into main sections, 1.3 s more for one axis of secondary
#: sections, and 48 MiB of peak RSS for the whole process (2-core x86,
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


def build_pyramid(d: int, n: int) -> CellSet:
    """P_d(n): level k (1 <= k <= n) is a (d-1)-cube of side k.

    Cube coordinates are 0-based; |P_d(n)| = S_(d-1)(n), which is bounded
    by ``MAX_PYRAMID_CELLS`` before any cell is made.
    """
    if d not in _CELLS:
        raise DimensionOutOfRange(f"dimension must be 2..5, got {d}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if _CELLS[d](n) > MAX_PYRAMID_CELLS:
        raise ValueError(f"too large: P_{d}(n) is built for at most "
                         f"{MAX_PYRAMID_CELLS} cells")
    cells = frozenset(
        (k, *rest) for k in range(1, n + 1) for rest in product(range(k), repeat=d - 1)
    )
    return CellSet(d, cells)


def truncated_pyramid(d: int, n: int, m: int) -> CellSet:
    """Levels m..n of P_d(n); reproduces the truncated-lemma rows."""
    if not 1 <= m <= n:
        raise ValueError(f"m must satisfy 1 <= m <= n, got m={m} n={n}")
    full = build_pyramid(d, n)
    return CellSet(d, frozenset(c for c in full.cells if c[0] >= m))


def _levels(p: CellSet) -> int:
    if not p.cells:
        raise NotAPyramid("empty cell set")
    return max(c[0] for c in p.cells)


def main_sections(p: CellSet) -> list[CellSet]:
    """Slices at stack coordinate k = 1..n, re-embedded in dimension d-1.

    The k-th slice must contain exactly k**(d-1) cells; anything else
    raises ``NotAPyramid``.
    """
    d = p.dimension
    n = _levels(p)
    by_level: dict[int, set[Cell]] = {}
    for cell in p.cells:
        by_level.setdefault(cell[0], set()).add(cell[1:])
    if set(by_level) != set(range(1, n + 1)):
        raise NotAPyramid(f"stack levels are {sorted(by_level)}, expected 1..{n}")
    sections = []
    for k in range(1, n + 1):
        slice_cells = by_level[k]
        if len(slice_cells) != k ** (d - 1):
            raise NotAPyramid(
                f"level {k} has {len(slice_cells)} cells, expected {k ** (d - 1)}"
            )
        sections.append(CellSet(d - 1, frozenset(slice_cells)))
    return sections


def secondary_sections(p: CellSet, axis: int) -> list[CellSet]:
    """Profile slices along one cube-spanning axis (axis in 2..d).

    The m-th slice (m = 1..n) collects cells with coordinate axis equal
    to m-1 and drops that coordinate; it is a truncated pyramid with
    sum_{k=m..n} k**(d-2) cells.
    """
    d = p.dimension
    if not 2 <= axis <= d:
        raise AxisOutOfRange(f"axis must be 2..{d}, got {axis}")
    n = _levels(p)
    idx = axis - 1
    sections = []
    for m in range(1, n + 1):
        slice_cells = frozenset(
            c[:idx] + c[idx + 1:] for c in p.cells if c[idx] == m - 1
        )
        sections.append(CellSet(d - 1, slice_cells))
    return sections


def sections_agree(d: int, n: int) -> IdentityReport:
    """Check that both section families partition P_d(n).

    Confirms that main and secondary section sizes both total |P_d(n)|,
    that the secondary sizes are independent of the chosen axis, and that
    they equal the truncated sums sum_{k=m..n} k**(d-2); this is the
    geometric form of the rows/columns lemma with p = d-2.
    """
    pyramid = build_pyramid(d, n)
    main_total = sum(len(s) for s in main_sections(pyramid))
    lemma_rows = [
        sum(k ** (d - 2) for k in range(m, n + 1)) for m in range(1, n + 1)
    ]
    holds = main_total == len(pyramid)
    secondary_total = 0
    for axis in range(2, d + 1):
        sizes = [len(s) for s in secondary_sections(pyramid, axis)]
        if axis == 2:
            secondary_total = sum(sizes)
        holds = holds and sizes == lemma_rows
    holds = holds and secondary_total == len(pyramid)
    return IdentityReport(
        identity_name="ROWS_COLS",
        parameters={"p": d - 2, "n": n, "d": d},
        lhs=QuadExt(main_total),
        rhs=QuadExt(secondary_total),
        holds=holds,
    )
