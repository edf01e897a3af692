"""The trusted kernel of the certificate checker: structure checks, rigid
motions, the exact order of coordinates and the exact-cover scans.  It
imports only the standard library, so it can be audited apart from the code
that produces certificates and from ``QuadExt``.

Input is plain data: a + b*sqrt(21) is the int pair (a*D, b*D) over one
common denominator D of the whole certificate, and a rect is its corners
(x1, y1, x2, y2).  A certificate passes iff its structure is sound, piece
sources are pairwise disjoint on every source layer, and on every
destination layer the placed pieces cover each grid cell inside the declared
targets exactly once and no cell outside them.  Declared leftovers act as
the target frame of the reserved ``leftover`` layer.
"""

from __future__ import annotations

from itertools import accumulate
from math import isqrt
from operator import add, itemgetter
from typing import Collection, Iterable, NamedTuple, Optional, Sequence

#: Reserved destination layer id: pieces sent here must tile the declared
#: leftover regions instead of a target frame.
LEFTOVER_LAYER = "leftover"

#: a + b*sqrt(21) as the int pair (a*D, b*D) over a common denominator D
Point = tuple[int, int]
#: corners (x1, y1, x2, y2) of an axis-aligned rectangle, as lattice points
LatticeRect = tuple[Point, Point, Point, Point]
#: (quarter_turns, reflect, dx, dy): mirror across the vertical axis when
#: reflect is set, then turn counter-clockwise about the origin, then shift
Transform = tuple[int, bool, Point, Point]
#: (piece_id, source_layer, source rects, transform, destination_layer)
Piece = tuple[str, str, Sequence[LatticeRect], Transform, str]


class LatticeCertificate(NamedTuple):
    """A certificate over one common denominator: the kernel's whole input."""

    construction: str
    n: int
    pieces: Sequence[Piece]
    #: (layer, rects) of each declared target region
    targets: Sequence[tuple[str, Sequence[LatticeRect]]]
    #: the rects of each declared leftover region
    leftovers: Sequence[Sequence[LatticeRect]]


class Failure(NamedTuple):
    """The first defect found; ``cell`` is a grid cell as lattice corners."""

    kind: str  # "overlap" | "uncovered" | "outside" | "source-overlap" | "malformed"
    layer: Optional[str]
    cell: Optional[LatticeRect]
    message: str


def lattice_sign(a: int, b: int) -> int:
    """Sign of the real number a + b*sqrt(21) for ints a, b.

    With mixed-sign parts the root term dominates exactly when
    21*b**2 > a**2 (never equal unless b == 0, as sqrt(21) is irrational).
    """
    if b == 0:
        return (a > 0) - (a < 0)
    sb = 1 if b > 0 else -1
    if a == 0 or (a > 0) == (b > 0) or a * a < 21 * b * b:
        return sb
    return -sb


def _sorted_points(points: Iterable[Point]) -> list[Point]:
    """The points in increasing real order, exactly.

    Each point u = A + B*sqrt(21) is keyed by the integer floor(S*u) with
    S = 12*M, where M bounds |A| and |B| over the points; the root part's
    floor is an ``isqrt`` (21*(B*S)**2 is never a square for B != 0).  The
    key is injective: for distinct u, v the norm of u - v is a non-zero
    integer, and the conjugate of u - v is at most 2M(1 + sqrt(21)) < S
    in size, so |u - v| > 1/S.  Being monotone too, it orders exactly.
    """
    points = list(points)
    s = 12 * max((max(abs(a), abs(b)) for a, b in points), default=1)

    def key(point: Point) -> int:
        a, b = point
        if b > 0:
            return a * s + isqrt(21 * (b * s) ** 2)
        if b < 0:
            return a * s - isqrt(21 * (b * s) ** 2) - 1
        return a * s

    return sorted(points, key=key)


def _place(rects: Sequence[LatticeRect], t: Transform) -> list[LatticeRect]:
    """``t`` applied to rects of positive width and height.  Reflection and
    quarter turns map [x1, x2] x [y1, y2] onto intervals whose lower ends
    are known from (reflect, quarter_turns) alone: no coordinate is compared.
    """
    quarter_turns, reflect, (dxa, dxb), (dya, dyb) = t
    placed = []
    for (x1a, x1b), (y1a, y1b), (x2a, x2b), (y2a, y2b) in rects:
        if reflect:
            x1a, x1b, x2a, x2b = -x2a, -x2b, -x1a, -x1b
        for _ in range(quarter_turns):  # (x, y) -> (-y, x)
            x1a, x1b, y1a, y1b, x2a, x2b, y2a, y2b = (
                -y2a, -y2b, x1a, x1b, -y1a, -y1b, x2a, x2b)
        placed.append(((x1a + dxa, x1b + dxb), (y1a + dya, y1b + dyb),
                       (x2a + dxa, x2b + dxb), (y2a + dya, y2b + dyb)))
    return placed


_X1, _Y1, _X2, _Y2 = (itemgetter(k) for k in range(4))


def _grid_counts(rect_groups: Sequence[Sequence[LatticeRect]],
                 ) -> tuple[list[Point], list[Point], list[list[list[int]]]]:
    """Compressed-grid coverage counts for several rect collections.

    Returns the sorted distinct x and y coordinates and, per collection,
    a (len(xs)-1) x (len(ys)-1) matrix counting how many rectangles cover
    each grid cell.
    """
    coords_x: set[Point] = set()
    coords_y: set[Point] = set()
    for group in rect_groups:
        coords_x.update(map(_X1, group), map(_X2, group))
        coords_y.update(map(_Y1, group), map(_Y2, group))
    xs = _sorted_points(coords_x)
    ys = _sorted_points(coords_y)
    x_index = {v: i for i, v in enumerate(xs)}
    y_index = {v: i for i, v in enumerate(ys)}
    nx, ny = max(len(xs) - 1, 0), max(len(ys) - 1, 0)
    counts: list[list[list[int]]] = []
    for group in rect_groups:
        diff = [[0] * (ny + 1) for _ in range(nx + 1)]
        for x1, y1, x2, y2 in group:
            i1, i2 = x_index[x1], x_index[x2]
            j1, j2 = y_index[y1], y_index[y2]
            diff[i1][j1] += 1
            diff[i2][j1] -= 1
            diff[i1][j2] -= 1
            diff[i2][j2] += 1
        grid = []
        row = [0] * ny
        for i in range(nx):  # row i = row i-1 plus the prefix sums of diff[i]
            row = list(map(add, row, accumulate(diff[i])))
            grid.append(row)
        counts.append(grid)
    return xs, ys, counts


def _check_layer_cover(layer: str, piece_rects: Sequence[LatticeRect],
                       target_rects: Sequence[LatticeRect],
                       ) -> tuple[Optional[Failure], int]:
    """The first grid cell where the pieces do not tile the targets exactly
    once (None if there is none), and the number of cells scanned."""
    xs, ys, counts = _grid_counts([piece_rects, target_rects])
    pieces, targets = counts
    cells = 0
    ny = len(ys) - 1
    for i in range(len(xs) - 1):
        if pieces[i] == targets[i] and max(targets[i], default=0) <= 1:
            cells += ny  # every cell of the row is covered exactly as it should be
            continue
        for j in range(ny):
            cells += 1
            pc = pieces[i][j]
            tc = targets[i][j]
            if pc == tc and tc <= 1:
                continue
            cell = xs[i], ys[j], xs[i + 1], ys[j + 1]
            if tc > 1:
                return Failure("malformed", layer, cell,
                               f"target regions overlap ({tc} deep)"), cells
            if tc == 0:
                return Failure("outside", layer, cell,
                               f"{pc} piece(s) outside every target"), cells
            if pc == 0:
                return Failure("uncovered", layer, cell,
                               "target cell covered by no piece"), cells
            return Failure("overlap", layer, cell,
                           f"target cell covered {pc} times"), cells
    return None, cells


def _check_source_disjoint(layer: str, source_rects: Sequence[LatticeRect],
                           ) -> tuple[Optional[Failure], int]:
    """The first grid cell covered by two sources (None if there is none),
    and the number of cells scanned."""
    xs, ys, counts = _grid_counts([source_rects])
    grid = counts[0]
    cells = 0
    ny = len(ys) - 1
    for i in range(len(xs) - 1):
        if max(grid[i], default=0) <= 1:
            cells += ny
            continue
        for j in range(ny):
            cells += 1
            if grid[i][j] > 1:
                return Failure("source-overlap", layer,
                               (xs[i], ys[j], xs[i + 1], ys[j + 1]),
                               f"piece sources overlap ({grid[i][j]} deep)"), cells
    return None, cells


def _validate_structure(cert: LatticeCertificate,
                        constructions: Collection[str]) -> Optional[Failure]:
    """The first structural defect, if any: an unknown construction, n below
    1, a target on the leftover layer, a repeated piece id, a quarter turn
    outside 0..3, or an empty or degenerate source."""
    if cert.construction not in constructions:
        return Failure("malformed", None, None,
                       f"unknown construction {cert.construction!r}")
    if cert.n < 1:
        return Failure("malformed", None, None, f"n must be >= 1, got {cert.n}")
    for layer, _rects in cert.targets:
        if layer == LEFTOVER_LAYER:
            return Failure("malformed", layer, None,
                           f"{LEFTOVER_LAYER!r} is reserved for declared leftovers")
    seen_ids: set[str] = set()
    for piece_id, source_layer, rects, transform, _dest in cert.pieces:
        quarter_turns = transform[0]
        if piece_id in seen_ids:
            return Failure("malformed", None, None,
                           f"duplicate piece id {piece_id!r}")
        seen_ids.add(piece_id)
        if not 0 <= quarter_turns <= 3:
            return Failure("malformed", None, None,
                           f"piece {piece_id!r}: quarter_turns must be 0..3, "
                           f"got {quarter_turns}")
        if not rects:
            return Failure("malformed", source_layer, None,
                           f"piece {piece_id!r} has an empty source region")
        for (x1a, x1b), (y1a, y1b), (x2a, x2b), (y2a, y2b) in rects:
            if (lattice_sign(x2a - x1a, x2b - x1b) <= 0
                    or lattice_sign(y2a - y1a, y2b - y1b) <= 0):
                return Failure("malformed", source_layer, None,
                               f"piece {piece_id!r} has a degenerate rectangle")
    return None


def _scan(cert: LatticeCertificate) -> tuple[Optional[Failure], int, int]:
    """Source disjointness on every source layer, then exact cover on every
    destination layer, each in sorted layer order.  Returns the first
    failure (None if the certificate passes) with the layers and cells
    scanned up to and including it.  Expects a certificate that passed
    ``_validate_structure``."""
    by_source: dict[str, list[LatticeRect]] = {}
    by_dest: dict[str, list[LatticeRect]] = {}
    for _id, source_layer, rects, transform, dest in cert.pieces:
        by_source.setdefault(source_layer, []).extend(rects)
        by_dest.setdefault(dest, []).extend(_place(rects, transform))
    target_map: dict[str, list[LatticeRect]] = {}
    for layer, rects in cert.targets:
        target_map.setdefault(layer, []).extend(rects)
    if cert.leftovers:
        target_map[LEFTOVER_LAYER] = [r for rects in cert.leftovers for r in rects]

    layers = cells = 0
    for layer in sorted(by_source):
        failure, scanned = _check_source_disjoint(layer, by_source[layer])
        layers += 1
        cells += scanned
        if failure is not None:
            return failure, layers, cells
    for layer in sorted(set(by_dest) | set(target_map)):
        failure, scanned = _check_layer_cover(
            layer, by_dest.get(layer, []), target_map.get(layer, []))
        layers += 1
        cells += scanned
        if failure is not None:
            return failure, layers, cells
    return None, layers, cells
