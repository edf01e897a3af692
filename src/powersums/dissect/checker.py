"""Exact-cover verification of dissection certificates.

The ground truth for every generator.  Coordinates are checked on an
integer lattice: with D the lcm of every rational-part and sqrt(21)-part
denominator in the input, a + b*sqrt(21) becomes the int pair (a*D, b*D).
Rigid transforms, hashing and the exact ordering of coordinates then run on
ints, and ``QuadExt`` is rebuilt only for a reported cell.  Coordinate
compression over the exactly-ordered lattice coordinates partitions each
layer into grid cells; a certificate passes iff, on every destination
layer, the transformed pieces cover each cell inside the declared targets
exactly once and no cell outside them, and the piece sources are pairwise
disjoint on every source layer.  Declared leftovers act as the target
frame of the reserved ``leftover`` layer.

Malformed input produces a report-carrying failure, never an exception.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from math import isqrt, lcm
from typing import Iterable, Iterator, Optional, Sequence

from ..exact import QuadExt, lattice_sign as _sign, quad_to_text
from .geometry import (
    CONSTRUCTIONS,
    LEFTOVER_LAYER,
    DissectionCertificate,
    Placement,
    Rect,
    RigidTransform,
)

#: Largest common denominator D the checker accepts, in bits.  Generated
#: certificates need a D dividing 6.
MAX_DENOMINATOR_BITS = 256

#: a + b*sqrt(21) as the int pair (a*D, b*D) over a common denominator D
Point = tuple[int, int]
#: corners (x1, y1, x2, y2) of an axis-aligned rectangle, as lattice points
LatticeRect = tuple[Point, Point, Point, Point]


@dataclass(frozen=True)
class CellInterval:
    x1: QuadExt
    y1: QuadExt
    x2: QuadExt
    y2: QuadExt

    def __str__(self) -> str:
        return (f"[{quad_to_text(self.x1)}, {quad_to_text(self.x2)}] x "
                f"[{quad_to_text(self.y1)}, {quad_to_text(self.y2)}]")


@dataclass(frozen=True)
class CheckFailure:
    kind: str  # "overlap" | "uncovered" | "outside" | "source-overlap" | "malformed"
    layer: Optional[str]
    cell: Optional[CellInterval]
    message: str

    def __str__(self) -> str:
        where = f" on layer {self.layer!r}" if self.layer else ""
        at = f" at {self.cell}" if self.cell else ""
        return f"{self.kind}{where}{at}: {self.message}"


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    failure: Optional[CheckFailure]
    layers_checked: int = 0
    cells_checked: int = 0

    def __str__(self) -> str:
        if self.ok:
            return (f"PASS ({self.layers_checked} layers, "
                    f"{self.cells_checked} grid cells)")
        return f"FAIL {self.failure}"


def _fail(kind: str, layer: Optional[str], cell: Optional[CellInterval],
          message: str) -> CheckReport:
    return CheckReport(False, CheckFailure(kind, layer, cell, message))


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


def _common_denominator(values: Iterable[QuadExt]) -> int:
    """lcm of every rational-part and sqrt(21)-part denominator.

    Raises ValueError beyond ``MAX_DENOMINATOR_BITS``: every coordinate is
    scaled by it, so input with many unrelated denominators would otherwise
    cost memory in proportion to their product.
    """
    dens = {v.triple[2] for v in values}
    d = 1
    for den in dens:
        d = lcm(d, den)
        if d.bit_length() > MAX_DENOMINATOR_BITS:
            raise ValueError(f"common denominator exceeds "
                             f"{MAX_DENOMINATOR_BITS} bits")
    return d


def _point(v: QuadExt, d: int) -> Point:
    a, b, den = v.triple
    k = d // den
    return a * k, b * k


def _lattice_rect(r: Rect, d: int) -> LatticeRect:
    x, y, w, h = _point(r.x, d), _point(r.y, d), _point(r.w, d), _point(r.h, d)
    return x, y, (x[0] + w[0], x[1] + w[1]), (y[0] + h[0], y[1] + h[1])


def _quad(point: Point, d: int) -> QuadExt:
    return QuadExt(Fraction(point[0], d), Fraction(point[1], d))


def _place(rects: Sequence[LatticeRect], t: RigidTransform,
           d: int) -> list[LatticeRect]:
    """``t`` applied to lattice rects of positive width and height.

    Reflection and quarter turns map [x1, x2] x [y1, y2] onto intervals
    whose lower ends are known from (reflect, quarter_turns) alone, so no
    coordinate is compared.  Agrees with ``RigidTransform.apply_rect``.
    """
    dxa, dxb = _point(t.dx, d)
    dya, dyb = _point(t.dy, d)
    placed = []
    for (x1a, x1b), (y1a, y1b), (x2a, x2b), (y2a, y2b) in rects:
        if t.reflect:
            x1a, x1b, x2a, x2b = -x2a, -x2b, -x1a, -x1b
        for _ in range(t.quarter_turns):  # (x, y) -> (-y, x)
            x1a, x1b, y1a, y1b, x2a, x2b, y2a, y2b = (
                -y2a, -y2b, x1a, x1b, -y1a, -y1b, x2a, x2b)
        placed.append(((x1a + dxa, x1b + dxb), (y1a + dya, y1b + dyb),
                       (x2a + dxa, x2b + dxb), (y2a + dya, y2b + dyb)))
    return placed


def _cell(xs: Sequence[Point], ys: Sequence[Point], i: int, j: int,
          d: int) -> CellInterval:
    return CellInterval(_quad(xs[i], d), _quad(ys[j], d),
                        _quad(xs[i + 1], d), _quad(ys[j + 1], d))


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
        for x1, y1, x2, y2 in group:
            coords_x.add(x1)
            coords_x.add(x2)
            coords_y.add(y1)
            coords_y.add(y2)
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
        grid = [[0] * ny for _ in range(nx)]
        for i in range(nx):
            row_prev = grid[i - 1] if i else None
            diff_i = diff[i]
            grid_i = grid[i]
            acc = 0
            for j in range(ny):
                acc += diff_i[j]
                grid_i[j] = acc + (row_prev[j] if row_prev else 0)
        counts.append(grid)
    return xs, ys, counts


def _check_layer_cover(layer: str, piece_rects: Sequence[LatticeRect],
                       target_rects: Sequence[LatticeRect],
                       d: int) -> tuple[Optional[CheckReport], int]:
    xs, ys, counts = _grid_counts([piece_rects, target_rects])
    pieces, targets = counts
    cells = 0
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            cells += 1
            pc = pieces[i][j]
            tc = targets[i][j]
            if pc == tc and tc <= 1:
                continue
            cell = _cell(xs, ys, i, j, d)
            if tc > 1:
                return _fail("malformed", layer, cell,
                             f"target regions overlap ({tc} deep)"), cells
            if tc == 0:
                return _fail("outside", layer, cell,
                             f"{pc} piece(s) outside every target"), cells
            if pc == 0:
                return _fail("uncovered", layer, cell,
                             "target cell covered by no piece"), cells
            return _fail("overlap", layer, cell,
                         f"target cell covered {pc} times"), cells
    return None, cells


def _check_source_disjoint(layer: str, source_rects: Sequence[LatticeRect],
                           d: int) -> tuple[Optional[CheckReport], int]:
    xs, ys, counts = _grid_counts([source_rects])
    grid = counts[0]
    cells = 0
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            cells += 1
            if grid[i][j] > 1:
                return _fail("source-overlap", layer, _cell(xs, ys, i, j, d),
                             f"piece sources overlap ({grid[i][j]} deep)"), cells
    return None, cells


def _validate_structure(cert: DissectionCertificate,
                        sources: Sequence[Sequence[LatticeRect]],
                        ) -> Optional[CheckReport]:
    if cert.construction not in CONSTRUCTIONS:
        return _fail("malformed", None, None,
                     f"unknown construction {cert.construction!r}")
    if cert.n < 1:
        return _fail("malformed", None, None, f"n must be >= 1, got {cert.n}")
    for layer, _region in cert.targets:
        if layer == LEFTOVER_LAYER:
            return _fail("malformed", layer, None,
                         f"{LEFTOVER_LAYER!r} is reserved for declared leftovers")
    seen_ids: set[str] = set()
    for p, rects in zip(cert.placements, sources):
        if p.piece_id in seen_ids:
            return _fail("malformed", None, None,
                         f"duplicate piece id {p.piece_id!r}")
        seen_ids.add(p.piece_id)
        t = p.transform
        if not 0 <= t.quarter_turns <= 3:
            return _fail("malformed", None, None,
                         f"piece {p.piece_id!r}: quarter_turns must be 0..3, "
                         f"got {t.quarter_turns}")
        if not rects:
            return _fail("malformed", p.source_layer, None,
                         f"piece {p.piece_id!r} has an empty source region")
        for (x1a, x1b), (y1a, y1b), (x2a, x2b), (y2a, y2b) in rects:
            if (_sign(x2a - x1a, x2b - x1b) <= 0
                    or _sign(y2a - y1a, y2b - y1b) <= 0):
                return _fail("malformed", p.source_layer, None,
                             f"piece {p.piece_id!r} has a degenerate rectangle")
    return None


def _certificate_values(cert: DissectionCertificate) -> Iterator[QuadExt]:
    for p in cert.placements:
        for r in p.source.rects:
            yield from r
        yield p.transform.dx
        yield p.transform.dy
    for _layer, region in cert.targets:
        for r in region.rects:
            yield from r
    for region in cert.leftovers:
        for r in region.rects:
            yield from r


def check_certificate(cert: DissectionCertificate) -> CheckReport:
    """Verify a certificate; returns a report, never raises.

    Checks, in order: structural well-formedness, source disjointness per
    source layer, and exact cover of every destination layer's targets
    (leftover pieces against the declared leftovers).  The first offending
    grid cell is reported, with the layers and cells scanned up to and
    including it.
    """
    try:
        d = _common_denominator(_certificate_values(cert))
        sources = [[_lattice_rect(r, d) for r in p.source.rects]
                   for p in cert.placements]
        bad = _validate_structure(cert, sources)
        if bad is not None:
            return bad

        by_source: dict[str, list[LatticeRect]] = {}
        by_dest: dict[str, list[LatticeRect]] = {}
        for p, rects in zip(cert.placements, sources):
            by_source.setdefault(p.source_layer, []).extend(rects)
            by_dest.setdefault(p.destination_layer, []).extend(
                _place(rects, p.transform, d))

        target_map: dict[str, list[LatticeRect]] = {}
        for layer, region in cert.targets:
            target_map.setdefault(layer, []).extend(
                _lattice_rect(r, d) for r in region.rects)
        if cert.leftovers:
            target_map[LEFTOVER_LAYER] = [
                _lattice_rect(r, d) for region in cert.leftovers
                for r in region.rects
            ]

        layers_checked = 0
        cells_checked = 0
        for layer in sorted(by_source):
            failure, cells = _check_source_disjoint(layer, by_source[layer], d)
            cells_checked += cells
            layers_checked += 1
            if failure is not None:
                return replace(failure, layers_checked=layers_checked,
                               cells_checked=cells_checked)
        for layer in sorted(set(by_dest) | set(target_map)):
            failure, cells = _check_layer_cover(
                layer, by_dest.get(layer, []), target_map.get(layer, []), d
            )
            cells_checked += cells
            layers_checked += 1
            if failure is not None:
                return replace(failure, layers_checked=layers_checked,
                               cells_checked=cells_checked)
        return CheckReport(True, None, layers_checked, cells_checked)
    except Exception as exc:  # malformed input must never crash the checker
        return _fail("malformed", None, None, f"{type(exc).__name__}: {exc}")


def cover_failure(layer: str, piece_rects: Sequence[Rect],
                  target_rects: Sequence[Rect]) -> Optional[CheckReport]:
    """None if ``piece_rects`` tile ``target_rects`` exactly once, else the
    failing report, naming ``layer`` and the first offending grid cell."""
    d = _common_denominator(v for r in (*piece_rects, *target_rects) for v in r)
    failure, _ = _check_layer_cover(
        layer, [_lattice_rect(r, d) for r in piece_rects],
        [_lattice_rect(r, d) for r in target_rects], d)
    return failure


def covers_exactly(piece_rects: Iterable[Rect], target_rects: Iterable[Rect]) -> bool:
    """True iff the first rect collection tiles the second exactly once."""
    return cover_failure("-", list(piece_rects), list(target_rects)) is None


MUTATION_KINDS = (
    "translate+x", "translate-x", "translate+y", "translate-y",
    "quarter-turn", "reflect",
)


def mutate_placement(cert: DissectionCertificate, rng: random.Random,
                     ) -> tuple[DissectionCertificate, str]:
    """Corrupt one random placement by a unit translation, an extra
    quarter turn, or a reflection toggle; returns the mutant and a label."""
    idx = rng.randrange(len(cert.placements))
    kind = MUTATION_KINDS[rng.randrange(len(MUTATION_KINDS))]
    p = cert.placements[idx]
    t = p.transform
    one = QuadExt(1)
    if kind == "translate+x":
        t = replace(t, dx=t.dx + one)
    elif kind == "translate-x":
        t = replace(t, dx=t.dx - one)
    elif kind == "translate+y":
        t = replace(t, dy=t.dy + one)
    elif kind == "translate-y":
        t = replace(t, dy=t.dy - one)
    elif kind == "quarter-turn":
        t = replace(t, quarter_turns=(t.quarter_turns + 1) % 4)
    else:
        t = replace(t, reflect=not t.reflect)
    placements = list(cert.placements)
    placements[idx] = Placement(p.piece_id, p.source_layer, p.source, t,
                                p.destination_layer)
    mutant = DissectionCertificate(
        cert.construction, cert.n, tuple(placements), cert.targets, cert.leftovers
    )
    return mutant, f"{kind} on {p.piece_id}"
