"""The trusted kernel of the certificate checker: structure checks, the
same for every input, rigid motions, the exact order of coordinates and
the exact-cover scans.  It imports only the standard library, so it can be
audited apart from the code that produces certificates and from ``QuadExt``.

Input is plain data: with r = ``RADICAND``, a + b*sqrt(r) is the int pair
(a*D, b*D) over one common denominator D of the certificate, and a rect is
its corners (x1, y1, x2, y2).  A certificate passes iff its construction is
one of ``CONSTRUCTIONS`` with n at most its cap, its structure is sound, it
places a piece, its sources are pairwise disjoint on every source layer, and
on every destination layer the placed pieces cover each grid cell inside the
declared targets exactly once and no cell outside them.  Declared leftovers
act as the target frame of the reserved ``leftover`` layer.
"""

from __future__ import annotations

from itertools import accumulate, islice
from math import isqrt
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

#: Reserved destination layer id: pieces sent here must tile the declared
#: leftover regions instead of a target frame.
LEFTOVER_LAYER = "leftover"

#: Every construction a certificate may name, in the paper's order, with
#: the largest n its generator builds cell by cell (cell counts grow as n^5).
CONSTRUCTIONS: dict[str, int] = {
    "GAUSS_RECT": 100,
    "THREE_PYR_2D": 50,
    "NICOMACHUS_4D_2D": 20,
    "FIVE_PYR_LAYERS": 10,
    "STEP2_RESHAPE": 10,
    "STEP3_SCISSOR": 10,
    "STEP4_TOP": 12,
}

#: The field is Q(sqrt(RADICAND)), 21 the discriminant of 3n**2 + 3n - 1
RADICAND = 21

#: a + b*sqrt(r) as the int pair (a*D, b*D) over a common denominator D
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
    #: D, which no scan reads: a verdict does not depend on the scale
    denominator: int


class Failure(NamedTuple):
    """The first defect found; ``cell`` is a grid cell as lattice corners."""

    kind: str  # "overlap" | "uncovered" | "outside" | "source-overlap" | "malformed"
    layer: Optional[str]
    cell: Optional[LatticeRect]
    message: str


def bounded(text: str) -> str:
    """``text``, cut after 200 characters: messages echo outside values
    through it, so their size does not grow with the input."""
    if len(text) <= 200:
        return text
    return f"{text[:200]}... ({len(text)} characters)"


def lattice_sign(a: int, b: int) -> int:
    """Sign of the real number a + b*sqrt(r) for ints a, b, r = ``RADICAND``.

    With mixed-sign parts the root term dominates exactly when
    r*b**2 > a**2 (never equal unless b == 0, as sqrt(r) is irrational).
    """
    if b == 0:
        return (a > 0) - (a < 0)
    sb = 1 if b > 0 else -1
    if a == 0 or (a > 0) == (b > 0) or a * a < RADICAND * b * b:
        return sb
    return -sb


def _sorted_points(points: Iterable[Point]) -> list[Point]:
    """The points in increasing real order, exactly.

    Each point u = A + B*sqrt(r) is keyed by the integer floor(S*u) with
    S = 2M(isqrt(r) + 2), M a bound on |A| and |B| over the points; the root
    part's floor is an ``isqrt`` (r*(B*S)**2 is never a square for B != 0).
    The key is injective: for distinct u, v the norm of u - v is a non-zero
    integer, and the conjugate of u - v is at most 2M(1 + sqrt(r)) < S in
    size, so |u - v| > 1/S.  Being monotone too, it orders exactly.
    """
    points, r = list(points), RADICAND
    s = 2 * max((max(abs(a), abs(b)) for a, b in points), default=1) * (isqrt(r) + 2)

    def key(point: Point) -> int:
        a, b = point
        if b > 0:
            return a * s + isqrt(r * (b * s) ** 2)
        if b < 0:
            return a * s - isqrt(r * (b * s) ** 2) - 1
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

#: Largest common denominator D, in bits; generated certificates have D = 6.
MAX_DENOMINATOR_BITS = 256

#: Most grid cells one layer may have, checked before any cell is counted.
#: The largest generated layer, NICOMACHUS_4D_2D at n = 20, has 112,980.
MAX_LAYER_CELLS = 2 ** 22


def _grid_counts(groups: Sequence[tuple[int, Sequence[LatticeRect]]],
                 ) -> tuple[list[Point], list[Point], Iterator[list[int]]]:
    """Weighted compressed-grid coverage counts of (weight, rects) groups.

    Returns the sorted distinct x and y coordinates and an iterator over
    the len(xs)-1 rows: row i holds, for each of the len(ys)-1 cells
    between xs[i] and xs[i+1], the summed weights of the rects covering
    it.  Each rect's y-interval is bucketed at its two x-edges and one
    y-difference row is kept running, so memory is O(X + Y + R) for X and
    Y distinct coordinates and R rects, and rows are made one at a time.
    """
    coords_x: set[Point] = set()
    coords_y: set[Point] = set()
    for _weight, rects in groups:
        coords_x.update(map(_X1, rects), map(_X2, rects))
        coords_y.update(map(_Y1, rects), map(_Y2, rects))
    xs = _sorted_points(coords_x)
    ys = _sorted_points(coords_y)
    x_index = {v: i for i, v in enumerate(xs)}
    y_index = {v: i for i, v in enumerate(ys)}
    edges: list[list[tuple[int, int, int]]] = [[] for _ in xs]
    for weight, rects in groups:
        for x1, y1, x2, y2 in rects:
            j1, j2 = y_index[y1], y_index[y2]
            edges[x_index[x1]].append((j1, j2, weight))
            edges[x_index[x2]].append((j1, j2, -weight))

    def rows() -> Iterator[list[int]]:
        diff = [0] * len(ys)
        for i in range(len(xs) - 1):
            for j1, j2, weight in edges[i]:
                diff[j1] += weight
                diff[j2] -= weight
            yield list(islice(accumulate(diff), len(ys) - 1))

    return xs, ys, rows()


def _first_outside(layer: str,
                   groups: Sequence[tuple[int, Sequence[LatticeRect]]],
                   allowed: frozenset[int],
                   describe: Callable[[int], tuple[str, str]],
                   ) -> tuple[Optional[Failure], int]:
    """The first cell of ``layer``'s grid, in row-major order, whose count
    is not in ``allowed`` (its kind and message from ``describe(count)``),
    or None, and the number of cells scanned up to and including it.  A
    grid of more than ``MAX_LAYER_CELLS`` cells is refused unscanned."""
    xs, ys, rows = _grid_counts(groups)
    ny = len(ys) - 1
    if (len(xs) - 1) * ny > MAX_LAYER_CELLS:
        return Failure("malformed", layer, None,
                       f"too large: {len(xs) - 1} x {ny} grid cells, at most "
                       f"{MAX_LAYER_CELLS} on one layer"), 0
    cells = 0
    for i, row in enumerate(rows):
        if allowed.issuperset(row):
            cells += ny
            continue
        j = next(j for j, count in enumerate(row) if count not in allowed)
        kind, message = describe(row[j])
        return (Failure(kind, layer, (xs[i], ys[j], xs[i + 1], ys[j + 1]),
                        message), cells + j + 1)
    return None, cells


def _check_layer_cover(layer: str, piece_rects: Sequence[LatticeRect],
                       target_rects: Sequence[LatticeRect],
                       ) -> tuple[Optional[Failure], int]:
    """The first grid cell where the pieces do not tile the targets exactly
    once (None if there is none), and the number of cells scanned.

    Pieces weigh 1 and targets k, more than all pieces together, so a
    cell's count c is k * (targets over it) + (pieces over it).  k is also
    above 1, else the one allowed count k + 1 of a layer without pieces
    would read two targets as one target and one piece."""
    k = len(piece_rects) + 2

    def describe(count: int) -> tuple[str, str]:
        tc, pc = divmod(count, k)
        if tc > 1:
            return "malformed", f"target regions overlap ({tc} deep)"
        if tc == 0:
            return "outside", f"{pc} piece(s) outside every target"
        if pc == 0:
            return "uncovered", "target cell covered by no piece"
        return "overlap", f"target cell covered {pc} times"

    return _first_outside(layer, [(1, piece_rects), (k, target_rects)],
                          frozenset((0, k + 1)), describe)


def _check_source_disjoint(layer: str, source_rects: Sequence[LatticeRect],
                           ) -> tuple[Optional[Failure], int]:
    """The first grid cell covered by two sources (None if there is none),
    and the number of cells scanned."""
    return _first_outside(
        layer, [(1, source_rects)], frozenset((0, 1)),
        lambda count: ("source-overlap", f"piece sources overlap ({count} deep)"))


def _malformed(message: str, layer: Optional[str] = None) -> Failure:
    return Failure("malformed", layer, None, message)


def _typed(what: str, values: Iterable[object], *kinds: type,
           size: Optional[int] = None) -> Optional[Failure]:
    """The failure for the first of ``values`` whose type is none of
    ``kinds`` or whose length is not ``size``, or None."""
    for bad in values:
        if all(type(bad) is not k for k in kinds) or size and len(bad) != size:
            shape = f"{'an' if kinds[0] is int else 'a'} " + " or ".join(
                k.__name__ for k in kinds) + (f" of {size}" if size else "")
            return _malformed(f"{what} must be {shape}, got {bounded(repr(bad))}")
    return None


def _degenerate(rects: Sequence[LatticeRect], layer: str,
                piece_id: Optional[str] = None) -> Optional[Failure]:
    """The failure if ``rects`` is not a list or tuple (a one-shot iterator
    would leave the scans nothing), or for its first rect that is not a
    tuple of 4 points of 2 ints, or that is degenerate: a side <= 0."""
    if type(rects) is not list and type(rects) is not tuple:
        return _typed("the rects of a region", [rects], list, tuple)
    for rect in rects:
        try:  # a tuple unpacks running no outside code; () fails as a wrong length
            p, q, r, s = rect if type(rect) is tuple else ()
            (x1a, x1b), (y1a, y1b), (x2a, x2b), (y2a, y2b) = (
                rect if type(p) is type(q) is type(r) is type(s) is tuple else ())
        except ValueError:
            return (_typed("a rect", [rect], tuple, size=4)
                    or _typed("a point", rect, tuple, size=2))
        if not (type(x1a) is type(x1b) is type(y1a) is type(y1b) is int
                and type(x2a) is type(x2b) is type(y2a) is type(y2b) is int):
            return _typed("a coordinate", [*p, *q, *r, *s], int)
        if not ((x2a > x1a if x1b == x2b  # no root part: no sign call
                 else lattice_sign(x2a - x1a, x2b - x1b) > 0)
                and (y2a > y1a if y1b == y2b
                     else lattice_sign(y2a - y1a, y2b - y1b) > 0)):
            who = ("a target or leftover" if piece_id is None
                   else f"piece {bounded(repr(piece_id))}")
            return _malformed(f"{who} has a degenerate rectangle", layer)
    return None


def _defects(cert: LatticeCertificate) -> Iterator[Optional[Failure]]:
    """Each structure check's failure or None, in order, each relying on
    those before it: the construction, n, D, the containers, no piece, each
    target (with its layer id) and leftover, a target on the leftover layer,
    then piece by piece its shape, ids, ``reflect``, turns, rects, emptiness."""
    name, n, d = cert.construction, cert.n, cert.denominator
    yield _typed("the construction", [name], str)
    if name not in CONSTRUCTIONS:
        yield _malformed(f"unknown construction {bounded(repr(name))}")
    yield _typed("n", [n], int)  # the wire walk refuses one too
    if n < 1:
        yield _malformed(f"n must be >= 1, got {bounded(str(n))}")
    if n > CONSTRUCTIONS[name]:
        yield _malformed(f"n must be <= {CONSTRUCTIONS[name]} for {name}, "
                         f"got {bounded(str(n))}")
    yield _typed("the denominator", [d], int)
    if d < 1 or d.bit_length() > MAX_DENOMINATOR_BITS:
        yield _malformed(f"the denominator must be in 1..2**"
                         f"{MAX_DENOMINATOR_BITS} - 1, got {bounded(str(d))}")
    for field in ("pieces", "targets", "leftovers"):
        yield _typed(field, [getattr(cert, field)], list, tuple)
    if not cert.pieces:
        yield _malformed("a certificate must place at least one piece")
    for frame in [*cert.targets, *((LEFTOVER_LAYER, rs) for rs in cert.leftovers)]:
        if not (type(frame) is tuple and len(frame) == 2 and type(frame[0]) is str):
            yield _typed("a target", [frame], tuple, size=2)
            yield _typed("a layer id", [frame[0]], str)
        yield _degenerate(frame[1], frame[0])
    if LEFTOVER_LAYER in [layer for layer, _rects in cert.targets]:
        yield _malformed(f"{LEFTOVER_LAYER!r} is reserved for declared "
                         "leftovers", LEFTOVER_LAYER)
    seen: set[str] = set()
    for piece in cert.pieces:
        if type(piece) is not tuple or len(piece) != 5:
            yield _typed("a piece", [piece], tuple, size=5)
        piece_id, source_layer, rects, transform, dest = piece
        if type(transform) is not tuple or len(transform) != 4:
            yield _typed("a transform", [transform], tuple, size=4)
        turns, reflect, dx, dy = transform
        if not (type(dx) is type(dy) is tuple and len(dx) == len(dy) == 2):
            yield _typed("a point", [dx, dy], tuple, size=2)
        if not (type(dx[0]) is type(dx[1]) is type(dy[0]) is type(dy[1]) is int):
            yield _typed("a coordinate", [*dx, *dy], int)
        if not (type(piece_id) is type(source_layer) is type(dest) is str
                and type(reflect) is bool):  # _typed for the message
            yield _typed("a piece id", [piece_id], str)
            yield _typed("a layer id", [source_layer, dest], str)
            yield _typed("reflect", [reflect], bool)
        if piece_id in seen:
            yield _malformed(f"duplicate piece id {bounded(repr(piece_id))}")
        seen.add(piece_id)
        if type(turns) is not int or not 0 <= turns <= 3:
            yield _malformed(f"piece {bounded(repr(piece_id))}: quarter_turns "
                             f"must be 0..3, got {bounded(str(turns))}")
        yield _degenerate(rects, source_layer, piece_id)
        if not rects:
            yield _malformed(f"piece {bounded(repr(piece_id))} has an empty "
                             "source region", source_layer)


def _scan(cert: LatticeCertificate) -> tuple[Optional[Failure], int, int]:
    """The verdict on any input: structure, then source disjointness per
    source layer, then exact cover per destination layer, in sorted layer
    order: the first failure (or None), with the layers and cells scanned.
    Each destination layer's pieces are placed just before its cover scan,
    so one layer's placed rects exist at a time."""
    failure = next(filter(None, _defects(cert)), None)
    if failure is not None:
        return failure, 0, 0
    by_source: dict[str, list[LatticeRect]] = {}
    by_dest: dict[str, list[Piece]] = {}
    for piece in cert.pieces:
        by_source.setdefault(piece[1], []).extend(piece[2])
        by_dest.setdefault(piece[4], []).append(piece)
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
        # placed in the call, so no layer's placed rects outlive its scan
        failure, scanned = _check_layer_cover(layer, [
            r for _id, _source, rects, t, _dest in by_dest.get(layer, ())
            for r in _place(rects, t)], target_map.get(layer, []))
        layers += 1
        cells += scanned
        if failure is not None:
            return failure, layers, cells
    return None, layers, cells
