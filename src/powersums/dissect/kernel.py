"""The trusted kernel of the certificate checker: structure checks, rigid
motions, the exact order of coordinates and the exact-cover scans.  It
imports only the standard library, so it can be audited apart from the code
that produces certificates and from ``QuadExt``.

Input is plain data: a + b*sqrt(21) is the int pair (a*D, b*D) over one
common denominator D of the whole certificate, and a rect is its corners
(x1, y1, x2, y2).  A certificate passes iff its construction is one of
``CONSTRUCTIONS`` with n at most its cap, its structure is sound, piece
sources are pairwise disjoint on every source layer, and on every
destination layer the placed pieces cover each grid cell inside the declared
targets exactly once and no cell outside them.  Declared leftovers act as
the target frame of the reserved ``leftover`` layer.
"""

from __future__ import annotations

from itertools import accumulate, chain, islice
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


def _typed(what: str, values: Sequence[object], kind: type | tuple[type, ...],
           size: Optional[int] = None) -> Iterator[Failure]:
    """A failure for the first of ``values`` not exactly a ``kind`` (or one
    of several kinds), of length ``size``, if any; the passing case costs
    only C-level loops."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if not set(map(type, values)) <= set(kinds) or (
            size is not None and not set(map(len, values)) <= {size}):
        bad = next(v for v in values
                   if type(v) not in kinds or size is not None and len(v) != size)
        shape = f"{'an' if kind is int else 'a'} " + " or ".join(
            k.__name__ for k in kinds) + ("" if size is None else f" of {size}")
        yield _malformed(f"{what} must be {shape}, got {bounded(repr(bad))}")


def _degenerate(rects: Iterable[LatticeRect]) -> bool:
    """True iff one of ``rects`` has a width or height <= 0."""
    for (x1a, x1b), (y1a, y1b), (x2a, x2b), (y2a, y2b) in rects:
        if not ((x2a > x1a if x1b == x2b  # no sqrt(21) part: no sign call
                 else lattice_sign(x2a - x1a, x2b - x1b) > 0)
                and (y2a > y1a if y1b == y2b
                     else lattice_sign(y2a - y1a, y2b - y1b) > 0)):
            return True
    return False


def _shape_defects(cert: LatticeCertificate) -> Iterator[Failure]:
    """Containers and tuples of the wrong shape, the first first: the
    pieces, targets and leftovers are lists or tuples, and so are the rects
    of each region (a one-shot iterator is not: the first pass would use it
    up and leave the scans nothing); pieces, targets, transforms, rects and
    points are tuples of 5, 2, 4, 4 and 2; and every coordinate is an int."""
    for field in ("pieces", "targets", "leftovers"):
        yield from _typed(field, [getattr(cert, field)], (list, tuple))
    yield from _typed("a piece", cert.pieces, tuple, 5)
    yield from _typed("a target", cert.targets, tuple, 2)
    _ids, _sources, rect_lists, transforms, _dests = list(zip(*cert.pieces)) or [()] * 5
    yield from _typed("a transform", transforms, tuple, 4)
    regions = [*rect_lists, *(rs for _l, rs in cert.targets), *cert.leftovers]
    yield from _typed("the rects of a region", regions, (list, tuple))
    rects = list(chain.from_iterable(regions))
    yield from _typed("a rect", rects, tuple, 4)
    points = list(chain.from_iterable((*rects, *(t[2:] for t in transforms))))
    yield from _typed("a point", points, tuple, 2)
    yield from _typed("a coordinate", list(chain.from_iterable(points)), int)


def _defects(cert: LatticeCertificate, built: bool) -> Iterator[Failure]:
    """Structural defects, the first first (each check relies on those
    before it): the construction, n, D, the shapes unless ``built``, a target
    or leftover rect with a side <= 0 on every input kind, the target layer
    ids, a target on the leftover layer, then piece by piece the types of
    the ids and ``reflect``, a repeated id, a bad quarter turn, and an empty
    or degenerate source."""
    name, n, d = cert.construction, cert.n, cert.denominator
    yield from _typed("the construction", [name], str)
    if name not in CONSTRUCTIONS:
        yield _malformed(f"unknown construction {bounded(repr(name))}")
    yield from _typed("n", [n], int)  # the wire walk refuses one too
    if n < 1:
        yield _malformed(f"n must be >= 1, got {bounded(str(n))}")
    if n > CONSTRUCTIONS[name]:
        yield _malformed(f"n must be <= {CONSTRUCTIONS[name]} for {name}, "
                         f"got {bounded(str(n))}")
    yield from _typed("the denominator", [d], int)
    if d < 1 or d.bit_length() > MAX_DENOMINATOR_BITS:
        yield _malformed(f"the denominator must be in 1..2**"
                         f"{MAX_DENOMINATOR_BITS} - 1, got {bounded(str(d))}")
    if not built:
        yield from _shape_defects(cert)
    # the walk refuses a side <= 0 in a document, but not in a
    # WireCertificate edited after it; a source's is checked per piece
    frames = (*cert.targets, *((LEFTOVER_LAYER, rs) for rs in cert.leftovers))
    for layer, rects in frames:
        if _degenerate(rects):
            yield _malformed("a target or leftover has a degenerate rectangle", layer)
    layers = [layer for layer, _rects in cert.targets]
    yield from _typed("a layer id", layers, str)
    if LEFTOVER_LAYER in layers:
        yield _malformed(f"{LEFTOVER_LAYER!r} is reserved for declared "
                         "leftovers", LEFTOVER_LAYER)
    seen: set[str] = set()
    for piece_id, source_layer, rects, (turns, reflect, _dx, _dy), dest in cert.pieces:
        if not (type(piece_id) is type(source_layer) is type(dest) is str
                and type(reflect) is bool):  # _typed for the message
            yield from _typed("a piece id", [piece_id], str)
            yield from _typed("a layer id", [source_layer, dest], str)
            yield from _typed("reflect", [reflect], bool)
        if piece_id in seen:
            yield _malformed(f"duplicate piece id {bounded(repr(piece_id))}")
        seen.add(piece_id)
        if type(turns) is not int or not 0 <= turns <= 3:
            yield _malformed(f"piece {bounded(repr(piece_id))}: quarter_turns "
                             f"must be 0..3, got {bounded(str(turns))}")
        if not rects:
            yield _malformed(f"piece {bounded(repr(piece_id))} has an empty "
                             "source region", source_layer)
        if _degenerate(rects):
            yield _malformed(f"piece {bounded(repr(piece_id))} has a "
                             "degenerate rectangle", source_layer)


def _scan(cert: LatticeCertificate, built: bool) -> tuple[Optional[Failure], int, int]:
    """The verdict: structure, then source disjointness per source layer,
    then exact cover per destination layer, in sorted layer order: the first
    failure (or None), with the layers and cells scanned to it.  ``built``
    skips the shape checks, for input whose tuples a front end built."""
    failure = next(_defects(cert, built), None)
    if failure is not None:
        return failure, 0, 0
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
