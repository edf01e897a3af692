"""Generators for every cut-and-paste construction.

Each construction has one builder, ``_<name>(n)``, of the kernel's own data
(int pairs over D = 6, region labels beside them), which the pipeline checks
as it is; the public ``<name>(n)`` returns its ``DissectionCertificate`` view.
Layout conventions:

* Staircase pieces ("rows m..n") occupy row j at [0, j] x [n-j, n-j+1],
  so the longest row sits at the bottom.
* The almost-square assembly with parameters (m, n) fills the
  (n+1) x (n+1) frame with an m x m square at the top left (``_square``),
  a row staircase at the bottom left and a column staircase hanging from
  height n on the right (``_stairs``), leaving a 1 x (n+1-m) gap at the
  right end of the top row.
* Grid layouts address sub-puzzles row-major with row 0 at the top.

Cell-level generation is capped at the n that ``kernel.CONSTRUCTIONS``
gives for each construction; beyond the caps only the arithmetic
identities run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Sequence

from .._nogc import nogc
from ..exact import strip_root
from ..figurate import IdentityReport, _naturals, evaluate_identity
from .checker import CheckReport, check_certificate, cover_failure
from .geometry import (DissectionCertificate, LabelledLattice,
                       certificate_from_lattice)
from ..kernel import (CONSTRUCTIONS, LEFTOVER_LAYER, LatticeCertificate,
                      LatticeRect, Point, Transform, bounded)

#: The common denominator of every generated coordinate: k + s*x or a half.
D = 6
#: The scissor-cut width x = ``strip_root()``, as a lattice point over D.
X = (D * strip_root()).triple[:2]


class UnsupportedN(ValueError):
    """n is outside the supported cell-level generation range."""


class StageCheckError(RuntimeError):
    """A pipeline stage failed verification; carries the stage name and
    the failing report: a certificate's or interface's ``CheckReport``, or
    an identity's ``IdentityReport``, which names both sides."""

    def __init__(self, stage: str, report: CheckReport | IdentityReport) -> None:
        super().__init__(f"stage {stage!r} failed: {report}")
        self.stage = stage
        self.report = report


def _require(construction: str, n: int) -> None:
    _naturals(f"{construction}: ", 1, UnsupportedN, n=n)
    cap = CONSTRUCTIONS[construction]
    if n > cap:
        raise UnsupportedN(f"{construction}: cell-level generation supports "
                           f"n <= {cap}, got {bounded(n)}")


@cache
def _at(k: int, s: int = 0) -> Point:
    """k + s*x as a lattice point, one tuple per value."""
    return (D * k + X[0] * s, X[1] * s)


def _box(x: int, y: int, w: int, h: int) -> LatticeRect:
    """The rect [x, x + w] x [y, y + h] of ints."""
    return _at(x), _at(y), _at(x + w), _at(y + h)


def _shift(dx: int, dy: int, quarter_turns: int = 0) -> Transform:
    return quarter_turns, False, _at(dx), _at(dy)


def _new(construction: str, n: int) -> LabelledLattice:
    _require(construction, n)
    return LabelledLattice(LatticeCertificate(construction, n, [], [], [], D),
                           [], [])


def _piece(out: LabelledLattice, piece_id: str, layer: str, label: str,
           rects: Sequence[LatticeRect], transform: Transform = _shift(0, 0),
           dest: str | None = None) -> None:
    out.cert.pieces.append((piece_id, layer, rects, transform, dest or layer))
    out.labels.append(label)


def _viewed(core: Callable[[int], LabelledLattice],
            ) -> Callable[[int], DissectionCertificate]:
    """The public builder of ``core``'s certificate, as objects, and its ``core``."""
    def build(n: int) -> DissectionCertificate:
        return certificate_from_lattice(core(n))
    build.__name__ = build.__qualname__ = core.__name__.lstrip("_")
    build.__doc__ = core.__doc__
    build.core = core  # type: ignore[attr-defined]
    return build


def _stair_rows(m: int, n: int, ox: int, oy: int) -> list[LatticeRect]:
    return [_box(ox, oy + n - j, j, 1) for j in range(m, n + 1)]


def _stairs(out: LabelledLattice, prefix: str, layer: str, m: int, n: int, ox: int,
            oy: int) -> None:
    """The two staircases of the almost-square (m, n) at frame origin
    (ox, oy), in place: rows m..n, then columns m..n."""
    _piece(out, f"{prefix}/stair_a", layer, "stair_a", _stair_rows(m, n, ox, oy))
    _piece(out, f"{prefix}/stair_b", layer, "stair_b",
           [_box(ox + j, oy + n - j, 1, j) for j in range(m, n + 1)])


def _square(out: LabelledLattice, prefix: str, layer: str, label: str, m: int, n: int,
            ox: int, oy: int) -> None:
    """The m x m square of the almost-square (m, n) at frame origin
    (ox, oy), in place."""
    _piece(out, f"{prefix}/square", layer, label, [_box(ox, oy + n + 1 - m, m, m)])


# -- triangular numbers: two staircases make a rectangle ------------------


def _gauss_rectangle(n: int) -> LabelledLattice:
    """Two t_n staircases, one rotated half a turn, tile n+1 wide x n tall."""
    out = _new("GAUSS_RECT", n)
    x_target = 2 * (n + 2)
    _piece(out, "GAUSS_RECT/plane/a", "plane", "tri_a", _stair_rows(1, n, 0, 0),
           _shift(x_target, 0))
    _piece(out, "GAUSS_RECT/plane/b", "plane", "tri_b",
           _stair_rows(1, n, n + 2, 0), _shift(x_target + 2 * n + 3, n, 2))
    out.cert.targets.append(("plane", [_box(x_target, 0, n + 1, n)]))
    return out


gauss_rectangle = _viewed(_gauss_rectangle)


# -- three pyramids in 2D: almost-squares plus the half-row swap ----------


def _three_pyramids_2d(n: int) -> LabelledLattice:
    """n almost-square layers levelled into (n+1) x (n+1/2) rectangles.

    Layer m pairs with layer n+1-m: the top half-row of its square slides
    into the partner's top-row gap (the middle layer of an odd n swaps
    with itself).  Total area 3 * S_2(n).
    """
    out = _new("THREE_PYR_2D", n)
    half = D // 2
    cut = (D * n + half, 0)  # n + 1/2
    for m in range(1, n + 1):
        layer = f"layer/{m}"
        prefix = f"THREE_PYR_2D/{layer}"
        _stairs(out, prefix, layer, m, n, 0, 0)
        # the square, cut at height n + 1/2: its body stays, and its top
        # half-row moves into the partner layer's gap band, x in
        # [partner, n+1] and y in [n, n+1/2]
        _piece(out, f"{prefix}/square", layer, "main_square",
               [(_at(0), _at(n + 1 - m), _at(m), cut)])
        partner = n + 1 - m
        _piece(out, f"{prefix}/halfrow", layer, "main_square",
               [(_at(0), cut, _at(m), _at(n + 1))],
               (0, False, _at(partner), (-half, 0)), f"layer/{partner}")
        out.cert.targets.append((layer, [(_at(0), _at(0), _at(n + 1), cut)]))
    return out


three_pyramids_2d = _viewed(_three_pyramids_2d)


# -- the 4D Nicomachus puzzle in 2D sections ------------------------------


def _grid_origin(r: int, s: int, n: int) -> tuple[int, int]:
    """Frame origin of sub-puzzle (row r, column s); row 0 sits on top."""
    return (s - 1) * (n + 1), (n - r) * (n + 1)


def _subpuzzle_square_label(r: int, s: int) -> str:
    return "main_green" if r < s else "square_orange"


def _green_sweep_placements(out: LabelledLattice, layer: str, n: int,
                            lowest: int) -> None:
    """Relocate the top-row main-section squares into the strip gaps.

    The square of side u (u = lowest..n) is cut into unit cells; cell
    (a, b) fills the gap cell [u, u+1] x [n, n+1] of sub-puzzle
    (b+1, a+1).  This realises the shrinking-array sweep: the largest
    square fills every corner gap, the next one the gaps of the reduced
    array, and so on.
    """
    prefix = f"{out.cert.construction}/{layer}/row0"
    oy0 = n * (n + 1)
    for u in range(lowest, n + 1):
        oxu = (u - 1) * (n + 1)
        for a in range(u):
            for b in range(u):
                dest_x, dest_y = _grid_origin(b + 1, a + 1, n)
                _piece(out, f"{prefix}/{u}/{a},{b}", layer, "main_green",
                       [_box(oxu + a, oy0 + b, 1, 1)],
                       _shift(dest_x + u - (oxu + a), dest_y + n - (oy0 + b)))


def _nicomachus_4d_2d(n: int) -> LabelledLattice:
    """The sum-of-cubes puzzle: (n+1) x n sub-puzzles collapse to an
    n x n array of (n+1) x (n+1) rectangles; total area 4 * S_3(n)."""
    out = _new("NICOMACHUS_4D_2D", n)
    layer = "grid"
    for r in range(1, n + 1):
        for s in range(1, n + 1):
            ox, oy = _grid_origin(r, s, n)
            m = max(r, s)
            prefix = f"NICOMACHUS_4D_2D/{layer}/{r},{s}"
            _stairs(out, prefix, layer, m, n, ox, oy)
            _square(out, prefix, layer, _subpuzzle_square_label(r, s), m, n,
                    ox, oy)
            out.cert.targets.append((layer, [_box(ox, oy, n + 1, n + 1)]))
    _green_sweep_placements(out, layer, n, 1)
    return out


nicomachus_4d_2d = _viewed(_nicomachus_4d_2d)


# -- five 5D pyramids ------------------------------------------------------


def excess_corner_layout(n: int) -> list[tuple[int, int, int]]:
    """Slots of the excess layer: (i, j, k) where the square of side
    k = max(i, j) + 1 sits at (i*(n+1), j*(n+1)).  Ring k holds its 2k-1
    squares at the slots with max(i, j) = k - 1."""
    _require("FIVE_PYR_LAYERS", n)
    return [(i, j, max(i, j) + 1) for i in range(n) for j in range(n)]


def _five_pyramids_layers(n: int) -> LabelledLattice:
    """Assemble five 5D pyramids through their layered 2D sections.

    Layer t keeps the Nicomachus inventory with all squares of side < t
    and staircase steps shorter than t removed; the missing t x t blocks
    are filled by the fifth pyramid's section squares and the strip gaps
    by the surviving top-row squares.  The 2t-1 unused fifth-pyramid
    squares of each section form the excess corner layer, so the
    certificate realises 5*S_4(n) = n * n^2(n+1)^2 + sum (2k-1)k^2.
    """
    out = _new("FIVE_PYR_LAYERS", n)
    pitch = n + 1
    for t in range(1, n + 1):
        layer = f"layer/{t}"
        for r in range(1, n + 1):
            for s in range(1, n + 1):
                ox, oy = _grid_origin(r, s, n)
                m = max(r, s)
                prefix = f"FIVE_PYR_LAYERS/{layer}/{r},{s}"
                # below t the square is a hole, filled by a fifth-pyramid
                # block, and the stairs start at row t
                if m >= t:
                    _square(out, prefix, layer, _subpuzzle_square_label(r, s),
                            m, n, ox, oy)
                _stairs(out, prefix, layer, max(m, t), n, ox, oy)
                out.cert.targets.append((layer, [_box(ox, oy, n + 1, n + 1)]))
        _green_sweep_placements(out, layer, n, t)
    # fifth pyramid: section k is a k x k array of side-k squares
    for k in range(1, n + 1):
        x0 = sum(u * u + 1 for u in range(1, k))
        for a in range(k):
            for b in range(k):
                if a <= k - 2 and b <= k - 2:
                    dest_layer = f"layer/{k}"
                    ox, oy = _grid_origin(b + 1, a + 1, n)
                    dx = ox - (x0 + a * k)
                    dy = oy + (n + 1 - k) - b * k
                else:
                    dest_layer = "excess"
                    dx = a * pitch - (x0 + a * k)
                    dy = b * pitch - b * k
                _piece(out, f"FIVE_PYR_LAYERS/fifth/{k}/{a},{b}", "fifth",
                       "fifth_pink", [_box(x0 + a * k, b * k, k, k)],
                       _shift(dx, dy), dest_layer)
    for i, j, k in excess_corner_layout(n):
        out.cert.targets.append(("excess", [_box(i * pitch, j * pitch, k, k)]))
    return out


five_pyramids_layers = _viewed(_five_pyramids_layers)


# -- step 2: peel one row off every rectangle ------------------------------


def _step2_reshape(n: int) -> LabelledLattice:
    """Turn each layer's n x n array of (n+1)-squares into an n x (n+1)
    array of (n+1)-wide, n-tall rectangles by restacking the peeled rows."""
    out = _new("STEP2_RESHAPE", n)
    for t in range(1, n + 1):
        layer = f"layer/{t}"
        for row in range(n):
            for col in range(n):
                x, y = col * (n + 1), row * (n + 1)
                prefix = f"STEP2_RESHAPE/{layer}/{row},{col}"
                _piece(out, f"{prefix}/body", layer, "body",
                       [_box(x, y, n + 1, n)], _shift(0, -row))
                _piece(out, f"{prefix}/strip", layer, "row_strip",
                       [_box(x, y + n, n + 1, 1)],
                       _shift(0, n * n + row - (y + n)))
        for row in range(n + 1):
            for col in range(n):
                out.cert.targets.append(
                    (layer, [_box(col * (n + 1), row * n, n + 1, n)]))
    return out


step2_reshape = _viewed(_step2_reshape)


# -- step 3: the scissor cut of width x ------------------------------------


def _scissor_cut(out: LabelledLattice, n: int, t: int, row: int, col: int) -> None:
    layer = f"layer/{t}"
    sx, sy = col * (n + 1), row * n
    dest_x = col * (n + 2)
    lx, ly = 2 * (row * n + col), 2 * (t - 1)
    prefix = f"STEP3_SCISSOR/{layer}/{row},{col}"
    cut = _at(sy + n, -1)  # the cut's height, sy + n - x
    top = _at(sy + n)
    _piece(out, f"{prefix}/body", layer, "body",
           [(_at(sx), _at(sy), _at(sx + n + 1), cut)], _shift(dest_x - sx, 0))
    # quarter turn sends [x1,x2]x[y1,y2] to [-y2,-y1]x[x1,x2]
    _piece(out, f"{prefix}/a", layer, "strip_a",
           [(_at(sx), cut, _at(sx + n, -1), top)],
           _shift(dest_x + (n + 1) + (sy + n), sy - sx, 1))
    aside = (0, False, _at(lx - sx - n, 1), _at(ly - sy - n, 1))
    _piece(out, f"{prefix}/b", layer, "left_b",
           [(_at(sx + n, -1), cut, _at(sx + n + 1, -1), top)], aside,
           LEFTOVER_LAYER)
    _piece(out, f"{prefix}/c", layer, "left_c",
           [(_at(sx + n + 1, -1), cut, _at(sx + n + 1), top)], aside,
           LEFTOVER_LAYER)
    out.cert.leftovers.extend(([(_at(lx), _at(ly), _at(lx + 1), _at(ly, 1))],
                               [(_at(lx + 1), _at(ly), _at(lx + 1, 1), _at(ly, 1))]))
    out.leftover_labels.extend(("left_b", "left_c"))
    out.cert.targets.append(
        (layer, [(_at(dest_x), _at(sy), _at(dest_x + n + 1, 1), cut)]))


def scissor_rectangle(n: int) -> LabelledLattice:
    """The first cut of ``_step3_scissor(n)``, the one the STEP3_SCISSOR
    figure draws: the strip of width x off rectangle (0, 0) of layer 1, its
    pieces (body, A, B, C), the leftovers B and C are set aside on, and its
    (n+1+x) x (n-x) target.  UnsupportedN beyond STEP3_SCISSOR's cap."""
    out = _new("STEP3_SCISSOR", n)
    _scissor_cut(out, n, 1, 0, 0)
    return out


def _step3_scissor(n: int) -> LabelledLattice:
    """Cut a strip of irrational width x off every rectangle.

    The strip splits into A (length n-x, rotated upright onto the right
    edge), B (1 x x) and C (x x x); B and C are set aside as leftovers of
    combined area x + x^2 = 1/3 per rectangle.  Each rectangle becomes
    (n+1+x) wide x (n-x) tall, whose sides multiply to n^2 + n - 1/3.
    """
    out = _new("STEP3_SCISSOR", n)
    for t in range(1, n + 1):
        for row in range(n + 1):
            for col in range(n):
                _scissor_cut(out, n, t, row, col)
    return out


step3_scissor = _viewed(_step3_scissor)


# -- step 4: the top layer and its doubling --------------------------------


def _ring_slots(k: int) -> list[tuple[int, int]]:
    """Corner-ring slots with max(i, j) = k - 1, in lexicographic order."""
    return sorted({(i, k - 1) for i in range(k)} | {(k - 1, j) for j in range(k)})


def _gnomon_cells(k: int) -> list[tuple[int, int]]:
    """Unit cells of the ring-k gnomon: the vertical arm bottom-up, then
    the horizontal arm left to right (2k-1 cells)."""
    return [(k - 1, y) for y in range(k)] + [(x, k - 1) for x in range(k - 1)]


def _dual_slot_targets(n: int, lowest: int,
                       ) -> list[tuple[int, int, list[LatticeRect]]]:
    """Rects per square-of-corners slot for the rings k = lowest..n.

    Slot (i, j) holds the gnomons of every ring k >= lowest with
    k > max(i, j); their union is the n x n square minus the square of
    side max(i, j, lowest - 1) at the bottom left.  The bijections use
    them as targets and the overlap certificate as its copy B.
    """
    out = []
    for i in range(n):
        for j in range(n):
            m = max(i, j, lowest - 1)
            x, y = i * n, j * n
            if m == 0:
                rects = [_box(x, y, n, n)]
            else:
                rects = [_box(x + m, y, n - m, m), _box(x, y + m, n, n - m)]
            out.append((i, j, rects))
    return out


def _corner_square_bijection(n: int, lowest: int,
                             construction_tag: str) -> LabelledLattice:
    """Cell-level bijection from corner-of-squares to square-of-corners, on
    rings k = lowest..n.

    The square with ring index sigma and local cell (a, b) maps to the
    gnomon cell sigma inside dual slot (a, b): swapping "which entry" with
    "which cell" is the commutativity of the two figurate roles.
    """
    out = _new("STEP4_TOP", n)
    pitch = n + 1
    for k in range(lowest, n + 1):
        cells = _gnomon_cells(k)
        for sigma, (i, j) in enumerate(_ring_slots(k)):
            gx, gy = cells[sigma]
            for a in range(k):
                for b in range(k):
                    x, y = i * pitch + a, j * pitch + b
                    _piece(out, f"{construction_tag}/{k}/{sigma}/{a},{b}",
                           "corner", "corner_sq", [_box(x, y, 1, 1)],
                           _shift(a * n + gx - x, b * n + gy - y), "dual")
    for _i, _j, rects in _dual_slot_targets(n, lowest):
        out.cert.targets.extend(("dual", [r]) for r in rects)
    return out


def _step4_overlap(n: int) -> LabelledLattice:
    """Two top-layer copies plus two sum-of-squares deficits tile the
    (n+1) x (n+1) arrangement of n x n squares (the doubling identity)."""
    out = _new("STEP4_TOP", n)
    pitch = n + 1
    # copy B: the square-of-corners layer, shifted one slot up and right
    for i, j, rects in _dual_slot_targets(n, 1):
        _piece(out, f"STEP4_TOP/overlap/dual/{i},{j}", "dual", "dual_l", rects,
               _shift(n, n), "doubled")

    # side-k pieces: 2k-1 corner-ring squares plus one square from each
    # deficit copy; k < n fills the copy-B holes, k = n the empty slots.
    deficit_x = [sum(u + 1 for u in range(1, k)) for k in range(n + 1)]
    for k in range(1, n + 1):
        # (piece id, source layer, label, lower left corner of the square)
        pieces: list[tuple[str, str, str, int, int]] = []
        for sigma, (i, j) in enumerate(_ring_slots(k)):
            pieces.append((f"STEP4_TOP/overlap/corner/{k}/{sigma}", "corner",
                           "corner_sq", i * pitch, j * pitch))
        for copy in (1, 2):
            pieces.append((f"STEP4_TOP/overlap/deficit{copy}/{k}",
                           f"deficit/{copy}", "deficit", deficit_x[k], 0))
        if k < n:  # the holes of copy B: ring k + 1, one slot up and right
            dests = [((i + 1) * n, (j + 1) * n) for i, j in _ring_slots(k + 1)]
        else:
            empties = sorted({(i, 0) for i in range(n + 1)}
                             | {(0, j) for j in range(n + 1)})
            dests = [(i * n, j * n) for i, j in empties]
        assert len(pieces) == len(dests)
        for (piece_id, src_layer, label, sx, sy), (dest_x, dest_y) in zip(
                pieces, dests):
            _piece(out, piece_id, src_layer, label, [_box(sx, sy, k, k)],
                   _shift(dest_x - sx, dest_y - sy), "doubled")

    for i in range(n + 1):
        for j in range(n + 1):
            out.cert.targets.append(("doubled", [_box(i * n, j * n, n, n)]))
    return out


step4_overlap = _viewed(_step4_overlap)


def _step4_bijection(n: int) -> LabelledLattice:
    """The corner/square bijection in layered form: rings k = 1..n."""
    return _corner_square_bijection(n, 1, "STEP4_TOP/layered")


step4_bijection = _viewed(_step4_bijection)


def _step4_bijection_full(n: int) -> LabelledLattice:
    """The corner/square bijection at full scale: ring n alone."""
    return _corner_square_bijection(n, n, "STEP4_TOP/full")


step4_bijection_full = _viewed(_step4_bijection_full)


@dataclass(frozen=True)
class TopLayerResult:
    """Step-4 artifacts: the corner/square commutativity bijections (in
    the layered excess form and at full scale) and the doubling-overlap
    certificate."""

    bijection: DissectionCertificate
    bijection_full_scale: DissectionCertificate
    overlap: DissectionCertificate

    def certificates(self) -> tuple[DissectionCertificate, ...]:
        return (self.bijection, self.bijection_full_scale, self.overlap)


def step4_top_layer(n: int) -> TopLayerResult:
    return TopLayerResult(step4_bijection(n), step4_bijection_full(n),
                          step4_overlap(n))


# -- the full pipeline ------------------------------------------------------


def _layer_targets(cert: LatticeCertificate, layer: str) -> list[LatticeRect]:
    return [r for lid, rects in cert.targets if lid == layer for r in rects]


def _layer_sources(cert: LatticeCertificate, layer: str) -> list[LatticeRect]:
    return [r for _id, source_layer, rects, _t, _dest in cert.pieces
            if source_layer == layer for r in rects]


def _kept(stage: str, build: Callable[[int], LabelledLattice], n: int,
          sources: Sequence[str] = (), targets: Sequence[str] = (),
          ) -> tuple[dict[str, list[LatticeRect]], dict[str, list[LatticeRect]]]:
    """Check ``build(n)``, then keep only the source rects of the layers
    ``sources`` and the target rects of the layers ``targets``, by layer:
    the rest of the certificate is dropped before the next stage is built."""
    cert = build(n).cert
    report = check_certificate(cert)
    if not report.ok:
        raise StageCheckError(stage, report)
    return ({layer: _layer_sources(cert, layer) for layer in sources},
            {layer: _layer_targets(cert, layer) for layer in targets})


def _link(stage: str, layer: str, pieces: list[LatticeRect],
          targets: list[LatticeRect]) -> None:
    report = cover_failure(layer, pieces, targets, D)
    if report is not None:
        raise StageCheckError(stage, report)


@nogc
def full_theorem_report(n: int) -> IdentityReport:
    """Run the pipeline, check every certificate and stage interface, and
    confirm 5*S_4(n) = n(n+1) * (n-x)(n+1+x) * (n+1/2) exactly.

    Stages and links are checked on lattice data: no certificate object is
    made.  Every stage is checked before any link, in the paper's order,
    and right after its check a stage keeps only the rects its links read.
    The full-scale bijection, which no link reads, is left to criterion 06.
    A larger n than FIVE_PYR_LAYERS' cap raises ``UnsupportedN`` before any
    stage is built; there the factored form is the registry's FINAL_ASSEMBLY.
    Raises ``StageCheckError`` naming the failing stage or link.
    """
    _require("FIVE_PYR_LAYERS", n)
    layers = [f"layer/{t}" for t in range(1, n + 1)]
    _, five = _kept("five_pyramids_layers", _five_pyramids_layers, n,
                    targets=[*layers, "excess"])
    step2, step2_targets = _kept("step2_reshape", _step2_reshape, n, layers, layers)
    step3, _ = _kept("step3_scissor", _step3_scissor, n, layers)
    bijection, bijection_targets = _kept(
        "step4_bijection", _step4_bijection, n, ["corner"], ["dual"])
    overlap, _ = _kept("step4_overlap", _step4_overlap, n, ["corner", "dual"])
    # stage interfaces: each stage's sources must retile the previous stage's
    # targets, the excess layer must reappear as the corner copy of both
    # layered top-layer certificates, and the bijection's square-of-corners
    # must be the overlap's copy B.
    for layer in layers:
        _link(f"interface five->step2 {layer}", layer, step2[layer], five[layer])
        _link(f"interface step2->step3 {layer}", layer, step3[layer],
              step2_targets[layer])
    _link("interface excess->step4", "excess", overlap["corner"], five["excess"])
    _link("interface excess->step4 bijection", "excess", bijection["corner"],
          five["excess"])
    _link("interface step4 bijection->overlap", "dual", overlap["dual"],
          bijection_targets["dual"])
    for name in ("R_BALANCE", "TOP_LAYER_DOUBLE", "ARCHIMEDES_GEN", "SCISSOR_FACTOR"):
        report = evaluate_identity(name, {"n": n})
        if not report.holds:
            raise StageCheckError(f"identity {name}", report)
    return evaluate_identity("FINAL_ASSEMBLY", {"n": n})


# -- by name ------------------------------------------------------------------

#: construction name -> its generator (STEP4_TOP's: ``certificate_builders``)
_GENERATORS: dict[str, Callable[[int], DissectionCertificate]] = {
    "GAUSS_RECT": gauss_rectangle,
    "THREE_PYR_2D": three_pyramids_2d,
    "NICOMACHUS_4D_2D": nicomachus_4d_2d,
    "FIVE_PYR_LAYERS": five_pyramids_layers,
    "STEP2_RESHAPE": step2_reshape,
    "STEP3_SCISSOR": step3_scissor,
}


def certificate_builders(
        name: str) -> dict[str | None, Callable[[int], DissectionCertificate]]:
    """``name``'s certificate builders by variant, the default first; a
    construction with one certificate has the one variant ``None``.  Each
    builder raises UnsupportedN beyond the construction's cap."""
    if name == "STEP4_TOP":
        return {"overlap": step4_overlap, "bijection": step4_bijection,
                "bijection-full": step4_bijection_full}
    return {None: _GENERATORS[name]}
