"""Generators for every cut-and-paste construction.

Each generator emits a ``DissectionCertificate`` whose pieces, rigid
transforms, targets and leftovers are then verified independently by the
exact-cover checker.  Layout conventions:

* Staircase pieces ("rows m..n") occupy row j at [0, j] x [n-j, n-j+1],
  so the longest row sits at the bottom.
* The almost-square assembly with parameters (m, n) fills the
  (n+1) x (n+1) frame with an m x m square at the top left (``_square``),
  a row staircase at the bottom left and a column staircase hanging from
  height n on the right (``_stairs``), leaving a 1 x (n+1-m) gap at the
  right end of the top row.
* Grid layouts address sub-puzzles row-major with row 0 at the top.

Cell-level generation is capped at the n that ``geometry.CONSTRUCTIONS``
gives for each construction; beyond the caps only the arithmetic
identities run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .._nogc import nogc
from ..exact import HALF, QuadExt, QuadLike, strip_root
from ..figurate import IdentityReport, evaluate_identity
from .checker import CheckReport, check_certificate, cover_failure, covers_exactly
from .geometry import (
    CONSTRUCTIONS,
    LEFTOVER_LAYER,
    DissectionCertificate,
    Placement,
    Rect,
    Region,
    RigidTransform,
    rect,
)
from .kernel import bounded

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
    if type(n) is not int:  # never coerce: a bool or 2.0 is not an n
        raise TypeError(f"{construction}: n must be an int, "
                        f"got {bounded(repr(n))}")
    cap = CONSTRUCTIONS[construction]
    if n < 1:
        raise UnsupportedN(f"{construction}: n must be >= 1, got {bounded(str(n))}")
    if n > cap:
        raise UnsupportedN(
            f"{construction}: cell-level generation supports n <= {cap}, "
            f"got {bounded(str(n))}"
        )


def _identity(piece_id: str, layer: str, region: Region) -> Placement:
    return Placement(piece_id, layer, region, RigidTransform(), layer)


def _translated(piece_id: str, src_layer: str, region: Region,
                dx: QuadLike, dy: QuadLike, dest_layer: str) -> Placement:
    return Placement(piece_id, src_layer, region,
                     RigidTransform.translation(dx, dy), dest_layer)


def _stair_rows(m: int, n: int, ox: QuadLike, oy: QuadLike, label: str) -> Region:
    rows = tuple(rect(ox, oy + (n - j), j, 1) for j in range(m, n + 1))
    return Region(label, rows)


def _stair_cols(m: int, n: int, ox: QuadLike, oy: QuadLike, label: str) -> Region:
    cols = tuple(rect(ox + j, oy + (n - j), 1, j) for j in range(m, n + 1))
    return Region(label, cols)


def _stairs(prefix: str, layer: str, m: int, n: int, ox: int,
            oy: int) -> list[Placement]:
    """The two staircases of the almost-square (m, n) at frame origin
    (ox, oy), in place: rows m..n, then columns m..n."""
    return [_identity(f"{prefix}/stair_a", layer,
                      _stair_rows(m, n, ox, oy, "stair_a")),
            _identity(f"{prefix}/stair_b", layer,
                      _stair_cols(m, n, ox, oy, "stair_b"))]


def _square(prefix: str, layer: str, label: str, m: int, n: int, ox: int,
            oy: int) -> Placement:
    """The m x m square of the almost-square (m, n) at frame origin
    (ox, oy), in place."""
    return _identity(f"{prefix}/square", layer,
                     Region(label, (rect(ox, oy + (n + 1 - m), m, m),)))


# -- triangular numbers: two staircases make a rectangle ------------------


def gauss_rectangle(n: int) -> DissectionCertificate:
    """Two t_n staircases, one rotated half a turn, tile n+1 wide x n tall."""
    _require("GAUSS_RECT", n)
    layer = "plane"
    x_b = n + 2
    x_target = 2 * (n + 2)
    tri_a = _stair_rows(1, n, QuadExt(0), QuadExt(0), "tri_a")
    tri_b = _stair_rows(1, n, QuadExt(x_b), QuadExt(0), "tri_b")
    placements = (
        _translated("GAUSS_RECT/plane/a", layer, tri_a,
                    QuadExt(x_target), QuadExt(0), layer),
        Placement(
            "GAUSS_RECT/plane/b", layer, tri_b,
            RigidTransform(quarter_turns=2, reflect=False,
                           dx=QuadExt(x_target + 2 * n + 3), dy=QuadExt(n)),
            layer,
        ),
    )
    target = Region("target", (rect(x_target, 0, n + 1, n),))
    return DissectionCertificate("GAUSS_RECT", n, placements,
                                 ((layer, target),), ())


# -- three pyramids in 2D: almost-squares plus the half-row swap ----------


def three_pyramids_2d(n: int) -> DissectionCertificate:
    """n almost-square layers levelled into (n+1) x (n+1/2) rectangles.

    Layer m pairs with layer n+1-m: the top half-row of its square slides
    into the partner's top-row gap (the middle layer of an odd n swaps
    with itself).  Total area 3 * S_2(n).
    """
    _require("THREE_PYR_2D", n)
    placements: list[Placement] = []
    targets: list[tuple[str, Region]] = []
    for m in range(1, n + 1):
        layer = f"layer/{m}"
        prefix = f"THREE_PYR_2D/{layer}"
        placements += _stairs(prefix, layer, m, n, 0, 0)
        # the square, cut at height n + 1/2: its body stays, and its top
        # half-row moves into the partner layer's gap band, x in
        # [partner, n+1] and y in [n, n+1/2]
        placements.append(_identity(f"{prefix}/square", layer, Region(
            "main_square", (rect(0, n + 1 - m, m, QuadExt(m) - HALF),))))
        partner = n + 1 - m
        placements.append(_translated(
            f"{prefix}/halfrow", layer,
            Region("main_square", (rect(0, QuadExt(n) + HALF, m, HALF),)),
            partner, -HALF, f"layer/{partner}"))
        targets.append((layer, Region("target",
                                      (rect(0, 0, n + 1, QuadExt(n) + HALF),))))
    return DissectionCertificate("THREE_PYR_2D", n, tuple(placements),
                                 tuple(targets), ())


# -- the 4D Nicomachus puzzle in 2D sections ------------------------------


def _grid_origin(r: int, s: int, n: int) -> tuple[int, int]:
    """Frame origin of sub-puzzle (row r, column s); row 0 sits on top."""
    return (s - 1) * (n + 1), (n - r) * (n + 1)


def _subpuzzle_square_label(r: int, s: int) -> str:
    return "main_green" if r < s else "square_orange"


def _green_sweep_placements(construction: str, layer: str, n: int,
                            lowest: int) -> list[Placement]:
    """Relocate the top-row main-section squares into the strip gaps.

    The square of side u (u = lowest..n) is cut into unit cells; cell
    (a, b) fills the gap cell [u, u+1] x [n, n+1] of sub-puzzle
    (b+1, a+1).  This realises the shrinking-array sweep: the largest
    square fills every corner gap, the next one the gaps of the reduced
    array, and so on.
    """
    oy0 = n * (n + 1)
    placements = []
    for u in range(lowest, n + 1):
        oxu = (u - 1) * (n + 1)
        for a in range(u):
            for b in range(u):
                src = Region("main_green", (rect(oxu + a, oy0 + b, 1, 1),))
                dest_x, dest_y = _grid_origin(b + 1, a + 1, n)
                placements.append(_translated(
                    f"{construction}/{layer}/row0/{u}/{a},{b}", layer, src,
                    dest_x + u - (oxu + a), dest_y + n - (oy0 + b), layer,
                ))
    return placements


def nicomachus_4d_2d(n: int) -> DissectionCertificate:
    """The sum-of-cubes puzzle: (n+1) x n sub-puzzles collapse to an
    n x n array of (n+1) x (n+1) rectangles; total area 4 * S_3(n)."""
    _require("NICOMACHUS_4D_2D", n)
    layer = "grid"
    placements: list[Placement] = []
    targets: list[tuple[str, Region]] = []
    for r in range(1, n + 1):
        for s in range(1, n + 1):
            ox, oy = _grid_origin(r, s, n)
            m = max(r, s)
            prefix = f"NICOMACHUS_4D_2D/{layer}/{r},{s}"
            placements += _stairs(prefix, layer, m, n, ox, oy)
            placements.append(_square(prefix, layer,
                                      _subpuzzle_square_label(r, s), m, n,
                                      ox, oy))
            targets.append((layer, Region("target", (rect(ox, oy, n + 1, n + 1),))))
    placements.extend(_green_sweep_placements("NICOMACHUS_4D_2D", layer, n, 1))
    return DissectionCertificate("NICOMACHUS_4D_2D", n, tuple(placements),
                                 tuple(targets), ())


# -- five 5D pyramids ------------------------------------------------------


def excess_corner_layout(n: int) -> list[tuple[int, int, int]]:
    """Slots of the excess layer: (i, j, k) where the square of side
    k = max(i, j) + 1 sits at (i*(n+1), j*(n+1)).  Ring k holds its 2k-1
    squares at the slots with max(i, j) = k - 1."""
    return [(i, j, max(i, j) + 1) for i in range(n) for j in range(n)]


def _fifth_section_origin(k: int) -> int:
    return sum(u * u + 1 for u in range(1, k))


def five_pyramids_layers(n: int) -> DissectionCertificate:
    """Assemble five 5D pyramids through their layered 2D sections.

    Layer t keeps the Nicomachus inventory with all squares of side < t
    and staircase steps shorter than t removed; the missing t x t blocks
    are filled by the fifth pyramid's section squares and the strip gaps
    by the surviving top-row squares.  The 2t-1 unused fifth-pyramid
    squares of each section form the excess corner layer, so the
    certificate realises 5*S_4(n) = n * n^2(n+1)^2 + sum (2k-1)k^2.
    """
    _require("FIVE_PYR_LAYERS", n)
    pitch = n + 1
    placements: list[Placement] = []
    targets: list[tuple[str, Region]] = []
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
                    placements.append(_square(prefix, layer,
                                              _subpuzzle_square_label(r, s),
                                              m, n, ox, oy))
                placements += _stairs(prefix, layer, max(m, t), n, ox, oy)
                targets.append((layer,
                                Region("target", (rect(ox, oy, n + 1, n + 1),))))
        placements.extend(
            _green_sweep_placements("FIVE_PYR_LAYERS", layer, n, t))
    # fifth pyramid: section k is a k x k array of side-k squares
    for k in range(1, n + 1):
        x0 = _fifth_section_origin(k)
        for a in range(k):
            for b in range(k):
                src = Region("fifth_pink",
                             (rect(x0 + a * k, b * k, k, k),))
                piece_id = f"FIVE_PYR_LAYERS/fifth/{k}/{a},{b}"
                if a <= k - 2 and b <= k - 2:
                    dest_layer = f"layer/{k}"
                    ox, oy = _grid_origin(b + 1, a + 1, n)
                    dx = ox - (x0 + a * k)
                    dy = oy + (n + 1 - k) - b * k
                else:
                    dest_layer = "excess"
                    dx = a * pitch - (x0 + a * k)
                    dy = b * pitch - b * k
                placements.append(_translated(piece_id, "fifth", src,
                                              dx, dy, dest_layer))
    for i, j, k in excess_corner_layout(n):
        targets.append(("excess",
                        Region("target", (rect(i * pitch, j * pitch, k, k),))))
    return DissectionCertificate("FIVE_PYR_LAYERS", n, tuple(placements),
                                 tuple(targets), ())


# -- step 2: peel one row off every rectangle ------------------------------


def step2_reshape(n: int) -> DissectionCertificate:
    """Turn each layer's n x n array of (n+1)-squares into an n x (n+1)
    array of (n+1)-wide, n-tall rectangles by restacking the peeled rows."""
    _require("STEP2_RESHAPE", n)
    placements: list[Placement] = []
    targets: list[tuple[str, Region]] = []
    for t in range(1, n + 1):
        layer = f"layer/{t}"
        for row in range(n):
            for col in range(n):
                x, y = col * (n + 1), row * (n + 1)
                prefix = f"STEP2_RESHAPE/{layer}/{row},{col}"
                body = Region("body", (rect(x, y, n + 1, n),))
                placements.append(_translated(f"{prefix}/body", layer, body,
                                              0, -row, layer))
                strip = Region("row_strip", (rect(x, y + n, n + 1, 1),))
                placements.append(_translated(
                    f"{prefix}/strip", layer, strip,
                    0, n * n + row - (y + n), layer))
        for row in range(n + 1):
            for col in range(n):
                targets.append((layer, Region(
                    "target", (rect(col * (n + 1), row * n, n + 1, n),))))
    return DissectionCertificate("STEP2_RESHAPE", n, tuple(placements),
                                 tuple(targets), ())


# -- step 3: the scissor cut of width x ------------------------------------

_STRIP_WIDTH = strip_root()  # x, made once for every rectangle


def scissor_rectangle(n: int, t: int, row: int, col: int) -> tuple[
        list[Placement], list[Region], tuple[str, Region]]:
    """Cut the strip of width x off rectangle (row, col) of layer t: its
    pieces (body, A, B, C), the leftovers B and C are set aside on, and its
    (n+1+x) x (n-x) target.  UnsupportedN beyond STEP3_SCISSOR's cap."""
    _require("STEP3_SCISSOR", n)
    x = _STRIP_WIDTH
    layer = f"layer/{t}"
    sx, sy = QuadExt(col * (n + 1)), QuadExt(row * n)
    dest_x = QuadExt(col * (n + 2))
    idx = row * n + col
    prefix = f"STEP3_SCISSOR/{layer}/{row},{col}"
    body = Region("body", (rect(sx, sy, n + 1, QuadExt(n) - x),))
    seg_a = Region("strip_a", (Rect(sx, sy + n - x, QuadExt(n) - x, x),))
    lx, ly = QuadExt(2 * idx), QuadExt(2 * (t - 1))
    seg_b = Region("left_b", (Rect(sx + n - x, sy + n - x, QuadExt(1), x),))
    seg_c = Region("left_c", (Rect(sx + n + 1 - x, sy + n - x, x, x),))
    pieces = [
        _translated(f"{prefix}/body", layer, body, dest_x - sx, QuadExt(0),
                    layer),
        # quarter turn sends [x1,x2]x[y1,y2] to [-y2,-y1]x[x1,x2]
        Placement(f"{prefix}/a", layer, seg_a,
                  RigidTransform(quarter_turns=1, reflect=False,
                                 dx=dest_x + (n + 1) + (sy + n),
                                 dy=-(sx - sy)),
                  layer),
        _translated(f"{prefix}/b", layer, seg_b,
                    lx - (sx + n - x), ly - (sy + n - x), LEFTOVER_LAYER),
        _translated(f"{prefix}/c", layer, seg_c,
                    lx + 1 - (sx + n + 1 - x), ly - (sy + n - x),
                    LEFTOVER_LAYER),
    ]
    leftovers = [Region("left_b", (Rect(lx, ly, QuadExt(1), x),)),
                 Region("left_c", (Rect(lx + 1, ly, x, x),))]
    target = Region("target", (Rect(dest_x, sy, QuadExt(n + 1) + x,
                                    QuadExt(n) - x),))
    return pieces, leftovers, (layer, target)


def step3_scissor(n: int) -> DissectionCertificate:
    """Cut a strip of irrational width x off every rectangle.

    The strip splits into A (length n-x, rotated upright onto the right
    edge), B (1 x x) and C (x x x); B and C are set aside as leftovers of
    combined area x + x^2 = 1/3 per rectangle.  Each rectangle becomes
    (n+1+x) wide x (n-x) tall, whose sides multiply to n^2 + n - 1/3.
    """
    _require("STEP3_SCISSOR", n)
    cut = [scissor_rectangle(n, t, row, col) for t in range(1, n + 1)
           for row in range(n + 1) for col in range(n)]
    return DissectionCertificate(
        "STEP3_SCISSOR", n, tuple(p for pieces, _, _ in cut for p in pieces),
        tuple(target for _, _, target in cut),
        tuple(r for _, leftovers, _ in cut for r in leftovers))


# -- step 4: the top layer and its doubling --------------------------------


def _ring_slots(k: int) -> list[tuple[int, int]]:
    """Corner-ring slots with max(i, j) = k - 1, in lexicographic order."""
    return sorted({(i, k - 1) for i in range(k)} | {(k - 1, j) for j in range(k)})


def _gnomon_cells(k: int) -> list[tuple[int, int]]:
    """Unit cells of the ring-k gnomon: the vertical arm bottom-up, then
    the horizontal arm left to right (2k-1 cells)."""
    return [(k - 1, y) for y in range(k)] + [(x, k - 1) for x in range(k - 1)]


def _dual_slot_targets(n: int, rings: range) -> list[tuple[int, int, list[Rect]]]:
    """Rects per square-of-corners slot for the given nested rings.

    Slot (i, j) holds the gnomons of every ring k in ``rings`` with
    k > max(i, j); their union is the n x n square minus the square of
    side max(i, j, rings.start - 1) at the bottom left.  The bijections
    use them as targets and the overlap certificate as its copy B.
    """
    out = []
    lo = rings.start
    for i in range(n):
        for j in range(n):
            m = max(i, j, lo - 1)
            x, y = i * n, j * n
            rects: list[Rect] = []
            if m == 0:
                rects.append(rect(x, y, n, n))
            elif m < n:
                rects.append(rect(x + m, y, n - m, m))
                rects.append(rect(x, y + m, n, n - m))
            out.append((i, j, rects))
    return out


def _corner_square_bijection(n: int, lowest: int,
                             construction_tag: str) -> DissectionCertificate:
    """Cell-level bijection from corner-of-squares to square-of-corners, on
    rings k = lowest..n.

    The square with ring index sigma and local cell (a, b) maps to the
    gnomon cell sigma inside dual slot (a, b): swapping "which entry" with
    "which cell" is the commutativity of the two figurate roles.
    """
    _require("STEP4_TOP", n)
    rings = range(lowest, n + 1)
    pitch = n + 1
    placements: list[Placement] = []
    targets: list[tuple[str, Region]] = []
    for k in rings:
        slots = _ring_slots(k)
        cells = _gnomon_cells(k)
        for sigma, (i, j) in enumerate(slots):
            gx, gy = cells[sigma]
            for a in range(k):
                for b in range(k):
                    src = Region("corner_sq",
                                 (rect(i * pitch + a, j * pitch + b, 1, 1),))
                    placements.append(_translated(
                        f"{construction_tag}/{k}/{sigma}/{a},{b}", "corner", src,
                        a * n + gx - (i * pitch + a),
                        b * n + gy - (j * pitch + b),
                        "dual"))
    for i, j, rects in _dual_slot_targets(n, rings):
        for r in rects:
            targets.append(("dual", Region("target", (r,))))
    return DissectionCertificate("STEP4_TOP", n, tuple(placements),
                                 tuple(targets), ())


def step4_overlap(n: int) -> DissectionCertificate:
    """Two top-layer copies plus two sum-of-squares deficits tile the
    (n+1) x (n+1) arrangement of n x n squares (the doubling identity)."""
    _require("STEP4_TOP", n)
    pitch = n + 1
    placements: list[Placement] = []
    targets: list[tuple[str, Region]] = []

    # copy B: the square-of-corners layer, shifted one slot up and right
    for i, j, rects in _dual_slot_targets(n, range(1, n + 1)):
        placements.append(_translated(
            f"STEP4_TOP/overlap/dual/{i},{j}", "dual",
            Region("dual_l", tuple(rects)), n, n, "doubled"))

    # side-k pieces: 2k-1 corner-ring squares plus one square from each
    # deficit copy; k < n fills the copy-B holes, k = n the empty slots.
    deficit_x = [sum(u + 1 for u in range(1, k)) for k in range(n + 1)]
    for k in range(1, n + 1):
        # (piece id, source layer, lower left corner of the side-k square)
        pieces: list[tuple[str, str, int, int]] = []
        for sigma, (i, j) in enumerate(_ring_slots(k)):
            pieces.append((f"STEP4_TOP/overlap/corner/{k}/{sigma}", "corner",
                           i * pitch, j * pitch))
        for copy in (1, 2):
            pieces.append((f"STEP4_TOP/overlap/deficit{copy}/{k}",
                           f"deficit/{copy}", deficit_x[k], 0))
        if k < n:  # the holes of copy B: ring k + 1, one slot up and right
            dests = [((i + 1) * n, (j + 1) * n) for i, j in _ring_slots(k + 1)]
        else:
            empties = sorted({(i, 0) for i in range(n + 1)}
                             | {(0, j) for j in range(n + 1)})
            dests = [(i * n, j * n) for i, j in empties]
        assert len(pieces) == len(dests)
        for (piece_id, src_layer, sx, sy), (dest_x, dest_y) in zip(pieces, dests):
            placements.append(_translated(
                piece_id, src_layer, Region(
                    "deficit" if "deficit" in src_layer else "corner_sq",
                    (rect(sx, sy, k, k),)),
                dest_x - sx, dest_y - sy, "doubled"))

    for i in range(n + 1):
        for j in range(n + 1):
            targets.append(("doubled",
                            Region("target", (rect(i * n, j * n, n, n),))))
    return DissectionCertificate("STEP4_TOP", n, tuple(placements),
                                 tuple(targets), ())


def step4_bijection(n: int) -> DissectionCertificate:
    """The corner/square bijection in layered form: rings k = 1..n."""
    return _corner_square_bijection(n, 1, "STEP4_TOP/layered")


def step4_bijection_full(n: int) -> DissectionCertificate:
    """The corner/square bijection at full scale: ring n alone."""
    return _corner_square_bijection(n, n, "STEP4_TOP/full")


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


def _layer_targets(cert: DissectionCertificate, layer: str) -> list[Rect]:
    return [r for lid, region in cert.targets if lid == layer
            for r in region.rects]


def _layer_sources(cert: DissectionCertificate, layer: str) -> list[Rect]:
    return [r for p in cert.placements if p.source_layer == layer
            for r in p.source.rects]


def _checked(stage: str, cert: DissectionCertificate) -> None:
    report = check_certificate(cert)
    if not report.ok:
        raise StageCheckError(stage, report)


def _interface(stage: str, layer: str, pieces: list[Rect],
               targets: list[Rect]) -> None:
    # covers_exactly decides, so traces time the interface checks under its
    # name (perfbench's checker.covers_s); only a failure is checked again,
    # to name its cell
    if not covers_exactly(pieces, targets):
        raise StageCheckError(stage, cover_failure(layer, pieces, targets))


@nogc
def full_theorem_report(n: int) -> IdentityReport:
    """Run the pipeline, check every certificate and stage interface, and
    confirm 5*S_4(n) = n(n+1) * (n-x)(n+1+x) * (n+1/2) exactly.

    For n above the cell-level cap only the arithmetic form is evaluated.
    Raises ``StageCheckError`` naming the failing stage on any checker or
    interface failure.
    """
    if type(n) is not int:
        raise TypeError(f"full_theorem_report: n must be an int, "
                        f"got {bounded(repr(n))}")
    if n < 1:
        raise UnsupportedN(
            f"full_theorem_report: n must be >= 1, got {bounded(str(n))}")
    if n <= CONSTRUCTIONS["FIVE_PYR_LAYERS"]:
        five = five_pyramids_layers(n)
        _checked("five_pyramids_layers", five)
        step2 = step2_reshape(n)
        _checked("step2_reshape", step2)
        step3 = step3_scissor(n)
        _checked("step3_scissor", step3)
        step4 = step4_top_layer(n)
        for name, cert in (("step4_bijection", step4.bijection),
                           ("step4_bijection_full", step4.bijection_full_scale),
                           ("step4_overlap", step4.overlap)):
            _checked(name, cert)
        # stage interfaces: each stage's sources must retile the previous
        # stage's targets, the excess layer must reappear as the corner
        # copy of both layered top-layer certificates, and the bijection's
        # square-of-corners must be the overlap's copy B.
        for t in range(1, n + 1):
            layer = f"layer/{t}"
            _interface(f"interface five->step2 {layer}", layer,
                       _layer_sources(step2, layer), _layer_targets(five, layer))
            _interface(f"interface step2->step3 {layer}", layer,
                       _layer_sources(step3, layer), _layer_targets(step2, layer))
        _interface("interface excess->step4", "excess",
                   _layer_sources(step4.overlap, "corner"),
                   _layer_targets(five, "excess"))
        _interface("interface excess->step4 bijection", "excess",
                   _layer_sources(step4.bijection, "corner"),
                   _layer_targets(five, "excess"))
        _interface("interface step4 bijection->overlap", "dual",
                   _layer_sources(step4.overlap, "dual"),
                   _layer_targets(step4.bijection, "dual"))
        for name in ("R_BALANCE", "TOP_LAYER_DOUBLE", "ARCHIMEDES_GEN",
                     "SCISSOR_FACTOR"):
            report = evaluate_identity(name, {"n": n})
            if not report.holds:
                raise StageCheckError(f"identity {name}", report)
    return evaluate_identity("FINAL_ASSEMBLY", {"n": n})


# -- by name ------------------------------------------------------------------

#: construction name -> its generator; STEP4_TOP's are ``_STEP4_VARIANTS``
_GENERATORS: dict[str, Callable[[int], DissectionCertificate]] = {
    "GAUSS_RECT": gauss_rectangle,
    "THREE_PYR_2D": three_pyramids_2d,
    "NICOMACHUS_4D_2D": nicomachus_4d_2d,
    "FIVE_PYR_LAYERS": five_pyramids_layers,
    "STEP2_RESHAPE": step2_reshape,
    "STEP3_SCISSOR": step3_scissor,
}

#: STEP4_TOP's variants, the default first -> the builder of that one
#: certificate
_STEP4_VARIANTS: dict[str, Callable[[int], DissectionCertificate]] = {
    "overlap": step4_overlap, "bijection": step4_bijection,
    "bijection-full": step4_bijection_full}


def certificate_builders(
        name: str) -> dict[str | None, Callable[[int], DissectionCertificate]]:
    """``name``'s certificate builders by variant, the default first; a
    construction with one certificate has the one variant ``None``.  Each
    builder raises UnsupportedN beyond the construction's cap."""
    if name == "STEP4_TOP":
        return dict(_STEP4_VARIANTS)
    return {None: _GENERATORS[name]}
