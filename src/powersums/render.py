"""Deterministic figure reconstruction as SVG or TikZ.

Figures draw the generators' kernel data, lattice rects over D moved by the
kernel's ``_place``.  A rect is drawn as unit cells exactly when its corners
are integers, and those cells are computed on ints.  Every other rect and
frame becomes the float box the emitters print, each lattice point converted
once, so rounding can never open gaps or create overlaps in the drawing's
structure.  Identical FigureSpec inputs produce byte-identical documents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

from .dissect.generators import (D, X, UnsupportedN, _box, _five_pyramids_layers,
                                  _gauss_rectangle, _nicomachus_4d_2d, _stair_rows,
                                  _step2_reshape, _step4_overlap,
                                  _three_pyramids_2d, scissor_rectangle)
from .dissect.geometry import LEFTOVER_LAYER, LabelledLattice
from .dissect.kernel import LatticeRect, Point, _place, bounded
from .exact import quad_from_triple, quad_to_float
from .figurate import _naturals

#: Fill colours per piece label (total over everything the generators and
#: figure builders emit).
PALETTE: dict[str, str] = {
    "tri_a": "#5b8dd9",
    "tri_b": "#d95b5b",
    "main_square": "#f0c33c",
    "stair_a": "#5b8dd9",
    "stair_b": "#d95b5b",
    "main_green": "#6cbf6c",
    "square_orange": "#ef9a3c",
    "fifth_pink": "#f2a0c0",
    "body": "#c9c9c9",
    "row_strip": "#8fd1d1",
    "strip_a": "#ef9a3c",
    "left_b": "#f0c33c",
    "left_c": "#d95b5b",
    "corner_sq": "#f2a0c0",
    "dual_l": "#b08fd1",
    "deficit": "#9a9a9a",
    "ring0": "#f2a0c0",
    "ring1": "#e07ba6",
    "ring2": "#c9568c",
    "ring3": "#a63572",
    "ring4": "#7d1f58",
}

_STROKE = "#303030"

#: Largest ``unit_px``: no drawing needs more, and far larger values
#: overflow the float pixel sizes.
MAX_UNIT_PX = 1000


@dataclass(frozen=True)
class FigureSpec:
    figure_name: str
    n: int
    format: str = "svg"  # "svg" or "tikz"
    unit_px: int | None = None  # svg only: pixels per unit, default 24
    section: int | None = None  # FIVE_PYR_SECTION only: layer t, default 1


#: A drawn rect as the numbers the emitters print: x, y, x2, y2, w, h.
_Box = tuple[float, float, float, float, float, float]


@lru_cache(maxsize=4096)  # lattice points repeat across a figure
def _float(point: Point) -> float:
    return quad_to_float(quad_from_triple((*point, D)))


def _float_box(rect: LatticeRect, dx: int, dy: int) -> _Box:
    (x1a, x1b), (y1a, y1b), (x2a, x2b), (y2a, y2b) = rect
    sx, sy = dx * D, dy * D
    return (_float((x1a + sx, x1b)), _float((y1a + sy, y1b)),
            _float((x2a + sx, x2b)), _float((y2a + sy, y2b)),
            _float((x2a - x1a, x2b - x1b)), _float((y2a - y1a, y2b - y1b)))


@dataclass
class _Scene:
    fills: list[tuple[_Box, str]] = field(default_factory=list)
    frames: list[_Box] = field(default_factory=list)
    notes: list[tuple[float, float, str]] = field(default_factory=list)

    def add_cells(self, x: int, y: int, w: int, h: int, label: str) -> None:
        """The w x h unit cells whose lower-left corner is (x, y)."""
        self.fills += [((i, j, i + 1, j + 1, 1, 1), label)
                       for i in range(x, x + w) for j in range(y, y + h)]

    def add_rects(self, label: str, rects: Sequence[LatticeRect], dx: int = 0,
                  dy: int = 0) -> None:
        """Each rect, shifted by (dx, dy): as unit cells if its corners are
        integers, else whole."""
        for rect in rects:
            if any(b or a % D for a, b in rect):
                self.fills.append((_float_box(rect, dx, dy), label))
            else:
                (x1, _), (y1, _), (x2, _), (y2, _) = rect
                self.add_cells(x1 // D + dx, y1 // D + dy, (x2 - x1) // D,
                               (y2 - y1) // D, label)

    def add_frame(self, rect: LatticeRect, dx: int = 0) -> None:
        self.frames.append(_float_box(rect, dx, 0))


def _placed_scene(data: LabelledLattice, layer: str, scene: _Scene,
                  dx: int = 0) -> None:
    """Draw one layer of a builder's data as placed: its pieces and targets."""
    for (_id, _source, rects, t, dest), label in zip(data.cert.pieces, data.labels):
        if dest == layer:
            scene.add_rects(label, _place(rects, t), dx)
    for lid, rects in data.cert.targets:
        if lid == layer:
            for r in rects:
                scene.add_frame(r, dx)


def _source_scene(data: LabelledLattice, layer: str, scene: _Scene,
                  dx: int = 0) -> None:
    for (_id, source, rects, _t, _dest), label in zip(data.cert.pieces, data.labels):
        if source == layer:
            scene.add_rects(label, rects, dx)


def _gnomon(scene: _Scene, k: int, x0: int, y0: int) -> None:
    """The k-th odd number 2k - 1 as an L of unit cells: the column, then
    the rest of the row (empty for k = 1)."""
    label = f"ring{(k - 1) % 5}"
    scene.add_cells(x0 + k - 1, y0, 1, k, label)
    scene.add_cells(x0, y0 + k - 1, k - 1, 1, label)


# -- one builder per figure ----------------------------------------------------


def _odd_numbers(scene: _Scene, spec: FigureSpec) -> None:
    n, x0 = spec.n, 0
    for k in range(1, n + 1):
        _gnomon(scene, k, x0, 0)
        x0 += k + 1
    for k in range(1, n + 1):  # the assembled square, ring by ring
        _gnomon(scene, k, x0, 0)
    scene.add_frame(_box(x0, 0, n, n))


def _main_sections(scene: _Scene, spec: FigureSpec) -> None:
    """Main section k of P_3(n) is the k x k square, k = 1..n."""
    x0 = 0
    for k in range(1, spec.n + 1):
        scene.add_cells(x0, 0, k, k, "square_orange")
        x0 += k + 1


def _secondary_sections(scene: _Scene, spec: FigureSpec) -> None:
    """Secondary section m of P_3(n) is the staircase of rows m..n."""
    n = spec.n
    for m in range(1, n + 1):
        scene.add_rects("stair_a", _stair_rows(m, n, (m - 1) * (n + 2), 0))


def _puzzle_3d(scene: _Scene, spec: FigureSpec) -> None:
    n = spec.n
    data = _three_pyramids_2d(n)
    for m in range(1, n + 1):
        dx = (m - 1) * (n + 3)
        _source_scene(data, f"layer/{m}", scene, dx)
        scene.add_frame(_box(dx, 0, n + 1, n + 1))


def _puzzle_3d_diy(scene: _Scene, spec: FigureSpec) -> None:
    n = spec.n
    data = _three_pyramids_2d(n)
    for m in range(1, n + 1):
        _placed_scene(data, f"layer/{m}", scene, (m - 1) * (n + 3))


def _five_pyr_section(scene: _Scene, spec: FigureSpec) -> None:
    n, t = spec.n, 1 if spec.section is None else spec.section
    if not 1 <= t <= n:
        raise UnsupportedN(f"FIVE_PYR_SECTION: section must be 1..{n}, "
                           f"got {bounded(str(t))}")
    _placed_scene(_five_pyramids_layers(n), f"layer/{t}", scene)


def _step2(scene: _Scene, spec: FigureSpec) -> None:
    n = spec.n
    data = _step2_reshape(n)
    _source_scene(data, "layer/1", scene)
    _placed_scene(data, "layer/1", scene, n * (n + 1) + 2)


def _step3_scissor(scene: _Scene, spec: FigureSpec) -> None:
    n = spec.n
    data = scissor_rectangle(n)
    _source_scene(data, "layer/1", scene)  # before: the cut rectangle
    # after: the reshaped rectangle, and the leftovers beside it
    for (_id, _source, rects, t, dest), label in zip(data.cert.pieces, data.labels):
        dx, dy = (2 * n + 7, n) if dest == LEFTOVER_LAYER else (n + 4, 0)
        scene.add_rects(label, _place(rects, t), dx, dy)
    scene.notes.append((0, n + 1, f"x ~ {_float(X):.4f}"))


def _top_dual(scene: _Scene, spec: FigureSpec) -> None:
    n = spec.n
    for i in range(n):
        for j in range(n):
            for k in range(max(i, j) + 1, n + 1):
                _gnomon(scene, k, i * n, j * n)
            scene.add_frame(_box(i * n, j * n, n, n))


def _one_layer(draw: Callable[[LabelledLattice, str, _Scene], None],
               build: Callable[[int], LabelledLattice],
               layer: str) -> Callable[[_Scene, FigureSpec], None]:
    """The figure that draws ``layer`` of ``build(n)`` with ``draw``."""
    def figure(scene: _Scene, spec: FigureSpec) -> None:
        draw(build(spec.n), layer, scene)
    return figure


#: Every figure by name: its builder and the largest n it draws.  None
#: means the generator it draws from refuses n above its own
#: ``CONSTRUCTIONS`` cap; the four figures drawn from no generator state
#: theirs here, since their cell counts grow as n^2 to n^4.
_FIGURES: dict[str, tuple[Callable[[_Scene, FigureSpec], None], int | None]] = {
    "ODD_NUMBERS": (_odd_numbers, 100),
    "GAUSS": (_one_layer(_placed_scene, _gauss_rectangle, "plane"), None),
    "MAIN_SECTIONS": (_main_sections, 50),
    "SECONDARY_SECTIONS": (_secondary_sections, 50),
    "PUZZLE_3D": (_puzzle_3d, None),
    "PUZZLE_3D_DIY": (_puzzle_3d_diy, None),
    "NICOMACHUS_GRID": (_one_layer(_source_scene, _nicomachus_4d_2d, "grid"), None),
    "NICOMACHUS_GRID_DIY": (_one_layer(_placed_scene, _nicomachus_4d_2d, "grid"),
                            None),
    "FIVE_PYR_SECTION": (_five_pyr_section, None),
    "CONVOLUTION_EXCESS": (_one_layer(_placed_scene, _five_pyramids_layers,
                                      "excess"), None),
    "STEP2": (_step2, None),
    "STEP3_SCISSOR": (_step3_scissor, None),
    "TOP_DUAL": (_top_dual, 20),
    "TWO_COPIES": (_one_layer(_placed_scene, _step4_overlap, "doubled"), None),
}

FIGURE_NAMES = tuple(_FIGURES)


def _build_scene(spec: FigureSpec) -> _Scene:
    if spec.figure_name not in _FIGURES:
        raise ValueError(f"unknown figure: {spec.figure_name!r}")
    if spec.format not in ("svg", "tikz"):
        raise ValueError(f"format must be svg or tikz, got {spec.format!r}")
    if spec.unit_px is not None:
        if spec.format == "tikz":
            raise ValueError("tikz takes no --unit-px")
        _naturals("", None, unit_px=spec.unit_px)
        if not 1 <= spec.unit_px <= MAX_UNIT_PX:
            raise ValueError(f"--unit-px must be 1..{MAX_UNIT_PX}")
    build, max_n = _FIGURES[spec.figure_name]
    if spec.section is not None and build is not _five_pyr_section:
        raise ValueError(f"{spec.figure_name} takes no section")
    _naturals("", 1, UnsupportedN, n=spec.n)
    if spec.section is not None:
        _naturals("", None, section=spec.section)
    if max_n is not None and spec.n > max_n:
        raise UnsupportedN(f"{spec.figure_name}: figure supports n <= {max_n}, "
                           f"got {bounded(str(spec.n))}")
    scene = _Scene()
    build(scene, spec)
    return scene


@lru_cache(maxsize=4096)  # unit-cell coordinates repeat across a figure
def _fmt(value: float) -> str:
    text = f"{value:.4f}".rstrip("0").rstrip(".")
    return "0" if text == "-0" else text


def _emit_svg(scene: _Scene, unit_px: int) -> str:
    boxes = [box for box, _ in scene.fills] + scene.frames
    x0 = min((box[0] for box in boxes), default=0.0)
    y0 = min((box[1] for box in boxes), default=0.0)
    x1 = max((box[2] for box in boxes), default=1.0)
    y1 = max((box[3] for box in boxes), default=1.0)
    margin = 0.5
    width = (x1 - x0 + 2 * margin) * unit_px
    height = (y1 - y0 + 2 * margin) * unit_px

    def px(x: float) -> str:
        return _fmt((x - x0 + margin) * unit_px)

    def py(y: float) -> str:  # flip: SVG y grows downward
        return _fmt((y1 - y + margin) * unit_px)

    def svg_rect(box: _Box, paint: str) -> str:
        x, _y, _x2, y2, w, h = box
        return (f'<rect x="{px(x)}" y="{py(y2)}" width="{_fmt(w * unit_px)}" '
                f'height="{_fmt(h * unit_px)}" {paint}/>')

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
    ]
    lines += [svg_rect(box, f'fill="{PALETTE[label]}" stroke="{_STROKE}" '
                            'stroke-width="1"')
              for box, label in scene.fills]
    lines += [svg_rect(box, f'fill="none" stroke="{_STROKE}" stroke-width="2" '
                            'stroke-dasharray="4 3"')
              for box in scene.frames]
    lines += [f'<text x="{px(x)}" y="{py(y)}" font-family="monospace" '
              f'font-size="{_fmt(unit_px * 0.6)}" fill="{_STROKE}">{text}</text>'
              for x, y, text in scene.notes]
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _emit_tikz(scene: _Scene) -> str:
    def corners(box: _Box) -> str:
        x, y, x2, y2, _w, _h = box
        return f"({_fmt(x)},{_fmt(y)}) rectangle ({_fmt(x2)},{_fmt(y2)});"

    lines = []
    for label in sorted({label for _, label in scene.fills}):
        rgb = PALETTE[label].lstrip("#")
        r, g, b = (int(rgb[i:i + 2], 16) for i in (0, 2, 4))
        lines.append(f"\\definecolor{{fill{label.replace('_', '')}}}"
                     f"{{RGB}}{{{r},{g},{b}}}")
    lines.append("\\begin{tikzpicture}[scale=0.42]")
    lines += [f"\\draw[fill=fill{label.replace('_', '')}, line width=0.3pt] "
              + corners(box) for box, label in scene.fills]
    lines += ["\\draw[dashed, thick] " + corners(box) for box in scene.frames]
    lines += [f"\\node[anchor=west] at ({_fmt(x)},{_fmt(y)}) "
              + "{" + text.replace("~", "$\\approx$") + "};"
              for x, y, text in scene.notes]
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines) + "\n"


def emit_figure(spec: FigureSpec) -> str:
    """Render one figure to a text document (SVG or TikZ fragment)."""
    scene = _build_scene(spec)
    if spec.format == "svg":
        return _emit_svg(scene, spec.unit_px or 24)
    return _emit_tikz(scene)


def figure_cell_count(spec: FigureSpec) -> int:
    """Number of unit cells the figure draws (for cell-count invariants)."""
    return len(_build_scene(spec).fills)
