"""Exact-cover verification of dissection certificates.

The ground truth for every generator.  The verdict itself comes from
``kernel``, which sees only int lattice points; this module hands it one of
two inputs and turns its answer into a ``CheckReport``:

* a ``LatticeCertificate``, the kernel's own data, as it is;
* a ``WireCertificate`` (a document that passed the strict JSON walk of
  ``geometry.read_certificate``): each distinct coordinate text, parsed
  once into a triple, becomes the int pair (a*D, b*D) for a + b*sqrt(21),
  with D the lcm of every denominator, and no ``QuadExt`` is built.

A ``DissectionCertificate`` is walked as ``certificate_to_json`` gives it,
with no JSON text, so an object gets exactly the verdict of its file.  Only
a reported cell is rebuilt as ``QuadExt``.

Malformed input produces a report-carrying failure, never an exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Collection, Iterable, Optional, Sequence, Union

from .._nogc import nogc
from ..exact import QuadExt, quad_to_text
from .geometry import (DissectionCertificate, Rect, WireCertificate, _walk,
                       certificate_to_json)
from .kernel import (MAX_DENOMINATOR_BITS, Failure, LatticeCertificate, LatticeRect,
                     Point, _check_layer_cover, _scan, bounded)
# unused here: perfbench's traced run rebinds these per-layer scans through
# checker, by name
from .kernel import _check_source_disjoint, _grid_counts  # noqa: F401

Triple = tuple[int, int, int]


@dataclass(frozen=True)
class CellInterval:
    x1: QuadExt
    y1: QuadExt
    x2: QuadExt
    y2: QuadExt

    def __str__(self) -> str:
        x1, x2, y1, y2 = (bounded(quad_to_text(v))
                          for v in (self.x1, self.x2, self.y1, self.y2))
        return f"[{x1}, {x2}] x [{y1}, {y2}]"


@dataclass(frozen=True)
class CheckFailure:
    kind: str  # "overlap" | "uncovered" | "outside" | "source-overlap" | "malformed"
    layer: Optional[str]
    cell: Optional[CellInterval]
    message: str

    def __str__(self) -> str:
        where = "" if self.layer is None else f" on layer {bounded(repr(self.layer))}"
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


def _report(failure: Optional[Failure], layers: int, cells: int,
            d: int) -> CheckReport:
    if failure is None:
        return CheckReport(True, None, layers, cells)
    cell = None
    if failure.cell is not None:
        cell = CellInterval(*(QuadExt(Fraction(a, d), Fraction(b, d))
                              for a, b in failure.cell))
    return CheckReport(False, CheckFailure(failure.kind, failure.layer, cell,
                                           failure.message), layers, cells)


# -- front ends -------------------------------------------------------------


def _lattice_points(triples: Collection[Triple]) -> tuple[int, dict[Triple, Point]]:
    """D, the lcm of every denominator, and each distinct triple (A, B, den)
    as the lattice point (A*D/den, B*D/den).

    Raises ValueError on a triple that is not three ints with den >= 1, and
    beyond ``MAX_DENOMINATOR_BITS``: every coordinate is scaled by D, so
    input with many unrelated denominators would otherwise cost memory in
    proportion to their product.
    """
    for t in triples:  # each, as a bool or 1.0 equals an int in a set
        if not (type(t) is tuple and len(t) == 3 and type(t[0]) is int
                and type(t[1]) is int and type(t[2]) is int and t[2] >= 1):
            raise ValueError(f"a value must be three ints (A, B, den) with "
                             f"den >= 1, got {bounded(repr(t))}")
    distinct = set(triples)
    d = 1
    for den in {den for _a, _b, den in distinct}:
        d = lcm(d, den)
        if d.bit_length() > MAX_DENOMINATOR_BITS:
            raise ValueError(f"common denominator exceeds "
                             f"{MAX_DENOMINATOR_BITS} bits")
    return d, {t: (t[0] * (d // t[2]), t[1] * (d // t[2])) for t in distinct}


def _corners(x: Point, y: Point, w: Point, h: Point) -> LatticeRect:
    return x, y, (x[0] + w[0], x[1] + w[1]), (y[0] + h[0], y[1] + h[1])


def _rects(take: Callable[[], Point], rects: Sequence[object]) -> list[LatticeRect]:
    """One lattice rect per entry of ``rects``, from the next four points."""
    return [_corners(take(), take(), take(), take()) for _ in rects]


def _from_wire(cert: WireCertificate) -> LatticeCertificate:
    d, points = _lattice_points(cert.values.values())
    at = {text: points[t] for text, t in cert.values.items()}

    def rects(texts: list[list[str]]) -> list[LatticeRect]:
        return [_corners(at[x], at[y], at[w], at[h]) for x, y, w, h in texts]

    pieces = [(p.piece_id, p.source_layer, rects(p.source[1]),
               (p.quarter_turns, p.reflect, at[p.dx], at[p.dy]),
               p.destination_layer) for p in cert.placements]
    targets = [(layer, rects(region[1])) for layer, region in cert.targets]
    leftovers = [rects(region[1]) for region in cert.leftovers]
    return LatticeCertificate(cert.construction, cert.n, pieces, targets,
                              leftovers, d)


@nogc
def check_certificate(cert: Union[LatticeCertificate, DissectionCertificate,
                                  WireCertificate]) -> CheckReport:
    """Verify a certificate; returns a report, never raises.  An object is
    walked as its document, so its report is its file's.

    Checks, in order: structural well-formedness, source disjointness per
    source layer, and exact cover of every destination layer's targets
    (leftover pieces against the declared leftovers).  The first offending
    grid cell is reported, with the layers and cells scanned up to and
    including it.
    """
    try:
        lattice = (cert if isinstance(cert, LatticeCertificate)
                   else _from_wire(cert if isinstance(cert, WireCertificate)
                                   else _walk(certificate_to_json(cert))))
        built = lattice is not cert  # a front end made its tuples
        return _report(*_scan(lattice, built), lattice.denominator)
    except Exception as exc:  # malformed input must never crash the checker
        return CheckReport(False, CheckFailure(
            "malformed", None, None, f"{type(exc).__name__}: {exc}"))


def cover_failure(layer: str, piece_rects: Sequence[LatticeRect],
                  target_rects: Sequence[LatticeRect],
                  d: int) -> Optional[CheckReport]:
    """None if lattice rects ``piece_rects`` tile ``target_rects`` exactly
    once, else the report naming ``layer`` and the first bad cell (over d)."""
    failure, _ = _check_layer_cover(layer, piece_rects, target_rects)
    return None if failure is None else _report(failure, 0, 0, d)


def covers_exactly(piece_rects: Iterable[Rect], target_rects: Iterable[Rect]) -> bool:
    """True iff the first rect collection tiles the second exactly once."""
    pieces, targets = list(piece_rects), list(target_rects)
    triples = [v.triple for r in (*pieces, *targets) for v in r]
    d, at = _lattice_points(triples)
    take = map(at.__getitem__, triples).__next__
    return cover_failure("-", _rects(take, pieces), _rects(take, targets),
                         d) is None
