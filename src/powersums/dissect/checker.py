"""Exact-cover verification of dissection certificates.

The ground truth for every generator.  The verdict itself comes from
``kernel``, which sees only int lattice points; this module is its two
front ends and turns the kernel's answer into a ``CheckReport``:

* from a ``DissectionCertificate``, one pass reads every coordinate's
  ``QuadExt.triple``;
* from a ``WireCertificate`` (a document that passed the strict JSON walk
  of ``geometry.read_certificate``), each distinct coordinate text was
  parsed once into its triple, and no ``QuadExt``, ``Rect`` or ``Region``
  is built.

Either way, with D the lcm of every coordinate's denominator, a + b*sqrt(21)
becomes the int pair (a*D, b*D), and ``QuadExt`` is rebuilt only for a
reported cell.

Malformed input produces a report-carrying failure, never an exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import AbstractSet, Callable, Iterable, Iterator, Optional, Sequence, Union

from .._nogc import nogc
from ..exact import QuadExt, quad_to_text
from .geometry import (
    CONSTRUCTIONS,
    DissectionCertificate,
    Rect,
    RigidTransform,
    WireCertificate,
)
from .kernel import (
    Failure,
    LatticeCertificate,
    LatticeRect,
    Point,
    _check_layer_cover,
    _place as _place_lattice,
    _scan,
    _validate_structure,
)
# importable from here as before: the per-layer scans by perfbench's traced
# run, which rebinds them by name, and the rest by tests/test_checker.py
from .kernel import (  # noqa: F401
    _check_source_disjoint,
    _grid_counts,
    _sorted_points,
    lattice_sign as _sign,
)
from .mutants import MUTATION_KINDS  # noqa: F401

#: Largest common denominator D the checker accepts, in bits.  Generated
#: certificates need a D dividing 6.
MAX_DENOMINATOR_BITS = 256

Triple = tuple[int, int, int]


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


def _denominator(dens: AbstractSet[int]) -> int:
    """lcm of ``dens``.

    Raises ValueError beyond ``MAX_DENOMINATOR_BITS``: every coordinate is
    scaled by it, so input with many unrelated denominators would otherwise
    cost memory in proportion to their product.
    """
    d = 1
    for den in dens:
        d = lcm(d, den)
        if d.bit_length() > MAX_DENOMINATOR_BITS:
            raise ValueError(f"common denominator exceeds "
                             f"{MAX_DENOMINATOR_BITS} bits")
    return d


def _lattice_points(triples: Iterable[Triple]) -> tuple[int, dict[Triple, Point]]:
    """D, and each distinct triple (A, B, den) as the lattice point
    (A*D/den, B*D/den)."""
    distinct = set(triples)
    d = _denominator({den for _a, _b, den in distinct})
    return d, {t: (t[0] * (d // t[2]), t[1] * (d // t[2])) for t in distinct}


def _corners(x: Point, y: Point, w: Point, h: Point) -> LatticeRect:
    return x, y, (x[0] + w[0], x[1] + w[1]), (y[0] + h[0], y[1] + h[1])


def _rects(take: Callable[[], Point], rects: Sequence[object]) -> list[LatticeRect]:
    """One lattice rect per entry of ``rects``, from the next four points."""
    return [_corners(take(), take(), take(), take()) for _ in rects]


def _certificate_values(cert: DissectionCertificate) -> Iterator[QuadExt]:
    """Every coordinate of ``cert``, in the order ``_from_objects`` reads them."""
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


def _from_objects(cert: DissectionCertificate) -> tuple[int, LatticeCertificate]:
    triples = [v.triple for v in _certificate_values(cert)]
    d, at = _lattice_points(triples)
    take = map(at.__getitem__, triples).__next__
    pieces = []
    for p in cert.placements:
        source = _rects(take, p.source.rects)
        t = p.transform
        pieces.append((p.piece_id, p.source_layer, source,
                       (t.quarter_turns, t.reflect, take(), take()),
                       p.destination_layer))
    targets = [(layer, _rects(take, region.rects)) for layer, region in cert.targets]
    leftovers = [_rects(take, region.rects) for region in cert.leftovers]
    return d, LatticeCertificate(cert.construction, cert.n, pieces, targets,
                                 leftovers)


def _from_wire(cert: WireCertificate) -> tuple[int, LatticeCertificate]:
    d, points = _lattice_points(cert.values.values())
    at = {text: points[t] for text, t in cert.values.items()}

    def rects(texts: list[list[str]]) -> list[LatticeRect]:
        return [_corners(at[x], at[y], at[w], at[h]) for x, y, w, h in texts]

    pieces = [(p.piece_id, p.source_layer, rects(p.source[1]),
               (p.quarter_turns, p.reflect, at[p.dx], at[p.dy]),
               p.destination_layer) for p in cert.placements]
    targets = [(layer, rects(region[1])) for layer, region in cert.targets]
    leftovers = [rects(region[1]) for region in cert.leftovers]
    return d, LatticeCertificate(cert.construction, cert.n, pieces, targets,
                                 leftovers)


@nogc
def check_certificate(cert: Union[DissectionCertificate, WireCertificate],
                      ) -> CheckReport:
    """Verify a certificate; returns a report, never raises.

    Checks, in order: structural well-formedness, source disjointness per
    source layer, and exact cover of every destination layer's targets
    (leftover pieces against the declared leftovers).  The first offending
    grid cell is reported, with the layers and cells scanned up to and
    including it.
    """
    try:
        if isinstance(cert, WireCertificate):
            d, lattice = _from_wire(cert)
        else:
            d, lattice = _from_objects(cert)
        failure = _validate_structure(lattice, CONSTRUCTIONS)
        if failure is not None:
            return _report(failure, 0, 0, d)
        return _report(*_scan(lattice), d)
    except Exception as exc:  # malformed input must never crash the checker
        return CheckReport(False, CheckFailure(
            "malformed", None, None, f"{type(exc).__name__}: {exc}"))


def cover_failure(layer: str, piece_rects: Sequence[Rect],
                  target_rects: Sequence[Rect]) -> Optional[CheckReport]:
    """None if ``piece_rects`` tile ``target_rects`` exactly once, else the
    failing report, naming ``layer`` and the first offending grid cell."""
    triples = [v.triple for r in (*piece_rects, *target_rects) for v in r]
    d, at = _lattice_points(triples)
    take = map(at.__getitem__, triples).__next__
    pieces = _rects(take, piece_rects)
    failure, _ = _check_layer_cover(layer, pieces, _rects(take, target_rects))
    return None if failure is None else _report(failure, 0, 0, d)


def covers_exactly(piece_rects: Iterable[Rect], target_rects: Iterable[Rect]) -> bool:
    """True iff the first rect collection tiles the second exactly once."""
    return cover_failure("-", list(piece_rects), list(target_rects)) is None


# -- single-value forms of the front end's conversion -------------------------


def _common_denominator(values: Iterable[QuadExt]) -> int:
    """lcm of every rational-part and sqrt(21)-part denominator."""
    return _denominator({v.triple[2] for v in values})


def _lattice_rect(r: Rect, d: int) -> LatticeRect:
    """``r`` as lattice corners over ``d``, a multiple of its denominators."""
    x, y, w, h = ((a * (d // den), b * (d // den)) for a, b, den in
                  (v.triple for v in r))
    return _corners(x, y, w, h)


def _place(rects: Sequence[LatticeRect], t: RigidTransform,
           d: int) -> list[LatticeRect]:
    """``t`` applied to lattice rects over ``d``; agrees with
    ``RigidTransform.apply_rect``."""
    (dxa, dxb, dxd), (dya, dyb, dyd) = t.dx.triple, t.dy.triple
    return _place_lattice(rects, (t.quarter_turns, t.reflect,
                                  (dxa * (d // dxd), dxb * (d // dxd)),
                                  (dya * (d // dyd), dyb * (d // dyd))))
