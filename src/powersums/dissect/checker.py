"""Exact-cover verification of dissection certificates.

The ground truth for every generator.  The verdict itself comes from
``kernel``, which sees only int lattice points; this module hands it one of
two inputs, both judged alike, and turns its answer into a ``CheckReport``:

* a ``LatticeCertificate``, the kernel's own data, as it is;
* a ``WireCertificate`` (a document read by ``geometry.read_certificate``),
  as the lattice data ``geometry._lattice`` makes of it, with no ``QuadExt``.

Only a reported cell is rebuilt as ``QuadExt``.  Malformed input produces
a report-carrying failure, never an exception."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .._nogc import nogc
from ..exact import QuadExt, quad_to_text
from .geometry import Rect, WireCertificate, _lattice
from ..kernel import (Failure, LatticeCertificate, LatticeRect, _check_layer_cover,
                      _scan, bounded)
# unused here: perfbench's traced run rebinds these per-layer scans through
# checker, by name
from ..kernel import _check_source_disjoint, _grid_counts  # noqa: F401


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


@nogc
def check_certificate(cert: Union[LatticeCertificate, WireCertificate]
                      ) -> CheckReport:
    """Verify lattice data or a read document; returns a report, never
    raises.  Anything else is ``malformed``: check an object as its
    document, ``_walk(certificate_to_json(obj))``, or its file.

    Checks, in order: structural well-formedness (the same checks on every
    input kind), source disjointness per source layer, and exact cover of
    every destination layer's targets (leftover pieces against the declared
    leftovers).  The first offending grid cell is reported, with the layers
    and cells scanned up to and including it.
    """
    try:
        if not isinstance(cert, (LatticeCertificate, WireCertificate)):
            raise TypeError("check_certificate takes a LatticeCertificate or a "
                            f"WireCertificate, got {type(cert).__name__}")
        lattice = (cert if isinstance(cert, LatticeCertificate)
                   else _lattice(cert).cert)
        return _report(*_scan(lattice), lattice.denominator)
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
    groups = list(piece_rects), list(target_rects)
    triples = [v.triple for rects in groups for r in rects for v in r]
    # the two groups as two targets, each triple keyed by itself
    cert = _lattice(WireCertificate("", 0, [], [("-", len(rects)) for rects in groups],
                                    [], triples, dict(zip(triples, triples)))).cert
    (_layer, pieces), (_layer, targets) = cert.targets
    return cover_failure("-", pieces, targets, cert.denominator) is None
