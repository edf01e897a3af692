"""Dissection vocabulary: rectangles, regions, rigid transforms,
placements, and the certificate object with its JSON wire format.

All coordinates are QuadExt values; the JSON form serialises every number
through the canonical Q(sqrt(21)) text representation, so files round-trip
bit-exactly.  Every document is read by one strict walk, which yields a
``WireCertificate`` of coordinate texts and their parsed triples: the
checker takes it as it is, and ``loads_certificate`` builds objects from it.
Generated certificates are views over lattice data (``LatticeView``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable, NamedTuple, Sequence

from ..exact import (
    ZERO,
    QuadExt,
    QuadLike,
    quad_from_triple,
    quad_to_text,
    triple_from_text,
)
from .kernel import (LEFTOVER_LAYER, LatticeCertificate, LatticeRect, Point,
                     bounded, lattice_sign)

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


class CertificateFormatError(ValueError):
    """Raised when certificate JSON cannot be decoded."""


class Rect(NamedTuple):
    x: QuadExt
    y: QuadExt
    w: QuadExt
    h: QuadExt

    @property
    def area(self) -> QuadExt:
        return self.w * self.h


def rect(x: QuadLike, y: QuadLike, w: QuadLike, h: QuadLike) -> Rect:
    r = Rect(QuadExt.of(x), QuadExt.of(y), QuadExt.of(w), QuadExt.of(h))
    if r.w.sign() <= 0 or r.h.sign() <= 0:
        raise ValueError(f"rectangle sides must be positive: w={r.w} h={r.h}")
    return r


@dataclass(frozen=True)
class Region:
    """A labelled union of axis-aligned rectangles (one puzzle piece)."""

    label: str
    rects: tuple[Rect, ...]

    @property
    def area(self) -> QuadExt:
        return _total_area((self,))


def _total_area(regions: Iterable[Region]) -> QuadExt:
    return sum((r.area for region in regions for r in region.rects), ZERO)


@dataclass(frozen=True)
class RigidTransform:
    """Mirror across the vertical axis (optional), then rotate by
    quarter turns counter-clockwise about the origin, then translate."""

    quarter_turns: int = 0
    reflect: bool = False
    dx: QuadExt = QuadExt(0)
    dy: QuadExt = QuadExt(0)

    def apply_rect(self, r: Rect) -> Rect:
        """``r`` moved by the kernel's ``_place`` rule: a reflection sends x
        to -(x + w), a quarter turn (x, y, w, h) to (-(y + h), x, h, w), so
        no coordinate is compared."""
        x, y, w, h = r
        if self.reflect:
            x = -(x + w)
        for _ in range(self.quarter_turns % 4):
            x, y, w, h = -(y + h), x, h, w
        return Rect(x + self.dx, y + self.dy, w, h)


@dataclass(frozen=True)
class Placement:
    """One piece: a source region on a source layer, moved rigidly to a
    destination layer (``LEFTOVER_LAYER`` for set-aside pieces)."""

    piece_id: str
    source_layer: str
    source: Region
    transform: RigidTransform
    destination_layer: str

    def placed(self) -> Region:
        move = self.transform.apply_rect
        return Region(self.source.label, tuple(map(move, self.source.rects)))


@dataclass(frozen=True)
class DissectionCertificate:
    """A machine-checkable cut-and-paste proof object."""

    construction: str
    n: int
    placements: tuple[Placement, ...]
    targets: tuple[tuple[str, Region], ...]
    leftovers: tuple[Region, ...]

    @property
    def source_area(self) -> QuadExt:
        return _total_area(p.source for p in self.placements)

    @property
    def target_area(self) -> QuadExt:
        return _total_area(region for _, region in self.targets)

    @property
    def leftover_area(self) -> QuadExt:
        return _total_area(self.leftovers)


# -- objects as views over lattice data ---------------------------------------


class LabelledLattice(NamedTuple):
    """Kernel data, and the labels the kernel never reads ("target" on targets)."""

    cert: LatticeCertificate
    labels: Sequence[str]
    leftover_labels: Sequence[str]


class LatticeView(dict[Point, QuadExt]):
    """The ``QuadExt`` of each lattice point over d, made once per point."""

    def __init__(self, d: int) -> None:
        self.d = d

    def __missing__(self, point: Point) -> QuadExt:
        q = self[point] = quad_from_triple((*point, self.d))
        return q


def certificate_from_lattice(data: LabelledLattice) -> DissectionCertificate:
    """The certificate object whose kernel data is ``data.cert``."""
    cert, view = data.cert, LatticeView(data.cert.denominator)

    def region(label: str, rects: Iterable[LatticeRect]) -> Region:
        return Region(label, tuple(
            Rect(view[x1], view[y1], view[x2[0] - x1[0], x2[1] - x1[1]],
                 view[y2[0] - y1[0], y2[1] - y1[1]]) for x1, y1, x2, y2 in rects))

    placements = tuple(
        Placement(piece_id, layer, region(label, rects),
                  RigidTransform(turns, reflect, view[dx], view[dy]), dest)
        for (piece_id, layer, rects, (turns, reflect, dx, dy), dest), label
        in zip(cert.pieces, data.labels))
    return DissectionCertificate(
        cert.construction, cert.n, placements,
        tuple((layer, region("target", rects)) for layer, rects in cert.targets),
        tuple(map(region, data.leftover_labels, cert.leftovers)))


# -- JSON wire format ----------------------------------------------------

#: (label, rects) of a region, each rect the coordinate texts [x, y, w, h]
WireRegion = tuple[str, list[list[str]]]


class WirePlacement(NamedTuple):
    piece_id: str
    source_layer: str
    source: WireRegion
    quarter_turns: int
    reflect: bool
    dx: str
    dy: str
    destination_layer: str


class WireCertificate(NamedTuple):
    """A certificate document that passed the strict walk, before any
    ``QuadExt``, ``Rect`` or ``Region`` is built: every coordinate is still
    its canonical text, and ``values`` holds the (A, B, D) triple of each
    distinct text, parsed once."""

    construction: str
    n: int
    placements: list[WirePlacement]
    targets: list[tuple[str, WireRegion]]
    leftovers: list[WireRegion]
    values: dict[str, tuple[int, int, int]]


def _typed(value: Any, kind: type, what: str) -> Any:
    """``value`` if its JSON type is exactly ``kind``: no value is coerced,
    and no bool passes for an int."""
    if type(value) is not kind:
        raise CertificateFormatError(
            f"{what} must be a JSON {kind.__name__}, got {bounded(repr(value))}")
    return value


def _walk(data: Any) -> WireCertificate:
    """The one strict reading of a decoded certificate document.

    Fields are read in document order (construction, n, each placement,
    each target, each leftover) and the first defect is raised as a
    ``CertificateFormatError``.  Each distinct coordinate text is parsed
    once; a text is looked up only once it is known to be a str, so a value
    of another JSON type gets the parser's own message.
    """
    values: dict[str, tuple[int, int, int]] = {}
    positive: set[str] = set()  # texts known to be > 0

    def coordinate(text: Any) -> str:
        if type(text) is not str or text not in values:
            values[text] = triple_from_text(text)
        return text

    def region(data: Any) -> WireRegion:
        if not isinstance(data, dict) or "label" not in data or "rects" not in data:
            raise CertificateFormatError(
                f"region must have label and rects: {bounded(repr(data))}")
        rects = _typed(data["rects"], list, "rects")
        label = _typed(data["label"], str, "label")
        for r in rects:
            if not isinstance(r, list) or len(r) != 4:
                raise CertificateFormatError(
                    f"rect must be a 4-list, got {bounded(repr(r))}")
            for text in r:
                coordinate(text)
            w, h = r[2], r[3]
            if w not in positive or h not in positive:
                for side in (w, h):
                    if lattice_sign(*values[side][:2]) <= 0:
                        raise ValueError("rectangle sides must be positive: "
                                         f"w={bounded(w)} h={bounded(h)}")
                    positive.add(side)
        return label, rects

    try:
        construction = _typed(data["construction"], str, "construction")
        n = _typed(data["n"], int, "n")
        placements = []
        for p in _typed(data["placements"], list, "placements"):
            piece_id = _typed(p["piece_id"], str, "piece_id")
            source_layer = _typed(p["source_layer"], str, "source_layer")
            source = region(p["source"])
            t = p["transform"]
            placements.append(WirePlacement(
                piece_id, source_layer, source,
                _typed(t["quarter_turns"], int, "quarter_turns"),
                _typed(t["reflect"], bool, "reflect"),
                coordinate(t["dx"]), coordinate(t["dy"]),
                _typed(p["destination_layer"], str, "destination_layer")))
        targets = [(_typed(t["layer"], str, "layer"), region(t["region"]))
                   for t in _typed(data["targets"], list, "targets")]
        leftovers = [region(r)
                     for r in _typed(data["leftovers"], list, "leftovers")]
    except CertificateFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CertificateFormatError(f"bad certificate structure: {exc}") from exc
    return WireCertificate(construction, n, placements, targets, leftovers,
                           values)


def _decode(text: str) -> Any:
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integers past the
        # interpreter's digit limit
        raise CertificateFormatError(f"not valid JSON: {exc}") from exc


def _rect_to_json(r: Rect) -> list[str]:
    return [quad_to_text(v) for v in r]


def _region_to_json(region: Region) -> dict[str, Any]:
    return {
        "label": region.label,
        "rects": [_rect_to_json(r) for r in region.rects],
    }


def certificate_to_json(cert: DissectionCertificate) -> dict[str, Any]:
    return {
        "construction": cert.construction,
        "n": cert.n,
        "placements": [
            {
                "piece_id": p.piece_id,
                "source_layer": p.source_layer,
                "source": _region_to_json(p.source),
                "transform": {
                    "quarter_turns": p.transform.quarter_turns,
                    "reflect": p.transform.reflect,
                    "dx": quad_to_text(p.transform.dx),
                    "dy": quad_to_text(p.transform.dy),
                },
                "destination_layer": p.destination_layer,
            }
            for p in cert.placements
        ],
        "targets": [
            {"layer": layer, "region": _region_to_json(region)}
            for layer, region in cert.targets
        ],
        "leftovers": [_region_to_json(region) for region in cert.leftovers],
    }


def certificate_from_json(data: Any) -> DissectionCertificate:
    """The certificate of a decoded document; ``CertificateFormatError`` if
    the strict walk refuses it.  Equal texts share one ``QuadExt``."""
    wire = _walk(data)
    quads = {text: quad_from_triple(v) for text, v in wire.values.items()}

    def region(wire_region: WireRegion) -> Region:
        label, rects = wire_region
        return Region(label, tuple(Rect(quads[x], quads[y], quads[w], quads[h])
                                   for x, y, w, h in rects))

    placements = tuple(
        Placement(p.piece_id, p.source_layer, region(p.source),
                  RigidTransform(p.quarter_turns, p.reflect, quads[p.dx],
                                 quads[p.dy]),
                  p.destination_layer)
        for p in wire.placements)
    return DissectionCertificate(
        wire.construction, wire.n, placements,
        tuple((layer, region(r)) for layer, r in wire.targets),
        tuple(region(r) for r in wire.leftovers))


def dumps_certificate(cert: DissectionCertificate) -> str:
    return json.dumps(certificate_to_json(cert), indent=1)


def loads_certificate(text: str) -> DissectionCertificate:
    return certificate_from_json(_decode(text))


def read_certificate(text: str) -> WireCertificate:
    """A certificate document read for ``check_certificate`` alone: the same
    strict walk as ``loads_certificate``, with the same errors, but no
    ``QuadExt``, ``Rect`` or ``Region`` is built."""
    return _walk(_decode(text))
