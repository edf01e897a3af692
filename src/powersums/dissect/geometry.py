"""Dissection vocabulary: rectangles, regions, rigid transforms,
placements, and the certificate object with its JSON wire format.

All coordinates are QuadExt values; the JSON form serialises every number
through the canonical Q(sqrt(21)) text representation, so files round-trip
bit-exactly.  Every document is read by one strict walk, which yields a
``WireCertificate`` of coordinate texts and their parsed triples: the
checker takes it as it is, and ``loads_certificate`` builds objects from it.
Generated certificates are views over lattice data
(``certificate_from_lattice``), and ``dumps_lattice`` writes that data as
the document ``dumps_certificate`` writes for its view, byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from ..exact import (
    QuadExt,
    quad_from_triple,
    quad_to_text,
    triple_from_text,
    triple_to_text,
)
from .kernel import (LEFTOVER_LAYER, LatticeCertificate, LatticeRect, Point,
                     bounded, lattice_sign)

class CertificateFormatError(ValueError):
    """Raised when certificate JSON cannot be decoded."""


class Rect(NamedTuple):
    x: QuadExt
    y: QuadExt
    w: QuadExt
    h: QuadExt


@dataclass(frozen=True)
class Region:
    """A labelled union of axis-aligned rectangles (one puzzle piece)."""

    label: str
    rects: tuple[Rect, ...]


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


# -- objects as views over lattice data ---------------------------------------


class LabelledLattice(NamedTuple):
    """Kernel data, and the labels the kernel never reads ("target" on targets)."""

    cert: LatticeCertificate
    labels: Sequence[str]
    leftover_labels: Sequence[str]


def _labelled(items: Sequence[Any], labels: Sequence[str], what: str) -> zip:
    """Each of ``items`` with its label; unequal counts would drop items
    without a word, so they are refused."""
    if len(items) != len(labels):
        raise ValueError(f"{what} and their labels differ in count: "
                         f"{len(items)} and {len(labels)}")
    return zip(items, labels, strict=True)


class PointTable(dict[Point, Any]):
    """``convert((*point, d))`` of each lattice point over d, made once per point."""

    def __init__(self, d: int, convert: Callable[[tuple[int, int, int]], Any]) -> None:
        self.d = d
        self.convert = convert

    def __missing__(self, point: Point) -> Any:
        value = self[point] = self.convert((*point, self.d))
        return value


def lattice_area(cert: LatticeCertificate, side: str) -> QuadExt:
    """The exact area of ``cert``'s piece sources (``side`` "source_area")
    or targets ("target_area"), summed on lattice ints: the one statement
    of a certificate's area.  Any other side is a ``ValueError``."""
    if side not in ("source_area", "target_area"):
        raise ValueError("side must be 'source_area' or 'target_area', got "
                         f"{bounded(repr(side))}")
    a = b = 0
    for rects in ([piece[2] for piece in cert.pieces] if side == "source_area"
                  else [rects for _layer, rects in cert.targets]):
        for (x1a, x1b), (y1a, y1b), (x2a, x2b), (y2a, y2b) in rects:
            a += (x2a - x1a) * (y2a - y1a) + 21 * (x2b - x1b) * (y2b - y1b)
            b += (x2a - x1a) * (y2b - y1b) + (x2b - x1b) * (y2a - y1a)
    return quad_from_triple((a, b, cert.denominator ** 2))


def certificate_from_lattice(data: LabelledLattice) -> DissectionCertificate:
    """The certificate object whose kernel data is ``data.cert``."""
    cert, view = data.cert, PointTable(data.cert.denominator, quad_from_triple)

    def region(label: str, rects: Iterable[LatticeRect]) -> Region:
        return Region(label, tuple(
            Rect(view[x1], view[y1], view[x2[0] - x1[0], x2[1] - x1[1]],
                 view[y2[0] - y1[0], y2[1] - y1[1]]) for x1, y1, x2, y2 in rects))

    placements = tuple(
        Placement(piece_id, layer, region(label, rects),
                  RigidTransform(turns, reflect, view[dx], view[dy]), dest)
        for (piece_id, layer, rects, (turns, reflect, dx, dy), dest), label
        in _labelled(cert.pieces, data.labels, "pieces"))
    leftovers = tuple(region(label, rects) for rects, label
                      in _labelled(cert.leftovers, data.leftover_labels, "leftovers"))
    return DissectionCertificate(
        cert.construction, cert.n, placements,
        tuple((layer, region("target", rects)) for layer, rects in cert.targets),
        leftovers)


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


def dumps_lattice(data: LabelledLattice) -> str:
    """``dumps_certificate(certificate_from_lattice(data))``, byte for byte,
    for data of the kernel's types, written with no object and no
    ``QuadExt``: each distinct point is formatted once, strings are escaped
    by ``json``'s own encoder, and the ``indent=1`` document is joined from
    strings."""
    cert = data.cert
    quoted = PointTable(cert.denominator, lambda t: f'"{triple_to_text(t)}"')
    q = encode_basestring_ascii

    def region(label: str, rects: Sequence[LatticeRect], k: int) -> str:
        """A region whose keys sit ``k`` spaces in."""
        pad, inner = "\n" + " " * k, "\n" + " " * (k + 1)
        head = f"{{{pad}\"label\": {q(label)},{pad}\"rects\": ["
        if not rects:
            return f"{head}]\n{' ' * (k - 1)}}}"
        sep = inner + " "
        body = ",".join(
            f"{inner}[{sep}{quoted[x1]},{sep}{quoted[y1]},{sep}"
            f"{quoted[x2[0] - x1[0], x2[1] - x1[1]]},{sep}"
            f"{quoted[y2[0] - y1[0], y2[1] - y1[1]]}{inner}]"
            for x1, y1, x2, y2 in rects)
        return f"{head}{body}{pad}]\n{' ' * (k - 1)}}}"

    def items(chunks: list[str]) -> str:
        """The list value of a top-level key, whose ``chunks`` each start
        with their own newline."""
        return f"[{','.join(chunks)}\n ]" if chunks else "[]"

    placements = items([
        f'\n  {{\n   "piece_id": {q(piece_id)},\n   "source_layer": {q(layer)},'
        f'\n   "source": {region(label, rects, 4)},\n   "transform": {{'
        f'\n    "quarter_turns": {turns},'
        f'\n    "reflect": {"true" if reflect else "false"},'
        f'\n    "dx": {quoted[dx]},\n    "dy": {quoted[dy]}\n   }},'
        f'\n   "destination_layer": {q(dest)}\n  }}'
        for (piece_id, layer, rects, (turns, reflect, dx, dy), dest), label
        in _labelled(cert.pieces, data.labels, "pieces")])
    targets = items([
        f'\n  {{\n   "layer": {q(layer)},\n   "region": '
        f'{region("target", rects, 4)}\n  }}' for layer, rects in cert.targets])
    leftovers = items([f"\n  {region(label, rects, 3)}" for rects, label
                       in _labelled(cert.leftovers, data.leftover_labels, "leftovers")])
    return (f'{{\n "construction": {q(cert.construction)},\n "n": {cert.n},'
            f'\n "placements": {placements},\n "targets": {targets},'
            f'\n "leftovers": {leftovers}\n}}')


def loads_certificate(text: str) -> DissectionCertificate:
    return certificate_from_json(_decode(text))


def read_certificate(text: str) -> WireCertificate:
    """A certificate document read for ``check_certificate`` alone: the same
    strict walk as ``loads_certificate``, with the same errors, but no
    ``QuadExt``, ``Rect`` or ``Region`` is built."""
    return _walk(_decode(text))
