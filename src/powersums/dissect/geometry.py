"""Dissection vocabulary: rectangles, regions, rigid transforms,
placements, and the certificate object with its JSON wire format.

All coordinates are QuadExt values; the JSON form serialises every number
through the canonical Q(sqrt(21)) text representation, so files round-trip
bit-exactly.  Every document is read by one strict walk into a flat
``WireCertificate`` (its layout, the texts of every rect in document order
and the parsed triple of each distinct text), and ``_lattice`` is the one
conversion of that record into lattice data: the checker judges what it
returns, and ``loads_certificate`` views it.  Every certificate object is a
view over lattice data (``certificate_from_lattice``), and ``dumps_lattice``
is the one writer: ``dumps_certificate`` writes an object through the walk,
``_lattice`` and ``dumps_lattice``, so every document written is one the
reader reads."""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from itertools import islice
from math import lcm
from typing import Any, Callable, Collection, Iterable, NamedTuple, Sequence

from ..exact import (
    QuadExt,
    quad_from_triple,
    quad_to_text,
    triple_from_text,
    triple_to_text,
)
from . import kernel
from .kernel import (MAX_DENOMINATOR_BITS, LatticeCertificate, LatticeRect,
                     Point, bounded, lattice_sign)

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
    destination layer (``kernel.LEFTOVER_LAYER`` for set-aside pieces)."""

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
    a, b, r = 0, 0, kernel.RADICAND
    for rects in ([piece[2] for piece in cert.pieces] if side == "source_area"
                  else [rects for _layer, rects in cert.targets]):
        for (x1a, x1b), (y1a, y1b), (x2a, x2b), (y2a, y2b) in rects:
            a += (x2a - x1a) * (y2a - y1a) + r * (x2b - x1b) * (y2b - y1b)
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

Triple = tuple[int, int, int]


class WireCertificate(NamedTuple):
    """A certificate document that passed the strict walk, flat and in
    document order: the layout of each placement, target and leftover (no
    target label: the walk allows only "target"), the x, y, w, h texts of
    every rect in ``keys``, and the (A, B, D) triple of each distinct text,
    parsed once.  ``_lattice`` turns it into lattice data."""

    construction: str
    n: int
    #: (piece_id, source_layer, label, quarter_turns, reflect, rect count,
    #: dx, dy, destination_layer) of each placement
    pieces: list[tuple[str, str, str, int, bool, int, str, str, str]]
    targets: list[tuple[str, int]]  # (layer, rect count)
    leftovers: list[tuple[str, int]]  # (label, rect count)
    keys: list[str]
    values: dict[str, Triple]


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


def _lattice(wire: WireCertificate) -> LabelledLattice:
    """The lattice data of ``wire``, over D, the lcm of its denominators:
    the one way from coordinate texts to lattice points.  Raises
    ``ValueError`` where ``_lattice_points`` does."""
    d, points = _lattice_points(wire.values.values())
    at = {key: points[t] for key, t in wire.values.items()}
    flat = map(at.__getitem__, wire.keys)
    rects = iter([(x, y, (x[0] + w[0], x[1] + w[1]), (y[0] + h[0], y[1] + h[1]))
                  for x, y, w, h in zip(flat, flat, flat, flat)])
    pieces = [(piece_id, layer, list(islice(rects, k)),
               (turns, reflect, at[dx], at[dy]), dest)
              for piece_id, layer, _label, turns, reflect, k, dx, dy, dest
              in wire.pieces]
    targets = [(layer, list(islice(rects, k))) for layer, k in wire.targets]
    leftovers = [list(islice(rects, k)) for _label, k in wire.leftovers]
    return LabelledLattice(
        LatticeCertificate(wire.construction, wire.n, pieces, targets, leftovers, d),
        [piece[2] for piece in wire.pieces], [label for label, _k in wire.leftovers])


def _typed(value: Any, kind: type, what: str) -> Any:
    """``value`` if its JSON type is exactly ``kind``: no value is coerced,
    and no bool passes for an int."""
    if type(value) is not kind:
        raise CertificateFormatError(
            f"{what} must be a JSON {kind.__name__}, got {bounded(repr(value))}")
    return value


def _only(obj: dict[str, Any], known: tuple[str, ...], what: str) -> None:
    """Refuse a key of ``obj`` beyond its ``known`` keys, all of them read."""
    if len(obj) != len(known):
        key = next(k for k in obj if k not in known)
        raise CertificateFormatError(f"unknown key {bounded(repr(key))} in {what}")


def _walk(data: Any) -> WireCertificate:
    """The one strict reading of a decoded certificate document.

    Fields are read in document order (construction, n, each placement,
    each target, each leftover) and the first defect is raised as a
    ``CertificateFormatError``; an object's key beyond its own is refused
    once the object is read, and a target region labelled anything but
    "target" once its rects are read.  Each distinct coordinate text is
    parsed once; a text is looked up only once it is known to be a str, so
    a value of another JSON type gets the parser's own message.
    """
    values: dict[str, Triple] = {}
    keys: list[str] = []
    positive: set[str] = set()  # texts known to be > 0

    def coordinate(text: Any) -> str:
        if type(text) is not str or text not in values:
            values[text] = triple_from_text(text)
        return text

    def region(data: Any) -> tuple[str, int]:
        if not isinstance(data, dict) or "label" not in data or "rects" not in data:
            raise CertificateFormatError(
                f"region must have label and rects: {bounded(repr(data))}")
        rects = _typed(data["rects"], list, "rects")
        label = _typed(data["label"], str, "label")
        for r in rects:
            if not isinstance(r, list) or len(r) != 4:
                raise CertificateFormatError(
                    f"rect must be a 4-list, got {bounded(repr(r))}")
            for text in r:  # coordinate(text), inlined in the hot loop
                if type(text) is not str or text not in values:
                    values[text] = triple_from_text(text)
            keys.extend(r)
            w, h = r[2], r[3]
            if w not in positive or h not in positive:
                for side in (w, h):
                    if lattice_sign(*values[side][:2]) <= 0:
                        raise ValueError("rectangle sides must be positive: "
                                         f"w={bounded(w)} h={bounded(h)}")
                    positive.add(side)
        _only(data, ("label", "rects"), "a region")
        return label, len(rects)

    try:
        construction = _typed(data["construction"], str, "construction")
        n = _typed(data["n"], int, "n")
        pieces = []
        for p in _typed(data["placements"], list, "placements"):
            piece_id = _typed(p["piece_id"], str, "piece_id")
            source_layer = _typed(p["source_layer"], str, "source_layer")
            label, count = region(p["source"])
            t = p["transform"]
            turns = _typed(t["quarter_turns"], int, "quarter_turns")
            reflect = _typed(t["reflect"], bool, "reflect")
            dx, dy = coordinate(t["dx"]), coordinate(t["dy"])
            _only(t, ("quarter_turns", "reflect", "dx", "dy"), "a transform")
            pieces.append((piece_id, source_layer, label, turns, reflect, count, dx, dy,
                           _typed(p["destination_layer"], str, "destination_layer")))
            _only(p, ("piece_id", "source_layer", "source", "transform",
                      "destination_layer"), "a placement")
        targets = []
        for t in _typed(data["targets"], list, "targets"):
            layer = _typed(t["layer"], str, "layer")
            label, count = region(t["region"])
            if label != "target":
                raise CertificateFormatError(
                    "a target region must be labelled 'target', got "
                    f"{bounded(repr(label))}")
            targets.append((layer, count))
            _only(t, ("layer", "region"), "a target")
        leftovers = [region(r)
                     for r in _typed(data["leftovers"], list, "leftovers")]
        _only(data, ("construction", "n", "placements", "targets", "leftovers"),
              "the certificate")
    except CertificateFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CertificateFormatError(f"bad certificate structure: {exc}") from exc
    return WireCertificate(construction, n, pieces, targets, leftovers, keys, values)


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
    """The certificate view of a decoded document's lattice data;
    ``CertificateFormatError`` if the strict walk refuses it, and
    ``ValueError`` past ``MAX_DENOMINATOR_BITS``."""
    return certificate_from_lattice(_lattice(_walk(data)))


def dumps_certificate(cert: DissectionCertificate) -> str:
    """``cert``'s document, written by ``dumps_lattice`` from the strict
    walk of ``certificate_to_json(cert)``: an object is written only if its
    document would be read, and a malformed one gets the reader's
    ``CertificateFormatError`` (or ``ValueError`` past
    ``MAX_DENOMINATOR_BITS``)."""
    return dumps_lattice(_lattice(_walk(certificate_to_json(cert))))


def dumps_lattice(data: LabelledLattice) -> str:
    """The one certificate writer, for data of the kernel's types, with no
    object and no ``QuadExt``: each distinct point is formatted once,
    strings are escaped by ``json``'s own encoder, and the document is
    joined from strings, byte for byte as
    ``json.dumps(certificate_to_json(certificate_from_lattice(data)), indent=1)``
    writes it."""
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
    """A certificate document read for ``check_certificate``: the same
    strict walk as ``loads_certificate``, with the same errors.  Its lattice
    data is made inside the check, so a common denominator past
    ``MAX_DENOMINATOR_BITS`` is a failing report, not an exception."""
    return _walk(_decode(text))
