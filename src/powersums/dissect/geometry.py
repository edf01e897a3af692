"""Dissection vocabulary: rectangles, regions, rigid transforms,
placements, and the certificate object with its JSON wire format.

All coordinates are QuadExt values; the JSON form serialises every number
through the canonical Q(sqrt(21)) text representation, so files round-trip
bit-exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable, NamedTuple

from ..exact import ZERO, QuadExt, QuadLike, quad_from_text, quad_to_text

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

#: Reserved destination layer id: pieces sent here must tile the declared
#: leftover regions instead of a target frame.
LEFTOVER_LAYER = "leftover"


class CertificateFormatError(ValueError):
    """Raised when certificate JSON cannot be decoded."""


class Rect(NamedTuple):
    x: QuadExt
    y: QuadExt
    w: QuadExt
    h: QuadExt

    @property
    def x2(self) -> QuadExt:
        return self.x + self.w

    @property
    def y2(self) -> QuadExt:
        return self.y + self.h

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

    def apply_point(self, x: QuadExt, y: QuadExt) -> tuple[QuadExt, QuadExt]:
        if self.reflect:
            x = -x
        for _ in range(self.quarter_turns % 4):
            x, y = -y, x
        return x + self.dx, y + self.dy

    def apply_rect(self, r: Rect) -> Rect:
        x1, y1 = self.apply_point(r.x, r.y)
        x2, y2 = self.apply_point(r.x2, r.y2)
        lo_x, hi_x = (x1, x2) if x1 < x2 else (x2, x1)
        lo_y, hi_y = (y1, y2) if y1 < y2 else (y2, y1)
        return Rect(lo_x, lo_y, hi_x - lo_x, hi_y - lo_y)

    def apply_region(self, region: Region) -> Region:
        return Region(region.label, tuple(self.apply_rect(r) for r in region.rects))

    @staticmethod
    def translation(dx: QuadLike, dy: QuadLike) -> RigidTransform:
        return RigidTransform(0, False, QuadExt.of(dx), QuadExt.of(dy))


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
        return self.transform.apply_region(self.source)


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


# -- JSON wire format ----------------------------------------------------


def _typed(value: Any, kind: type, what: str) -> Any:
    """``value`` if its JSON type is exactly ``kind``: no value is coerced,
    and no bool passes for an int."""
    if type(value) is not kind:
        raise CertificateFormatError(
            f"{what} must be a JSON {kind.__name__}, got {value!r}")
    return value


def _rect_to_json(r: Rect) -> list[str]:
    return [quad_to_text(v) for v in r]


def _rect_from_json(data: Any) -> Rect:
    if not isinstance(data, list) or len(data) != 4:
        raise CertificateFormatError(f"rect must be a 4-list, got {data!r}")
    x, y, w, h = (quad_from_text(v) for v in data)
    return rect(x, y, w, h)


def _region_to_json(region: Region) -> dict[str, Any]:
    return {
        "label": region.label,
        "rects": [_rect_to_json(r) for r in region.rects],
    }


def _region_from_json(data: Any) -> Region:
    if not isinstance(data, dict) or "label" not in data or "rects" not in data:
        raise CertificateFormatError(f"region must have label and rects: {data!r}")
    rects = _typed(data["rects"], list, "rects")
    return Region(_typed(data["label"], str, "label"),
                  tuple(_rect_from_json(r) for r in rects))


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
    try:
        construction = _typed(data["construction"], str, "construction")
        n = _typed(data["n"], int, "n")
        placements = tuple(
            Placement(
                piece_id=_typed(p["piece_id"], str, "piece_id"),
                source_layer=_typed(p["source_layer"], str, "source_layer"),
                source=_region_from_json(p["source"]),
                transform=RigidTransform(
                    quarter_turns=_typed(p["transform"]["quarter_turns"], int,
                                         "quarter_turns"),
                    reflect=_typed(p["transform"]["reflect"], bool, "reflect"),
                    dx=quad_from_text(p["transform"]["dx"]),
                    dy=quad_from_text(p["transform"]["dy"]),
                ),
                destination_layer=_typed(p["destination_layer"], str,
                                         "destination_layer"),
            )
            for p in _typed(data["placements"], list, "placements")
        )
        targets = tuple(
            (_typed(t["layer"], str, "layer"), _region_from_json(t["region"]))
            for t in _typed(data["targets"], list, "targets")
        )
        leftovers = tuple(_region_from_json(r)
                          for r in _typed(data["leftovers"], list, "leftovers"))
    except CertificateFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CertificateFormatError(f"bad certificate structure: {exc}") from exc
    return DissectionCertificate(construction, n, placements, targets, leftovers)


def dumps_certificate(cert: DissectionCertificate) -> str:
    return json.dumps(certificate_to_json(cert), indent=1)


def loads_certificate(text: str) -> DissectionCertificate:
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CertificateFormatError(f"not valid JSON: {exc}") from exc
    return certificate_from_json(data)
