"""Corrupted certificates for mutation sensitivity: every mutant of a valid
certificate must fail the checker."""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Callable

from .geometry import DissectionCertificate, RigidTransform

#: each mutation kind -> its edit of a placement's transform
_EDITS: dict[str, Callable[[RigidTransform], RigidTransform]] = {
    "translate+x": lambda t: replace(t, dx=t.dx + 1),
    "translate-x": lambda t: replace(t, dx=t.dx - 1),
    "translate+y": lambda t: replace(t, dy=t.dy + 1),
    "translate-y": lambda t: replace(t, dy=t.dy - 1),
    "quarter-turn": lambda t: replace(t, quarter_turns=(t.quarter_turns + 1) % 4),
    "reflect": lambda t: replace(t, reflect=not t.reflect),
}

MUTATION_KINDS = tuple(_EDITS)


def mutate_placement(cert: DissectionCertificate, rng: random.Random,
                     ) -> tuple[DissectionCertificate, str]:
    """Corrupt one random placement by a unit translation, an extra
    quarter turn, or a reflection toggle; returns the mutant and a label."""
    idx = rng.randrange(len(cert.placements))
    kind = MUTATION_KINDS[rng.randrange(len(MUTATION_KINDS))]
    p = cert.placements[idx]
    placements = list(cert.placements)
    placements[idx] = replace(p, transform=_EDITS[kind](p.transform))
    return replace(cert, placements=tuple(placements)), f"{kind} on {p.piece_id}"
