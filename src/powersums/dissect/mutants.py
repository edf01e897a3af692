"""Corrupted certificates for mutation sensitivity: every mutant of a valid
certificate must fail the checker."""

from __future__ import annotations

import random
from dataclasses import replace

from ..exact import QuadExt
from .geometry import DissectionCertificate, Placement

MUTATION_KINDS = (
    "translate+x", "translate-x", "translate+y", "translate-y",
    "quarter-turn", "reflect",
)


def mutate_placement(cert: DissectionCertificate, rng: random.Random,
                     ) -> tuple[DissectionCertificate, str]:
    """Corrupt one random placement by a unit translation, an extra
    quarter turn, or a reflection toggle; returns the mutant and a label."""
    idx = rng.randrange(len(cert.placements))
    kind = MUTATION_KINDS[rng.randrange(len(MUTATION_KINDS))]
    p = cert.placements[idx]
    t = p.transform
    one = QuadExt(1)
    if kind == "translate+x":
        t = replace(t, dx=t.dx + one)
    elif kind == "translate-x":
        t = replace(t, dx=t.dx - one)
    elif kind == "translate+y":
        t = replace(t, dy=t.dy + one)
    elif kind == "translate-y":
        t = replace(t, dy=t.dy - one)
    elif kind == "quarter-turn":
        t = replace(t, quarter_turns=(t.quarter_turns + 1) % 4)
    else:
        t = replace(t, reflect=not t.reflect)
    placements = list(cert.placements)
    placements[idx] = Placement(p.piece_id, p.source_layer, p.source, t,
                                p.destination_layer)
    mutant = DissectionCertificate(
        cert.construction, cert.n, tuple(placements), cert.targets, cert.leftovers
    )
    return mutant, f"{kind} on {p.piece_id}"
