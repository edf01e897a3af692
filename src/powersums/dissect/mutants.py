"""Corrupted certificates for mutation sensitivity: every mutant of a valid
certificate must fail the checker.  ``MUTATIONS`` states each edit once;
``mutate_piece`` applies one to lattice data (criterion 07), and
``mutate_placement`` to a certificate object, with the same draws."""

from __future__ import annotations

import random
from dataclasses import replace

from .geometry import DissectionCertificate, LabelledLattice

#: each mutation kind -> (quarter turns added, ``reflect`` toggled, unit
#: shift in x, unit shift in y)
MUTATIONS: dict[str, tuple[int, bool, int, int]] = {
    "translate+x": (0, False, 1, 0),
    "translate-x": (0, False, -1, 0),
    "translate+y": (0, False, 0, 1),
    "translate-y": (0, False, 0, -1),
    "quarter-turn": (1, False, 0, 0),
    "reflect": (0, True, 0, 0),
}

MUTATION_KINDS = tuple(MUTATIONS)


def _draw(count: int, rng: random.Random) -> tuple[int, str]:
    """The index of the piece to corrupt, of ``count``, then its kind."""
    index = rng.randrange(count)
    return index, MUTATION_KINDS[rng.randrange(len(MUTATION_KINDS))]


def mutate_piece(data: LabelledLattice, rng: random.Random,
                 ) -> tuple[LabelledLattice, str]:
    """``data`` with one random piece's transform edited, a unit shift
    being (D, 0); returns the mutant and a label."""
    cert = data.cert
    index, kind = _draw(len(cert.pieces), rng)
    turns, flip, sx, sy = MUTATIONS[kind]
    piece_id, layer, rects, (quarter_turns, reflect, dx, dy), dest = cert.pieces[index]
    d = cert.denominator
    pieces = list(cert.pieces)
    pieces[index] = (piece_id, layer, rects,
                     ((quarter_turns + turns) % 4, reflect != flip,
                      (dx[0] + sx * d, dx[1]), (dy[0] + sy * d, dy[1])), dest)
    return data._replace(cert=cert._replace(pieces=pieces)), f"{kind} on {piece_id}"


def mutate_placement(cert: DissectionCertificate, rng: random.Random,
                     ) -> tuple[DissectionCertificate, str]:
    """``cert`` with one random placement's transform edited as
    ``mutate_piece`` edits a piece; returns the mutant and a label."""
    index, kind = _draw(len(cert.placements), rng)
    turns, flip, sx, sy = MUTATIONS[kind]
    p = cert.placements[index]
    t = p.transform
    transform = replace(t, quarter_turns=(t.quarter_turns + turns) % 4,
                        reflect=t.reflect != flip, dx=t.dx + sx, dy=t.dy + sy)
    placements = list(cert.placements)
    placements[index] = replace(p, transform=transform)
    return replace(cert, placements=tuple(placements)), f"{kind} on {p.piece_id}"
