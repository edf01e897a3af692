"""Dissection certificates: geometry, generators, and the exact-cover checker
(``kernel`` is the part a verdict rests on).

``read_certificate`` reads a document into the flat ``WireCertificate``
that ``check_certificate`` takes; ``loads_certificate`` and
``certificate_from_json`` return the object view of the same record's
lattice data, and ``dumps_certificate`` writes an object back through
the same walk and the one writer, ``geometry.dumps_lattice``.
``mutate_placement`` corrupts an object with ``mutants.MUTATIONS``, the
table that criterion 07 applies to lattice data (``mutants.mutate_piece``)."""

from .checker import (
    CellInterval,
    CheckFailure,
    CheckReport,
    check_certificate,
    covers_exactly,
)
from .generators import (
    StageCheckError,
    TopLayerResult,
    UnsupportedN,
    excess_corner_layout,
    five_pyramids_layers,
    full_theorem_report,
    gauss_rectangle,
    nicomachus_4d_2d,
    step2_reshape,
    step3_scissor,
    step4_top_layer,
    three_pyramids_2d,
)
from .geometry import (
    LEFTOVER_LAYER,
    CertificateFormatError,
    DissectionCertificate,
    Placement,
    Rect,
    Region,
    RigidTransform,
    WireCertificate,
    certificate_from_json,
    certificate_to_json,
    dumps_certificate,
    loads_certificate,
    read_certificate,
)
from .kernel import CONSTRUCTIONS
from .mutants import mutate_placement

__all__ = [
    "CONSTRUCTIONS",
    "LEFTOVER_LAYER",
    "CellInterval",
    "CertificateFormatError",
    "CheckFailure",
    "CheckReport",
    "DissectionCertificate",
    "Placement",
    "Rect",
    "Region",
    "RigidTransform",
    "StageCheckError",
    "TopLayerResult",
    "UnsupportedN",
    "WireCertificate",
    "certificate_from_json",
    "certificate_to_json",
    "check_certificate",
    "covers_exactly",
    "dumps_certificate",
    "excess_corner_layout",
    "five_pyramids_layers",
    "full_theorem_report",
    "gauss_rectangle",
    "loads_certificate",
    "mutate_placement",
    "nicomachus_4d_2d",
    "read_certificate",
    "step2_reshape",
    "step3_scissor",
    "step4_top_layer",
    "three_pyramids_2d",
]
