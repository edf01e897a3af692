"""Exact-arithmetic engine for dissection proofs of the power-sum
formulas S_p(n), p = 1..4.

The package verifies, at desk scale, the cut-and-paste constructions
behind the factorised closed forms: staircases into rectangles, pyramid
sections, the four-pyramid cube puzzle, and the five-pyramid construction
whose scissor cut of width (-3 + sqrt(21))/6 explains the irreducible
factor (3n^2 + 3n - 1).
"""

# dissect first: exact takes its sign routine from dissect.kernel, and the
# rest of dissect needs exact complete
from . import dissect  # noqa: F401
from .exact import (
    QuadExt,
    Rat,
    quad_compare,
    quad_from_text,
    quad_to_float,
    quad_to_text,
    rat_to_text,
    strip_root,
)
from .figurate import (
    ConstraintViolated,
    IdentityError,
    IdentityReport,
    IDENTITY_NAMES,
    MissingParameter,
    bernoulli,
    bernoulli_table,
    evaluate_identity,
    faulhaber,
    odd_weighted_squares,
    sum_powers_bruteforce,
    truncated_power_sum,
)
from .pyramid import (
    AxisOutOfRange,
    CellSet,
    DimensionOutOfRange,
    NotAPyramid,
    build_pyramid,
    main_sections,
    secondary_sections,
    sections_agree,
    truncated_pyramid,
)
from .render import FIGURE_NAMES, PALETTE, FigureSpec, emit_figure

__version__ = "0.1.0"

__all__ = [
    "AxisOutOfRange",
    "CellSet",
    "ConstraintViolated",
    "DimensionOutOfRange",
    "FIGURE_NAMES",
    "FigureSpec",
    "IDENTITY_NAMES",
    "IdentityError",
    "IdentityReport",
    "MissingParameter",
    "NotAPyramid",
    "PALETTE",
    "QuadExt",
    "Rat",
    "bernoulli",
    "bernoulli_table",
    "build_pyramid",
    "emit_figure",
    "evaluate_identity",
    "faulhaber",
    "main_sections",
    "odd_weighted_squares",
    "quad_compare",
    "quad_from_text",
    "quad_to_float",
    "quad_to_text",
    "rat_to_text",
    "secondary_sections",
    "sections_agree",
    "strip_root",
    "sum_powers_bruteforce",
    "truncated_power_sum",
    "truncated_pyramid",
]
