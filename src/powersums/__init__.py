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
