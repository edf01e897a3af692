"""Dissection certificates: geometry, generators, and the exact-cover checker
(a verdict rests on ``powersums.kernel``, which this package imports).

Each name lives in the submodule that defines it, and callers import it
from there.  The package binds only the ten names that the benchmark under
``perfbench/`` reads as attributes of ``powersums.dissect``: the seven
public builders, ``full_theorem_report``, ``dumps_certificate`` and
``mutate_placement``.  Importing them binds the submodules ``geometry``,
``checker``, ``generators`` and ``mutants`` too."""

from .generators import (
    five_pyramids_layers,
    full_theorem_report,
    gauss_rectangle,
    nicomachus_4d_2d,
    step2_reshape,
    step3_scissor,
    step4_top_layer,
    three_pyramids_2d,
)
from .geometry import dumps_certificate
from .mutants import mutate_placement
