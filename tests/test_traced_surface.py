"""The benchmark's traced run can wrap the package and put it back.

``perfbench/tracing.py`` spans package functions by name, so renaming or
deleting one of them breaks the traced benchmark run.  This test installs
that instrumentation on the imported package, runs the pipeline and the
spanned functions it no longer calls (it checks lattice data, with no
certificate object) under it, and checks that ``uninstall`` restores every
wrapped function.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # it imports only the standard library
    return module


def _surface(mods):
    return (mods.cli.main, mods.cli._GENERATORS["GAUSS_RECT"],
            mods.exact.QuadExt.__init__, mods.dissect.geometry.Placement.placed,
            mods.dissect.generators.step4_top_layer)


def test_instrumentation_wraps_the_pipeline_and_uninstalls():
    tracing = _tracing()
    mods = SimpleNamespace(**{
        name: importlib.import_module(f"powersums.{name}")
        for name in ("cli", "dissect", "exact", "figurate", "pyramid",
                     "render")})
    before = _surface(mods)
    inst = tracing.Instrumentation(mods, tracing.Tracer())
    inst.install()
    try:
        assert all(a is not b for a, b in zip(_surface(mods), before))
        assert mods.dissect.full_theorem_report(2).holds
        pipeline = dict(inst.tracer.self_s), inst.snapshot()
        rects = mods.dissect.step4_top_layer(2).overlap.placements[0].source.rects
        assert mods.dissect.checker.covers_exactly(rects, rects)
    finally:
        inst.uninstall()
    assert _surface(mods) == before
    spans, counts = pipeline
    for name in ("generators.full_theorem_report", "checker.check_certificate"):
        assert spans[name] > 0, name
    assert counts["checker.calls"] > 0
    for name in ("generators.step4_top_layer", "checker.covers_exactly"):
        assert inst.tracer.self_s[name] > 0, name
    assert inst.snapshot()["generators.placements"] > 0
