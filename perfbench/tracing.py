"""Per-module tracing for the traced run, installed from outside the package.

``Instrumentation.install`` rebinds the package's public functions (and the
methods the metrics name) to wrappers, wherever a module or a module-level
table holds them, and ``uninstall`` puts the originals back.  No source
file changes.  Spans are kept in memory as (id, parent, name, start, end,
op) and written out when the run ends; a span's self time is its duration
minus the time its child spans cover.  Work counters are plain counts made
at the same boundaries.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

#: span name -> metric group whose self time it adds to
SPAN_GROUPS = {
    "cli.main": "cli.self_s",
    "geometry.loads_certificate": "geometry.loads_s",
    "geometry.certificate_from_json": "geometry.loads_s",
    "geometry.dumps_certificate": "geometry.dumps_s",
    "geometry.certificate_to_json": "geometry.dumps_s",
    "geometry.Placement.placed": "geometry.transform_s",
    "checker.check_certificate": "checker.check_s",
    "checker.covers_exactly": "checker.covers_s",
    "generators.gauss_rectangle": "generators.build_s",
    "generators.three_pyramids_2d": "generators.build_s",
    "generators.nicomachus_4d_2d": "generators.build_s",
    "generators.five_pyramids_layers": "generators.build_s",
    "generators.step2_reshape": "generators.build_s",
    "generators.step3_scissor": "generators.build_s",
    "generators.step4_top_layer": "generators.build_s",
    "generators.excess_corner_layout": "generators.build_s",
    "generators.full_theorem_report": "generators.pipeline_self_s",
    "exact.quad_from_text": "exact.parse_s",
    "exact.quad_to_text": "exact.format_s",
    "figurate.evaluate_identity": "figurate.evaluate_s",
    "figurate.faulhaber": "figurate.faulhaber_s",
    "figurate.sum_powers_bruteforce": "figurate.bruteforce_s",
    "figurate.truncated_power_sum": "figurate.bruteforce_s",
    "figurate.odd_weighted_squares": "figurate.bruteforce_s",
    "pyramid.build_pyramid": "pyramid.build_s",
    "pyramid.truncated_pyramid": "pyramid.build_s",
    "pyramid.main_sections": "pyramid.sections_s",
    "pyramid.secondary_sections": "pyramid.sections_s",
    "pyramid.sections_agree": "pyramid.sections_s",
    "render.emit_figure": "render.emit_s",
    "render.figure_cell_count": "render.emit_s",
}

CHECK_SPAN = "checker.check_certificate"


class Tracer:
    """Open-span stack, finished spans, self times and work counts."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.spans: list[tuple[int, Optional[int], str, float, float, Optional[int]]] = []
        self.self_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.op: Optional[int] = None
        self._stack: list[list[Any]] = []  # [id, name, start, child seconds]
        self._ids = itertools.count()

    def enter(self, name: str) -> None:
        self._stack.append([next(self._ids), name, self.clock(), 0.0])

    def exit(self) -> None:
        end = self.clock()
        sid, name, start, child = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((sid, parent[0] if parent else None, name, start,
                           end, self.op))

    def current(self) -> Optional[str]:
        return self._stack[-1][1] if self._stack else None

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, parent, name, start, end, op in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "op": op}))
                fh.write("\n")


def _spanned(tracer: Tracer, name: str, fn: Callable,
             after: Optional[Callable[[Any, tuple], None]]) -> Callable:
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_()
        if after is not None:
            after(result, args)
        return result

    return wrapper


class _Tick:
    """A C-level call counter: ``tick()`` costs one ``next`` call."""

    def __init__(self) -> None:
        self._count = itertools.count()
        self.tick = self._count.__next__
        self._reads = 0

    def value(self) -> int:
        self._reads += 1
        return next(self._count) - self._reads + 1


class Instrumentation:
    """Wrappers for one import of the package, installed and removed as a
    unit."""

    def __init__(self, mods: Any, tracer: Tracer) -> None:
        self.mods = mods
        self.tracer = tracer
        self.quadext_new = _Tick()
        self.compares = _Tick()
        self._undo: list[tuple[Any, Any, Any, bool]] = []

    # -- rebinding ------------------------------------------------------

    def _package_modules(self) -> list[Any]:
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == "powersums"
                                      or name.startswith("powersums."))]

    def _rebind(self, original: Callable, replacement: Callable) -> None:
        """Point every module global and module-level dict entry that holds
        ``original`` at ``replacement``."""
        for module in self._package_modules():
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    self._undo.append((namespace, key, original, False))
                    namespace[key] = replacement
                elif type(value) is dict:
                    for k, v in list(value.items()):
                        if v is original:
                            self._undo.append((value, k, original, False))
                            value[k] = replacement

    def _set_method(self, cls: type, name: str, replacement: Callable) -> None:
        self._undo.append((cls, name, cls.__dict__[name], True))
        setattr(cls, name, replacement)

    def uninstall(self) -> None:
        for container, key, original, is_attr in reversed(self._undo):
            if is_attr:
                setattr(container, key, original)
            else:
                container[key] = original
        self._undo.clear()

    # -- the wrapped surface ----------------------------------------------

    def install(self) -> None:
        m, t, counts = self.mods, self.tracer, self.tracer.counts
        d = m.dissect
        geometry, checker, generators = d.geometry, d.checker, d.generators

        def span(module: Any, qualname: str, fn_name: str,
                 after: Optional[Callable[[Any, tuple], None]] = None) -> None:
            original = getattr(module, fn_name)
            self._rebind(original, _spanned(t, qualname, original, after))

        def add(name: str, amount: int) -> None:
            counts[name] += amount

        def cert_work(cert: Any) -> None:
            add("generators.placements", len(cert.placements))
            add("generators.rects",
                sum(len(p.source.rects) for p in cert.placements))

        def generated(result: Any, _args: tuple) -> None:
            if hasattr(result, "certificates"):
                for cert in result.certificates():
                    cert_work(cert)
            elif hasattr(result, "placements"):
                cert_work(result)

        def checked(report: Any, _args: tuple) -> None:
            add("checker.calls", 1)
            add("checker.rejects", 0 if report.ok else 1)

        span(m.cli, "cli.main", "main")
        span(geometry, "geometry.loads_certificate", "loads_certificate",
             lambda r, a: add("geometry.json_bytes", len(a[0])))
        span(geometry, "geometry.certificate_from_json", "certificate_from_json")
        span(geometry, "geometry.dumps_certificate", "dumps_certificate",
             lambda r, a: add("geometry.json_bytes", len(r)))
        span(geometry, "geometry.certificate_to_json", "certificate_to_json")
        span(checker, "checker.check_certificate", "check_certificate", checked)
        span(checker, "checker.covers_exactly", "covers_exactly")
        for name in ("gauss_rectangle", "three_pyramids_2d", "nicomachus_4d_2d",
                     "five_pyramids_layers", "step2_reshape", "step3_scissor",
                     "step4_top_layer"):
            span(generators, f"generators.{name}", name, generated)
        span(generators, "generators.excess_corner_layout", "excess_corner_layout")
        span(generators, "generators.full_theorem_report", "full_theorem_report")
        span(m.exact, "exact.quad_from_text", "quad_from_text",
             lambda r, a: add("exact.parses", 1))
        span(m.exact, "exact.quad_to_text", "quad_to_text",
             lambda r, a: add("exact.formats", 1))
        span(m.figurate, "figurate.evaluate_identity", "evaluate_identity",
             lambda r, a: add("figurate.evaluations", 1))
        for name in ("faulhaber", "sum_powers_bruteforce", "truncated_power_sum",
                     "odd_weighted_squares"):
            span(m.figurate, f"figurate.{name}", name)
        span(m.pyramid, "pyramid.build_pyramid", "build_pyramid",
             lambda r, a: add("pyramid.cells", len(r)))
        span(m.pyramid, "pyramid.truncated_pyramid", "truncated_pyramid",
             lambda r, a: add("pyramid.cells", len(r)))
        for name in ("main_sections", "secondary_sections", "sections_agree"):
            span(m.pyramid, f"pyramid.{name}", name)
        span(m.render, "render.emit_figure", "emit_figure",
             lambda r, a: add("render.bytes", len(r)))
        span(m.render, "render.figure_cell_count", "figure_cell_count")

        placed = geometry.Placement.placed

        def placed_after(region: Any, _args: tuple) -> None:
            add("geometry.rects_placed", len(region.rects))

        self._set_method(geometry.Placement, "placed",
                         _spanned(t, "geometry.Placement.placed", placed,
                                  placed_after))

        # checker internals: counted only, and only inside check_certificate,
        # so that covers_exactly's grid work is not mixed in
        current = t.current

        def layer_counted(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args: Any) -> Any:
                failure, cells = result = fn(*args)
                if current() == CHECK_SPAN:
                    counts["checker.layers"] += 1
                    counts["checker.cells"] += cells
                return result
            return wrapper

        for name in ("_check_layer_cover", "_check_source_disjoint"):
            self._rebind(getattr(checker, name),
                         layer_counted(getattr(checker, name)))
        grid_counts = checker._grid_counts

        @functools.wraps(grid_counts)
        def grid_counted(*args: Any) -> Any:
            xs, ys, grids = result = grid_counts(*args)
            if current() == CHECK_SPAN:
                counts["checker.distinct_coords"] += len(xs) + len(ys)
            return result

        self._rebind(grid_counts, grid_counted)

        # QuadExt constructions and ordering calls: C-level counters only
        quad = m.exact.QuadExt
        init, new_tick = quad.__init__, self.quadext_new.tick

        def counted_init(self_: Any, a: Any = 0, b: Any = 0) -> None:
            new_tick()
            init(self_, a, b)

        self._set_method(quad, "__init__", counted_init)
        compare_tick = self.compares.tick
        for name in ("__lt__", "__le__", "__gt__", "__ge__"):
            self._set_method(quad, name, _counted(quad.__dict__[name], compare_tick))
        self._rebind(m.exact.quad_compare,
                     _counted(m.exact.quad_compare, compare_tick))

    def snapshot(self) -> dict[str, int]:
        """Every work count so far."""
        out = dict(self.tracer.counts)
        out["exact.quadext_new"] = self.quadext_new.value()
        out["exact.compares"] = self.compares.value()
        return out


def _counted(fn: Callable, tick: Callable[[], int]) -> Callable:
    @functools.wraps(fn)
    def wrapper(a: Any, b: Any) -> Any:
        tick()
        return fn(a, b)
    return wrapper
