"""Time the pipeline and each construction's builder and check on a parent
tree and on this one, and write both rows to ``BENCH_<pr>.json``.

Standard library only, and only the public API of ``powersums.dissect``,
``powersums.pyramid`` and ``powersums.verify``, so the same script
measures any checkout's ``src``:

    python3 scripts/bench.py --pr PR --parent ../parent/src

Each tree is imported in a child process of its own.  The two children
take turns call by call, and the side that goes first alternates, so drift
on a shared host lands on both rows alike.

A row records, per n = 1..10, the wall seconds of
``full_theorem_report(n)``; and per construction at its cap, the seconds
of its builders (every variant of ``certificate_builders``, in one call)
and of the route ``powersums check`` runs on what they built
(``read_certificate`` and ``check_certificate`` of each certificate's
``dumps_certificate`` text), with the work behind them: pieces, source
rects, distinct coordinates, and the layers and grid cells of the
``CheckReport``; per construction and variant at its cap, the seconds of
the writer ``powersums certificate`` calls (``geometry.dumps_lattice`` of
the builder's lattice data, built untimed), with the bytes written; per
d = 3, 4, 5, the seconds of ``pyramid.sections_agree(d, 12)``, with
|P_d(12)| and the ``tracemalloc`` peak in KiB of one more, untimed call (a
count that copies the cells shows there), and as their control the seconds
of criterion 05 (``verify.CRITERIA[4].run(12)``), which cuts the same
pyramids into cell sets and checks each partition cell for cell; and per
module of the package, the seconds to ``compile()`` its source, which an
import from source pays before it runs a line, with its count of non-blank
lines.  Each time is the median of ``REPEATS`` calls, with their p25 and
p75 beside it, so a row shows its own spread (compiles take
``COMPILE_REPEATS`` calls).

A write sample is the best of ``WRITE_BATCH`` calls, and there are
``WRITE_REPEATS`` of them.  In each later row, a write's ``ratio``, and
``write_ratio`` for their sum, give the quartiles over rounds of its
sample over the first row's sample of the same round: the two are taken
moments apart, so drift on the host, which widens each side's own
quartiles, cancels in the ratio.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]

#: calls behind each median, on each tree
REPEATS = 5
#: the pyramids of the sections row: P_d(SECTIONS_N) for d in SECTIONS_D
SECTIONS_D, SECTIONS_N = (3, 4, 5), 12
#: calls behind each compile median: a compile takes milliseconds, and five
#: calls left quartiles 30% apart on one module
COMPILE_REPEATS = 25
#: samples of each write, and the calls behind each sample (the best of
#: them): medians of 5 single calls left a 10% change inside the quartiles
WRITE_REPEATS, WRITE_BATCH = 11, 5


def _work(certs: list[Any], reports: list[Any]) -> dict[str, int]:
    values = set()
    for cert in certs:
        for p in cert.placements:
            values.update(v for r in p.source.rects for v in r)
            values.update((p.transform.dx, p.transform.dy))
        for region in (*(r for _layer, r in cert.targets), *cert.leftovers):
            values.update(v for r in region.rects for v in r)
    return {
        "pieces": sum(len(c.placements) for c in certs),
        "rects": sum(len(p.source.rects) for c in certs for p in c.placements),
        "distinct_coords": len(values),
        "layers": sum(r.layers_checked for r in reports),
        "cells": sum(r.cells_checked for r in reports),
    }


def _child(src: str, conn: Any) -> None:
    """Import the package from ``src``, send its construction caps and each
    construction's variants, then time each task received, one call each
    (a write: the best of ``WRITE_BATCH``), until None: ("theorem", n),
    ("build", name), ("check", name) after that name's build, ("write",
    (name, variant)), ("sections", d), ("criterion", 5) and ("compile",
    module), a path under ``src``.  Answer each with (seconds, work), the
    work counters with a name's first check, the bytes with a write, the
    cells of P_d(12) and the traced peak of one untimed call with sections,
    and None otherwise."""
    sys.path.insert(0, src)
    from powersums import dissect, pyramid, verify

    caps = dict(dissect.CONSTRUCTIONS)
    built: dict[str, list[Any]] = {}
    peaks: dict[int, float] = {}
    texts: dict[str, list[str]] = {}
    lattices: dict[tuple[str, Any], Any] = {}
    conn.send((caps, {name: list(dissect.generators.certificate_builders(name))
                      for name in caps}))
    for kind, key in iter(conn.recv, None):
        if kind == "compile":
            source = (Path(src) / key).read_text()
        elif kind == "write" and key not in lattices:
            name, variant = key
            build = dissect.generators.certificate_builders(name)[variant]
            lattices[key] = build.core(caps[name])
        seconds = float("inf")
        for _ in range(WRITE_BATCH if kind == "write" else 1):
            gc.collect()
            start = time.perf_counter()
            if kind == "compile":
                result = compile(source, key, "exec", dont_inherit=True)
            elif kind == "write":
                result = dissect.geometry.dumps_lattice(lattices[key])
            elif kind == "theorem":
                result = dissect.full_theorem_report(key)
            elif kind == "sections":
                result = pyramid.sections_agree(key, SECTIONS_N)
            elif kind == "criterion":
                result = verify.CRITERIA[key - 1].run(SECTIONS_N)
            elif kind == "build":
                result = [build(caps[key]) for build
                          in dissect.generators.certificate_builders(key).values()]
            else:
                result = [dissect.check_certificate(dissect.read_certificate(text))
                          for text in texts[key]]
            seconds = min(seconds, time.perf_counter() - start)
        work = None
        if kind == "theorem":
            assert result.holds, result
        elif kind == "build":
            built[key] = result
            texts[key] = [dissect.dumps_certificate(cert) for cert in result]
        elif kind == "check":
            assert all(report.ok for report in result), result
            if key in built:
                work = _work(built.pop(key), result)
        elif kind == "write":
            work = {"bytes": len(result.encode())}
        elif kind == "sections":
            assert result.holds, result
            if key not in peaks:
                tracemalloc.start()
                pyramid.sections_agree(key, SECTIONS_N)
                peaks[key] = round(tracemalloc.get_traced_memory()[1] / 1024, 1)
                tracemalloc.stop()
            work = {"cells": len(pyramid.build_pyramid(key, SECTIONS_N)),
                    "peak_kib": peaks[key]}
        elif kind == "criterion":
            assert result is None, result
        conn.send((seconds, work))


def _lines(path: Path) -> int:
    """The non-blank lines of the file at ``path``."""
    return sum(1 for line in path.read_text().splitlines() if line.strip())


def _stats(times: list[float]) -> dict[str, float]:
    p25, median, p75 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median_s": median, "p25_s": p25, "p75_s": p75}


def _ratio(tasks: list[dict[str, list[float]]], label: str,
           first: str) -> dict[str, float]:
    """Quartiles over rounds of ``label``'s samples of ``tasks``, summed,
    over ``first``'s of the same round."""
    ratios = [sum(a) / sum(b) for a, b in zip(zip(*(t[label] for t in tasks)),
                                              zip(*(t[first] for t in tasks)))]
    p25, median, p75 = statistics.quantiles(ratios, n=4, method="inclusive")
    return {"median": median, "p25": p25, "p75": p75}


def measure(sources: dict[str, Path]) -> list[dict[str, Any]]:
    """One row per (label, src) of ``sources``, timed in turns.  Modules are
    compiled only on the trees that have them."""
    context = multiprocessing.get_context("spawn")
    sides = {}
    for label, src in sources.items():
        conn, child_conn = context.Pipe()
        process = context.Process(target=_child, args=(str(src.resolve()), child_conn))
        process.start()
        sides[label] = (process, conn)
    try:
        caps, variants = zip(*(conn.recv() for _process, conn in sides.values()))
        assert all(c == caps[0] for c in caps), caps
        assert all(v == variants[0] for v in variants), variants
        writes = [(name, variant) for name, names in variants[0].items()
                  for variant in names]
        tasks = [("theorem", n) for n in range(1, 11)]
        tasks += [(kind, name) for name in caps[0] for kind in ("build", "check")]
        tasks += [("write", key) for key in writes]
        tasks += [("sections", d) for d in SECTIONS_D] + [("criterion", 5)]
        modules = {label: {str(path.relative_to(src))
                           for path in (src / "powersums").rglob("*.py")}
                   for label, src in sources.items()}
        tasks += [("compile", module) for module in sorted(set().union(*modules.values()))]
        times: dict[tuple[str, Any], dict[str, list[float]]] = {}
        work: dict[tuple[str, Any], dict[str, int]] = {}
        for task in tasks:
            repeats = {"compile": COMPILE_REPEATS, "write": WRITE_REPEATS}
            for i in range(repeats.get(task[0], REPEATS)):
                for label in list(sides)[::1 if i % 2 == 0 else -1]:
                    if task[0] == "compile" and task[1] not in modules[label]:
                        continue
                    conn = sides[label][1]
                    conn.send(task)
                    seconds, counted = conn.recv()
                    times.setdefault(task, {}).setdefault(label, []).append(seconds)
                    if counted is not None:
                        work[label, task[1]] = counted
    finally:
        for process, conn in sides.values():
            try:
                conn.send(None)
            except OSError:  # the child is gone already
                pass
            process.join(timeout=60)
            if process.is_alive():
                process.terminate()
    rows = []
    first = next(iter(sides))
    for label in sides:
        theorem = {str(n): _stats(times["theorem", n][label]) for n in range(1, 11)}
        compiled = {module: {**_stats(times["compile", module][label]),
                             "lines": _lines(sources[label] / module)}
                    for module in sorted(modules[label])}
        later = label != first
        written = {" ".join(filter(None, key)): {
                       "n": caps[0][key[0]], **_stats(times["write", key][label]),
                       **work[label, key],
                       **({"ratio": _ratio([times["write", key]], label, first)}
                          if later else {})}
                   for key in writes}
        sections = {str(d): {"n": SECTIONS_N, **_stats(times["sections", d][label]),
                             **work[label, d]} for d in SECTIONS_D}
        rows.append({
            "label": label, "repeats": REPEATS, "compile_repeats": COMPILE_REPEATS,
            "write_repeats": WRITE_REPEATS, "write_batch": WRITE_BATCH,
            "python": platform.python_version(), "machine": platform.machine(),
            "cpus": os.cpu_count(), "theorem": theorem,
            "theorem_block_s": sum(t["median_s"] for t in theorem.values()),
            "constructions": {
                name: {"n": n, "build": _stats(times["build", name][label]),
                       "check": _stats(times["check", name][label]),
                       **work[label, name]}
                for name, n in caps[0].items()},
            "write": written,
            "write_s": sum(w["median_s"] for w in written.values()),
            **({"write_ratio": _ratio([times["write", key] for key in writes],
                                      label, first)} if later else {}),
            "sections": sections,
            "sections_s": sum(s["median_s"] for s in sections.values()),
            "criterion_05": {"max_n": SECTIONS_N,
                             **_stats(times["criterion", 5][label])},
            "compile": compiled,
            "compile_s": sum(c["median_s"] for c in compiled.values()),
            "compile_lines": sum(c["lines"] for c in compiled.values())})
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", type=Path, required=True,
                        help="the parent tree's package source, measured "
                             "against ./src")
    parser.add_argument("--out", type=Path,
                        help="default: BENCH_<pr>.json at the repository root")
    args = parser.parse_args()
    rows = measure({"parent": args.parent, "change": ROOT / "src"})
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps({"pr": args.pr, "rows": rows}, indent=1) + "\n")
    blocks = " -> ".join(f"{r['theorem_block_s']:.3f}" for r in rows)
    compiled = " -> ".join(f"{r['compile_s'] * 1e3:.1f}" for r in rows)
    lines = " -> ".join(str(r["compile_lines"]) for r in rows)
    written = " -> ".join(f"{r['write_s']:.3f}" for r in rows)
    ratio = rows[-1]["write_ratio"]
    sections = " -> ".join(f"{r['sections_s']:.3f}" for r in rows)
    peaks = " -> ".join(str(max(s["peak_kib"] for s in r["sections"].values()))
                        for r in rows)
    control = " -> ".join(f"{r['criterion_05']['median_s']:.3f}" for r in rows)
    print(f"theorem block {blocks} s, write {written} s (ratio {ratio['median']:.3f}, "
          f"quartiles {ratio['p25']:.3f}-{ratio['p75']:.3f}), sections {sections} s "
          f"(peak {peaks} KiB, criterion 05 {control} s), compile {compiled} ms "
          f"over {lines} lines (parent -> change) -> {out}")


if __name__ == "__main__":
    main()
