"""Time the pipeline and each construction's lattice routes on a parent
tree and on this one, and write both rows to ``BENCH_<pr>.json``.

Standard library only, and only the public API of ``powersums.dissect``,
``powersums.pyramid`` and ``powersums.verify``, so the same script
measures any checkout's ``src``:

    python3 scripts/bench.py --pr PR --parent ../parent/src

Each tree is imported in a child process of its own.  The tasks, in
groups: ``theorem_block``, ``full_theorem_report(n)`` for n = 1..10; per
construction at its cap, ``build``, the ``core`` of each variant of
``certificate_builders`` in one call (the lattice data every command
uses), and ``check``, ``read_certificate`` and ``check_certificate`` of
each variant's ``dumps_lattice`` text, written untimed, with the work
behind them (pieces, source rects and distinct coordinates of the data,
the reports' layers and grid cells); ``write``, ``dumps_lattice`` of each
variant's data, with the bytes; ``sections``, ``sections_agree(d, 12)``
for d = 3, 4, 5, with |P_d(12)|, and as their control ``criterion_05``
(``verify.CRITERIA[4].run(8)``), which cuts P_d(n) for n up to 8 into
cell sets; ``criterion_07`` (``verify.CRITERIA[6].run(8)``, which no bound
cuts), criterion 07's 700 mutants checked; and ``compile``, ``compile()``
of each module's source, which an import from source pays before it runs
a line, with its non-blank lines.
Each ``theorem``, ``check`` and ``sections`` row also gives, as
``peak_kib``, the ``tracemalloc`` peak in KiB of one more, untimed call
in the first round.

One rule samples every task: ``SAMPLES`` rounds of every task, each in new
children, where a round's sample on each tree is the best of ``BATCH``
calls, the trees take turns call by call and the side that goes first
alternates, so drift on a shared host lands on both rows alike.  A row
gives each task's median sample with its p25 and p75, and each group's
sum of medians as ``<group>_s``.  Drift still widens those quartiles, so
each later row also gives, per task and per group, the quartiles over
rounds of its sample (a group's: the sum over its tasks) over the first
row's sample of the same round, taken moments apart: its ``ratio``, with
the distribution-free interval for the median ratio, ``low`` to ``high``,
whose ``coverage`` is 98.8% at 11 rounds.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import multiprocessing
import os
import platform
import statistics
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterator

ROOT = Path(__file__).resolve().parents[1]

#: rounds, and the calls behind each round's sample on each tree (the best
#: of them, each tree first once): a run stays under 240 s on a slow 2-core
#: host, where 14 rounds took 232 s
SAMPLES, BATCH = 11, 2
#: the pyramids of the sections row: P_d(SECTIONS_N) for d in SECTIONS_D
SECTIONS_D, SECTIONS_N = (3, 4, 5), 12
#: the criteria timed as rows of their own, ``criterion_05`` and so on
CRITERIA_TIMED = (5, 7)
#: the ``max_n`` of each: criterion 05 at 8, the sections row's control, is
#: about 0.08 s a call on a 2-core x86, where at 12 it took over a second,
#: 50 times the three sections tasks; criterion 07 has no range of n to cut
CRITERION_N = 8


def _counts(certs: list[Any]) -> dict[str, int]:
    """Pieces, source rects and distinct coordinates of the lattice
    certificates ``certs``: each rect's x, y, w and h and each transform's
    dx and dy, as values, so that one value over two denominators counts
    once."""
    values = set()
    for cert in certs:
        points = {point for piece in cert.pieces for point in piece[3][2:]}
        for rects in (*(piece[2] for piece in cert.pieces),
                      *(rects for _layer, rects in cert.targets), *cert.leftovers):
            for x1, y1, x2, y2 in rects:
                points.update((x1, y1, (x2[0] - x1[0], x2[1] - x1[1]),
                               (y2[0] - y1[0], y2[1] - y1[1])))
        d = cert.denominator
        values.update((Fraction(a, d), Fraction(b, d)) for a, b in points)
    return {"pieces": sum(len(c.pieces) for c in certs),
            "rects": sum(len(p[2]) for c in certs for p in c.pieces),
            "distinct_coords": len(values)}


def _child(src: str, conn: Any) -> None:
    """Import the package from ``src``, send its construction caps and each
    construction's variants, then time one call of each task received
    until None: ("theorem", n), ("build", name), ("check", name), ("write",
    (name, variant)), ("sections", d), ("criterion", k) for k in
    ``CRITERIA_TIMED`` and ("compile",
    module), a path under ``src``.  Answer each with (seconds, work), where
    work is None for a theorem, build, criterion or compile.  ("peak",
    task) makes one call of ``task`` under ``tracemalloc`` instead, and its
    work is {"peak_kib": the peak in KiB}.  A name's lattice data and texts
    are made untimed, by its first check or write."""
    sys.path.insert(0, src)
    from powersums import dissect, pyramid, verify

    caps = dict(dissect.CONSTRUCTIONS)
    builders = {name: dissect.generators.certificate_builders(name) for name in caps}

    @functools.cache
    def made(name: str) -> tuple[dict[Any, Any], list[str], dict[str, int]]:
        data = {variant: build.core(caps[name])
                for variant, build in builders[name].items()}
        return (data, [dissect.geometry.dumps_lattice(d) for d in data.values()],
                _counts([d.cert for d in data.values()]))

    conn.send((caps, {name: list(variants) for name, variants in builders.items()}))
    for kind, key in iter(conn.recv, None):
        traced = kind == "peak"
        if traced:
            kind, key = key
        if kind == "compile":
            source = (Path(src) / key).read_text()
        elif kind in ("check", "write"):
            data, texts, counts = made(key if kind == "check" else key[0])
        # what the child holds is frozen out of the collector's passes, so a
        # collection in a call weighs that call's own objects alone
        gc.collect()
        gc.freeze()
        if traced:
            tracemalloc.start()
        start = time.perf_counter()
        if kind == "theorem":
            result = dissect.full_theorem_report(key)
        elif kind == "build":
            result = [build.core(caps[key]) for build in builders[key].values()]
        elif kind == "check":
            result = [dissect.check_certificate(dissect.read_certificate(text))
                      for text in texts]
        elif kind == "write":
            result = dissect.geometry.dumps_lattice(data[key[1]])
        elif kind == "sections":
            result = pyramid.sections_agree(key, SECTIONS_N)
        elif kind == "criterion":
            result = verify.CRITERIA[key - 1].run(CRITERION_N)
        else:
            result = compile(source, key, "exec", dont_inherit=True)
        seconds = time.perf_counter() - start
        if traced:
            peak_kib = round(tracemalloc.get_traced_memory()[1] / 1024, 1)
            tracemalloc.stop()
        work = None
        if kind in ("theorem", "sections"):
            assert result.holds, result
        if kind == "check":
            assert all(report.ok for report in result), result
            work = {**counts, "layers": sum(r.layers_checked for r in result),
                    "cells": sum(r.cells_checked for r in result)}
        elif kind == "write":
            work = {"bytes": len(result.encode())}
        elif kind == "sections":
            work = {"cells": len(pyramid.build_pyramid(key, SECTIONS_N))}
        elif kind == "criterion":
            assert result is None, result
        conn.send((seconds, {"peak_kib": peak_kib} if traced else work))


def _ratio(tasks: list[dict[str, list[float]]], label: str,
           first: str) -> dict[str, float]:
    """Quartiles over rounds of ``label``'s samples of ``tasks``, summed,
    over ``first``'s of the same round, and the distribution-free interval
    for the median ratio: the 2nd smallest and 2nd largest of k rounds
    hold it unless at most one round falls on one side, so with
    ``coverage`` 1 - 2 (1 + k) / 2**k (98.8% at k = 11)."""
    ratios = sorted(sum(a) / sum(b) for a, b in zip(zip(*(t[label] for t in tasks)),
                                                    zip(*(t[first] for t in tasks))))
    p25, median, p75 = statistics.quantiles(ratios, n=4, method="inclusive")
    k = len(ratios)
    return {"median": median, "p25": p25, "p75": p75, "low": ratios[1],
            "high": ratios[-2], "coverage": 1 - 2 * (1 + k) / 2 ** k}


def _timed(samples: dict[str, list[float]], label: str, first: str,
           **extra: Any) -> dict[str, Any]:
    """``extra``, the quartiles of ``label``'s ``samples`` and, on a later
    row, their ratio over ``first``'s."""
    p25, median, p75 = statistics.quantiles(samples[label], n=4, method="inclusive")
    later = label != first and first in samples
    return {**extra, "median_s": median, "p25_s": p25, "p75_s": p75,
            **({"ratio": _ratio([samples], label, first)} if later else {})}


@contextlib.contextmanager
def _children(sources: dict[str, Path]) -> Iterator[dict[str, Any]]:
    """label -> a pipe to a new child process that imports ``sources[label]``."""
    context = multiprocessing.get_context("spawn")
    sides = {}
    try:
        for label, src in sources.items():
            conn, child_conn = context.Pipe()
            process = context.Process(target=_child, args=(str(src.resolve()), child_conn))
            process.start()
            sides[label] = (process, conn)
        yield {label: conn for label, (_process, conn) in sides.items()}
    finally:
        for process, conn in sides.values():
            try:
                conn.send(None)
            except OSError:  # the child is gone already
                pass
            process.join(timeout=60)
            if process.is_alive():
                process.terminate()


def measure(sources: dict[str, Path]) -> list[dict[str, Any]]:
    """One row per (label, src) of ``sources``, timed in turns.  Modules are
    compiled only on the trees that have them."""
    modules = {label: {str(path.relative_to(src))
                       for path in (src / "powersums").rglob("*.py")}
               for label, src in sources.items()}
    times: dict[tuple[str, Any], dict[str, list[float]]] = {}
    work: dict[tuple[str, Any], dict[str, Any]] = {}
    # a round runs every task in new children, so a slow spell on the host, or
    # a process slowed by its memory layout, weighs on a few rounds only
    for i in range(SAMPLES):
        with _children(sources) as conns:
            caps, variants = zip(*(conn.recv() for conn in conns.values()))
            assert all(c == caps[0] for c in caps), caps
            assert all(v == variants[0] for v in variants), variants
            groups = {
                "theorem_block": [("theorem", n) for n in range(1, 11)],
                "build": [("build", name) for name in caps[0]],
                "check": [("check", name) for name in caps[0]],
                "write": [("write", (name, variant))
                          for name, names in variants[0].items() for variant in names],
                "sections": [("sections", d) for d in SECTIONS_D],
                **{f"criterion_{k:02d}": [("criterion", k)] for k in CRITERIA_TIMED},
                "compile": [("compile", module)
                            for module in sorted(set().union(*modules.values()))]}
            for task in (task for tasks in groups.values() for task in tasks):
                best = {label: float("inf") for label in conns
                        if task[0] != "compile" or task[1] in modules[label]}
                for j in range(BATCH):  # the best of BATCH calls, in turns
                    for label in list(best)[::1 if (i + j) % 2 == 0 else -1]:
                        conns[label].send(task)
                        seconds, counted = conns[label].recv()
                        best[label] = min(best[label], seconds)
                        if counted is not None:
                            work.setdefault((label, task), {}).update(counted)
                for label, seconds in best.items():
                    times.setdefault(task, {}).setdefault(label, []).append(seconds)
                    # one traced call per tree: a peak does not vary by round
                    if i == 0 and task[0] in ("theorem", "check", "sections"):
                        conns[label].send(("peak", task))
                        work.setdefault((label, task), {}).update(
                            conns[label].recv()[1])
    rows = []
    first = next(iter(sources))
    for label in sources:
        row = {
            "label": label, "samples": SAMPLES, "batch": BATCH,
            "python": platform.python_version(), "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "theorem": {str(task[1]): _timed(times[task], label, first,
                                             **work[label, task])
                        for task in groups["theorem_block"]},
            "constructions": {
                name: {"n": n, "build": _timed(times["build", name], label, first),
                       "check": _timed(times["check", name], label, first),
                       **work[label, ("check", name)]}
                for name, n in caps[0].items()},
            "write": {" ".join(filter(None, task[1])): _timed(
                          times[task], label, first, n=caps[0][task[1][0]],
                          **work[label, task])
                      for task in groups["write"]},
            "sections": {str(task[1]): _timed(times[task], label, first,
                                              n=SECTIONS_N, **work[label, task])
                         for task in groups["sections"]},
            **{f"criterion_{k:02d}": _timed(times["criterion", k], label, first,
                                            max_n=CRITERION_N)
               for k in CRITERIA_TIMED},
            "compile": {module: _timed(
                            times["compile", module], label, first,
                            lines=sum(1 for line in (sources[label] / module).read_text()
                                      .splitlines() if line.strip()))
                        for module in sorted(modules[label])}}
        for group, tasks in groups.items():
            mine = [times[task] for task in tasks if label in times[task]]
            row[f"{group}_s"] = sum(statistics.median(t[label]) for t in mine)
            if label != first:
                row.setdefault("ratio", {})[group] = _ratio(
                    [t for t in mine if first in t], label, first)
        row["compile_lines"] = sum(c["lines"] for c in row["compile"].values())
        rows.append(row)
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
    for group, ratio in rows[-1]["ratio"].items():
        sums = " -> ".join(f"{r[f'{group}_s']:.4f}" for r in rows)
        print(f"{group}: {sums} s, ratio {ratio['median']:.3f} "
              f"[{ratio['p25']:.3f}, {ratio['p75']:.3f}], "
              f"{ratio['coverage']:.1%} interval "
              f"[{ratio['low']:.3f}, {ratio['high']:.3f}]")
    peaks = {group: " -> ".join(str(max(t["peak_kib"] for t in r[group].values()))
                                for r in rows) for group in ("theorem", "sections")}
    lines = " -> ".join(str(r["compile_lines"]) for r in rows)
    print(f"theorem peak {peaks['theorem']} KiB, sections peak {peaks['sections']} "
          f"KiB, compile lines {lines} (parent -> change) -> {out}")


if __name__ == "__main__":
    main()
