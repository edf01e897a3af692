"""Time the pipeline and each construction's builder and check on a parent
tree and on this one, and write both rows to ``BENCH_<pr>.json``.

Standard library only, and only the public API of ``powersums.dissect``,
so the same script measures any checkout's ``src``:

    python3 scripts/bench.py --pr PR --parent ../parent/src

Each tree is imported in a child process of its own.  The two children
take turns call by call, and the side that goes first alternates, so drift
on a shared host lands on both rows alike.

A row records, per n = 1..10, the wall seconds of ``full_theorem_report(n)``;
and per construction at its cap, the seconds of its builders (every variant
of ``certificate_builders``, in one call) and of the route ``powersums
check`` runs on what they built (``read_certificate`` and
``check_certificate`` of each certificate's ``dumps_certificate`` text),
with the work behind them: pieces, source rects, distinct coordinates, and
the layers and grid cells of the ``CheckReport``.  Each time is the median
of ``REPEATS`` calls, with their p25 and p75 beside it, so a row shows its
own spread.
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
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]

#: calls behind each median, on each tree
REPEATS = 5


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
    """Import the package from ``src``, send its construction caps, then
    time each task received, one call each, until None: ("theorem", n),
    ("build", name), and ("check", name) after that name's build.  Answer
    each with (seconds, work), the work counters with a name's first check
    and None otherwise."""
    sys.path.insert(0, src)
    from powersums import dissect

    caps = dict(dissect.CONSTRUCTIONS)
    built: dict[str, list[Any]] = {}
    texts: dict[str, list[str]] = {}
    conn.send(caps)
    for kind, key in iter(conn.recv, None):
        gc.collect()
        start = time.perf_counter()
        if kind == "theorem":
            result = dissect.full_theorem_report(key)
        elif kind == "build":
            result = [build(caps[key]) for build
                      in dissect.generators.certificate_builders(key).values()]
        else:
            result = [dissect.check_certificate(dissect.read_certificate(text))
                      for text in texts[key]]
        seconds = time.perf_counter() - start
        work = None
        if kind == "theorem":
            assert result.holds, result
        elif kind == "build":
            built[key] = result
            texts[key] = [dissect.dumps_certificate(cert) for cert in result]
        else:
            assert all(report.ok for report in result), result
            if key in built:
                work = _work(built.pop(key), result)
        conn.send((seconds, work))


def _stats(times: list[float]) -> dict[str, float]:
    p25, median, p75 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median_s": median, "p25_s": p25, "p75_s": p75}


def measure(sources: dict[str, Path]) -> list[dict[str, Any]]:
    """One row per (label, src) of ``sources``, timed in turns."""
    context = multiprocessing.get_context("spawn")
    sides = {}
    for label, src in sources.items():
        conn, child_conn = context.Pipe()
        process = context.Process(target=_child, args=(str(src.resolve()), child_conn))
        process.start()
        sides[label] = (process, conn)
    try:
        caps = [conn.recv() for _process, conn in sides.values()]
        assert all(c == caps[0] for c in caps), caps
        tasks = [("theorem", n) for n in range(1, 11)]
        tasks += [(kind, name) for name in caps[0] for kind in ("build", "check")]
        times: dict[tuple[str, Any], dict[str, list[float]]] = {}
        work: dict[tuple[str, str], dict[str, int]] = {}
        for task in tasks:
            for i in range(REPEATS):
                for label in list(sides)[::1 if i % 2 == 0 else -1]:
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
    for label in sides:
        theorem = {str(n): _stats(times["theorem", n][label]) for n in range(1, 11)}
        rows.append({
            "label": label, "repeats": REPEATS,
            "python": platform.python_version(), "machine": platform.machine(),
            "cpus": os.cpu_count(), "theorem": theorem,
            "theorem_block_s": sum(t["median_s"] for t in theorem.values()),
            "constructions": {
                name: {"n": n, "build": _stats(times["build", name][label]),
                       "check": _stats(times["check", name][label]),
                       **work[label, name]}
                for name, n in caps[0].items()}})
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
    print(f"theorem block {blocks} s (parent -> change) -> {out}")


if __name__ == "__main__":
    main()
