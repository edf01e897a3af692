"""Time the pipeline and each construction's builder and check, and write
the result as one row of ``BENCH_<pr>.json``.

Standard library only, and only the public API of ``powersums.dissect``,
so the same script measures any checkout's ``src``:

    python3 scripts/bench.py --pr PR --label change
    python3 scripts/bench.py --pr PR --label parent --src ../parent/src

A row records, per n = 1..10, the wall seconds of ``full_theorem_report(n)``;
and per construction at its cap, the seconds of its builders (every variant
of ``certificate_builders``, in one call) and of ``check_certificate`` on
what they built, with the work behind them: pieces, source rects, distinct
coordinates, and the layers and grid cells of the ``CheckReport``.  Each time
is the median of ``REPEATS`` calls, with their p25 and p75 beside it, so a
row shows its own spread.  Rows of other labels in the file are kept, so
parent and change rows from one session sit side by side.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parents[1]

#: calls behind each median
REPEATS = 5


def _timed(fn: Callable[[], Any]) -> tuple[dict[str, float], Any]:
    """The median, p25 and p75 wall seconds of ``REPEATS`` calls, and the
    last result."""
    times = []
    for _ in range(REPEATS):
        gc.collect()
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    p25, median, p75 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median_s": median, "p25_s": p25, "p75_s": p75}, result


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


def measure(dissect: Any) -> dict[str, Any]:
    theorem = {}
    for n in range(1, 11):
        seconds, report = _timed(lambda n=n: dissect.full_theorem_report(n))
        assert report.holds, report
        theorem[str(n)] = seconds
    constructions = {}
    for name, n in dissect.CONSTRUCTIONS.items():
        builders = dissect.generators.certificate_builders(name).values()
        build, certs = _timed(lambda: [b(n) for b in builders])
        check, reports = _timed(
            lambda: [dissect.check_certificate(c) for c in certs])
        assert all(r.ok for r in reports), reports
        constructions[name] = {"n": n, "build": build, "check": check,
                               **_work(certs, reports)}
    return {"theorem": theorem,
            "theorem_block_s": sum(t["median_s"] for t in theorem.values()),
            "constructions": constructions}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the package source to measure (default: ./src)")
    parser.add_argument("--out", type=Path,
                        help="default: BENCH_<pr>.json at the repository root")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    from powersums import dissect

    row = {"label": args.label, "repeats": REPEATS,
           "python": platform.python_version(), "machine": platform.machine(),
           "cpus": os.cpu_count(), **measure(dissect)}
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    doc = json.loads(out.read_text()) if out.exists() else {"pr": args.pr,
                                                            "rows": []}
    doc["rows"] = [r for r in doc["rows"] if r["label"] != args.label] + [row]
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{args.label}: theorem block {row['theorem_block_s']:.3f} s -> {out}")


if __name__ == "__main__":
    main()
