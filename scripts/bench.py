"""Time the pipeline and each construction's builder and check, and write
the result as one row of ``BENCH_<pr>.json``.

Standard library only, and only the public API of ``powersums.dissect``,
so the same script measures any checkout's ``src``:

    python3 scripts/bench.py --pr PR --label change
    python3 scripts/bench.py --pr PR --label parent --src ../parent/src

A row records, per n = 1..10, the median wall seconds of
``full_theorem_report(n)``; and per construction at its cap, the median
seconds of its builder and of ``check_certificate`` on what it built, with
the work behind them: pieces, source rects, distinct coordinates, and the
layers and grid cells of the ``CheckReport``.  Rows of other labels in the
file are kept, so parent and change rows from one session sit side by side.
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


def _median_s(fn: Callable[[], Any]) -> tuple[float, Any]:
    """The median wall seconds of ``REPEATS`` calls, and the last result."""
    times = []
    for _ in range(REPEATS):
        gc.collect()
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


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
        seconds, report = _median_s(lambda n=n: dissect.full_theorem_report(n))
        assert report.holds, report
        theorem[str(n)] = seconds
    builders = {
        "GAUSS_RECT": dissect.gauss_rectangle,
        "THREE_PYR_2D": dissect.three_pyramids_2d,
        "NICOMACHUS_4D_2D": dissect.nicomachus_4d_2d,
        "FIVE_PYR_LAYERS": dissect.five_pyramids_layers,
        "STEP2_RESHAPE": dissect.step2_reshape,
        "STEP3_SCISSOR": dissect.step3_scissor,
        "STEP4_TOP": lambda n: dissect.step4_top_layer(n).certificates(),
    }
    constructions = {}
    for name, build in builders.items():
        n = dissect.CONSTRUCTIONS[name]
        build_s, built = _median_s(lambda: build(n))
        certs = list(built) if isinstance(built, tuple) else [built]
        check_s, reports = _median_s(
            lambda: [dissect.check_certificate(c) for c in certs])
        assert all(r.ok for r in reports), reports
        constructions[name] = {"n": n, "build_s": build_s, "check_s": check_s,
                               **_work(certs, reports)}
    return {"theorem_median_s": theorem,
            "theorem_block_s": sum(theorem.values()),
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
