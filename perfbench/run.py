"""powersums benchmark: one closed-loop client, four seeded workloads.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

One process, one thread, one op in flight.  Each op is checked against its
known answer.  The last line of standard output is a JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-module metrics with ``--trace 1``.
``--workload all`` runs every workload untraced and traced in child
processes and prints all of their metrics.

Run from a checkout of the repository; the package is imported from its
``src`` directory.  See ``perfbench/README.md`` for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, thread_time
from typing import Any, Optional

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import workloads as wl  # noqa: E402  (needs the path set above)
from tracing import SPAN_GROUPS, Instrumentation, Tracer  # noqa: E402

ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

#: seed reserved for confirming a claim after the change was written
HELD_OUT_SEED = 19465

#: set-up runs at least this many times and for at least SETUP_SECONDS
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0

#: Reported times are CPU seconds rescaled to a host on which one
#: ``reference_round`` takes this long.  The host the benchmark was written
#: on changed speed by up to 2x for stretches of seconds to minutes (other
#: tenants), which moved raw CPU times of identical runs by 20-35%.
REFERENCE_S = 0.01
#: CPU seconds between reference rounds
REFERENCE_EVERY = 0.1
#: the host speed is the median of this many latest rounds
REFERENCE_WINDOW = 5
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10

END_TO_END_UNITS = {"op_p50_s": "s", "op_tail_s": "s", "ops_per_s": "1/s",
                    "setup_s": "s", "peak_rss_mib": "MiB"}

PER_OP_COUNTS = (
    "geometry.json_bytes", "geometry.rects_placed", "checker.calls",
    "checker.cells", "checker.layers", "checker.distinct_coords",
    "checker.rejects", "generators.placements", "generators.rects",
    "exact.quadext_new", "exact.compares", "exact.parses", "exact.formats",
    "figurate.evaluations", "pyramid.cells", "render.bytes",
)
PER_OP_TIMES = sorted(set(SPAN_GROUPS.values()))


class BenchError(RuntimeError):
    """The benchmark cannot run here (no package source, bad arguments)."""


# -- host-speed reference ------------------------------------------------------


def reference_round() -> float:
    """Thread CPU seconds of a fixed pure-Python computation that shares no
    code with the package: an exact rational sum, tuple-keyed dict inserts, a
    sort."""
    start = thread_time()
    total = Fraction(0)
    table = {}
    for i in range(1, 2000):
        total += Fraction(1, i % 97 + 1)
        table[(i, total.denominator % 1000)] = str(total.numerator % 9973)
    sorted(table)
    return thread_time() - start


class ReferenceClock:
    """The CPU time of this (the only) thread, rescaled to the reference
    host.

    While entered, a CPU-time interval timer interrupts the process every
    ``REFERENCE_EVERY`` seconds to run one reference round; the host speed
    is the median of the latest ``REFERENCE_WINDOW`` rounds.  The CPU time
    between two rounds is rescaled by the mean of the speeds at either end,
    and the rounds' own time is left out, so a long op that spans a change
    of host speed is rescaled piece by piece.  The thread clock is read
    because an armed process CPU timer makes this kernel report process CPU
    time in whole scheduler ticks."""

    def __init__(self) -> None:
        first = reference_round()
        self.rounds = [first]
        # (rescaled seconds so far, CPU time they end at, current scale),
        # replaced whole so that ``now`` never sees half an update
        self._state = (0.0, thread_time(), REFERENCE_S / first)

    def now(self) -> float:
        while True:
            state = self._state
            cpu = thread_time()
            if state is self._state:  # no round ran in between
                done, at, scale = state
                return done + (cpu - at) * scale

    def _sample(self, _signum: int, _frame: Any) -> None:
        done, at, scale = self._state
        start = thread_time()
        self.rounds.append(reference_round())
        new = REFERENCE_S / statistics.median(self.rounds[-REFERENCE_WINDOW:])
        self._state = (done + (start - at) * (scale + new) / 2,
                       thread_time(), new)

    def __enter__(self) -> ReferenceClock:
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, REFERENCE_EVERY, REFERENCE_EVERY)
        return self

    def __exit__(self, *_exc: Any) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)


# -- set-up ------------------------------------------------------------------


def import_package() -> wl.Mods:
    """A fresh import of the package from ``src``."""
    if not (SRC / "powersums" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'powersums'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules
                 if n == "powersums" or n.startswith("powersums.")]:
        del sys.modules[name]
    import powersums.cli
    import powersums.dissect
    p = powersums
    return wl.Mods(cli=p.cli, dissect=p.dissect, exact=p.exact,
                   figurate=p.figurate, pyramid=p.pyramid, render=p.render)


def set_up(workload: str, seed: int, workdir: Path, clock: ReferenceClock,
           repeats: int = SETUP_REPEATS, seconds: float = SETUP_SECONDS,
           ) -> tuple[float, wl.Mods, list[wl.Op]]:
    """Import, build the seeded block and warm the Bernoulli cache, at
    least ``repeats`` times and for at least ``seconds``; returns the median
    set-up time and the last set-up.  Each set-up starts from a collected
    heap, so the garbage of the previous import does not time the next."""
    times: list[float] = []
    while len(times) < repeats or sum(times) < seconds:
        gc.collect()
        start = clock.now()
        mods = import_package()
        workdir.mkdir(parents=True, exist_ok=True)
        block = wl.build_block(workload, mods, seed, workdir, ROOT)
        mods.figurate.bernoulli_table(12)
        times.append(clock.now() - start)
    return statistics.median(times), mods, block


# -- the closed loop ---------------------------------------------------------


@dataclass
class Tally:
    """What a run did: every op's CPU seconds and answer, and, for traced
    blocks, the work each distinct op did."""

    block: list[wl.Op]
    blocks: int = 0
    attempted: int = 0
    latencies: list[float] = field(default_factory=list)
    busy: float = 0.0  # seconds of every op
    wall: float = 0.0  # wall seconds of the same ops, reference rounds included
    traced_ops: int = 0
    traced_busy: float = 0.0
    failed_keys: list[str] = field(default_factory=list)
    hostile: Counter = field(default_factory=Counter)
    per_key: dict[str, dict[str, int]] = field(default_factory=dict)
    count_mismatches: list[str] = field(default_factory=list)

    def tracing_overhead(self) -> float:
        """1 - traced ops_per_s / untraced ops_per_s, over the same run."""
        untraced_ops = self.attempted - self.traced_ops
        untraced_busy = self.busy - self.traced_busy
        return 1 - ((self.traced_ops / self.traced_busy)
                    / (untraced_ops / untraced_busy))


def _run_block(tally: Tally, seed: int, clock: ReferenceClock,
               inst: Optional[Instrumentation]) -> None:
    order = list(tally.block)
    random.Random(f"order:{seed}:{tally.blocks}").shuffle(order)
    tracer = inst.tracer if inst else None
    last = inst.snapshot() if inst else {}
    for op in order:
        if tracer is not None:
            tracer.op = tally.attempted
            tracer.enter("op")
        w0, t0 = perf_counter(), clock.now()
        try:
            outcome: Any = op.run()
            raised = False
        except Exception as exc:  # a crash is a wrong answer, not an abort
            outcome, raised = exc, True
        t1, w1 = clock.now(), perf_counter()
        if tracer is not None:
            tracer.exit()
        tally.attempted += 1
        tally.latencies.append(t1 - t0)
        tally.busy += t1 - t0
        tally.wall += w1 - w0
        ok = not raised and bool(op.verify(outcome))
        if not ok:
            tally.failed_keys.append(op.key)
        if op.hostile:
            tally.hostile["attempted"] += 1
            tally.hostile["failed"] += 0 if ok else 1
        if inst is not None:
            tally.traced_ops += 1
            tally.traced_busy += t1 - t0
            now = inst.snapshot()
            work = {k: v - last.get(k, 0) for k, v in now.items()
                    if v != last.get(k, 0)}
            last = now
            if tally.per_key.setdefault(op.key, work) != work:
                tally.count_mismatches.append(op.key)


def run_blocks(block: list[wl.Op], seed: int, seconds: float,
               clock: ReferenceClock,
               inst: Optional[Instrumentation] = None,
               max_blocks: Optional[int] = None) -> Tally:
    """Run reshuffled copies of ``block``, one op in flight, until
    ``seconds`` of wall time have passed at a block boundary (or for
    ``max_blocks`` copies).  With ``inst``, blocks alternate untraced and
    traced and the run ends on a traced one, so that the tracing overhead
    is measured in the same stretch of time."""
    tally = Tally(block)
    start = perf_counter()
    while True:
        traced = inst is not None and tally.blocks % 2 == 1
        if traced:
            inst.install()
        try:
            _run_block(tally, seed, clock, inst if traced else None)
        finally:
            if traced:
                inst.uninstall()
        tally.blocks += 1
        done = (tally.blocks >= max_blocks if max_blocks is not None
                else perf_counter() - start >= seconds)
        if done and (inst is None or traced):
            return tally


def tail(latencies: list[float], distinct: int) -> tuple[float, float]:
    """(value, percentile): the highest ladder percentile with at least ten
    of the block's ``distinct`` ops beyond it, by nearest rank over every
    latency of the run; the maximum when no ladder percentile qualifies.

    The percentile is chosen from the block, not from the run, because
    repeated copies of a block add no new inputs to the tail, and so that
    it does not move with the number of blocks that fit in a run."""
    ordered = sorted(latencies)
    for q in LADDER:
        if distinct - -(-q * distinct // 100) >= TAIL_BEYOND:
            rank = int(-(-q * len(ordered) // 100))
            return ordered[rank - 1], q
    return ordered[-1], 100.0


def correctness(result: Tally) -> tuple[bool, int, int]:
    """(correct, attempted, failed).  Every op whose answer differs counts
    as failed; the run stays correct while only hostile documents are
    answered wrongly, the known parser defects the output names."""
    attempted = result.attempted
    failed = len(result.failed_keys)
    wrong_valid = failed - result.hostile["failed"]
    return (wrong_valid == 0 and not result.count_mismatches,
            attempted, failed)


def end_to_end(result: Tally, setup_s: float) -> dict[str, float]:
    value, _q = tail(result.latencies, len(result.block))
    return {
        "op_p50_s": statistics.median(result.latencies),
        "op_tail_s": value,
        "ops_per_s": result.attempted / result.busy,
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(result: Tally,
              inst: Instrumentation) -> dict[str, tuple[float, str]]:
    """Per-module metrics, per traced op."""
    ops = result.traced_ops
    groups = Counter()
    for name, seconds in inst.tracer.self_s.items():
        if name in SPAN_GROUPS:
            groups[SPAN_GROUPS[name]] += seconds
    totals = inst.snapshot()
    out: dict[str, tuple[float, str]] = {}
    for name in PER_OP_TIMES:
        out[name] = (groups[name] / ops, "s/op")
    for name in PER_OP_COUNTS:
        out[name] = (totals.get(name, 0) / ops, "count/op")
    mutant_cells = parent_cells = 0
    for op in result.block:
        if op.parent is not None:
            mutant_cells += result.per_key[op.key].get("checker.cells", 0)
            parent_cells += result.per_key[op.parent].get("checker.cells", 0)
    out["checker.reject_scan_ratio"] = (
        mutant_cells / parent_cells if parent_cells else 0.0, "ratio")
    out["tracing.overhead"] = (result.tracing_overhead(), "ratio")
    return out


# -- reporting -----------------------------------------------------------------


def describe(workload: str, seed: int, result: Tally, clock: ReferenceClock,
             correct: bool, attempted: int, failed: int) -> list[str]:
    _value, q = tail(result.latencies, len(result.block))
    lines = [f"workload {workload} seed {seed}: {attempted} ops in "
             f"{result.blocks} block(s) of {len(result.block)}, "
             f"op time {result.busy:.3f} s, {result.wall:.3f} s of wall time; "
             f"{len(clock.rounds)} reference rounds, median "
             f"{statistics.median(clock.rounds) * 1e3:.3f} ms of CPU",
             f"op_tail_s is p{q:g} over {attempted} ops"
             + (f" (the highest with {TAIL_BEYOND} of the block's ops beyond it)"
                if q < 100.0 else
                f" (the maximum: no percentile has {TAIL_BEYOND} of the "
                f"block's ops beyond it)"),
             f"error_rate {failed / attempted:.6f} ratio "
             f"({failed} of {attempted} ops answered wrongly)"]
    if result.hostile["attempted"]:
        share = result.hostile["failed"] / result.hostile["attempted"]
        lines.append(f"hostile documents mishandled: {result.hostile['failed']} "
                     f"of {result.hostile['attempted']} ({share:.4f})")
    for key in sorted(set(result.failed_keys)):
        lines.append(f"  wrong answer: {key}")
    for key in sorted(set(result.count_mismatches)):
        lines.append(f"  work counts did not repeat: {key}")
    lines.append(f"correct {correct}")
    return lines


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = OUT_DIR / f"run-{os.getpid()}"
    try:
        with ReferenceClock() as clock:
            setup_s, mods, block = set_up(workload, seed, workdir, clock)
            if not trace:
                result = run_blocks(block, seed, seconds, clock)
                metrics = {k: (v, END_TO_END_UNITS[k])
                           for k, v in end_to_end(result, setup_s).items()}
            else:
                inst = Instrumentation(mods, Tracer(clock.now))
                result = run_blocks(block, seed, seconds, clock, inst)
                metrics = per_layer(result, inst)
        if trace:
            inst.tracer.write(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl.gz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct, attempted, failed = correctness(result)
    for line in describe(workload, seed, result, clock, correct, attempted,
                         failed):
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def run_all(seed: int, seconds: float) -> dict:
    """Every workload untraced, then traced, each in a child process."""
    summary: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0,
                               "metrics": {}}
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT, check=False,
                timeout=900)
            if proc.returncode != 0:
                raise BenchError(f"{workload} --trace {trace} failed:\n"
                                 f"{proc.stderr}")
            *lines, last = proc.stdout.splitlines()
            print(f"== {workload} --trace {trace}", *lines, sep="\n")
            row = json.loads(last)
            summary["correct"] &= row["correct"]
            summary["attempted"] += row["attempted"]
            summary["failed"] += row["failed"]
            for name, metric in row["metrics"].items():
                summary["metrics"][f"{workload}.{name}"] = metric
    return summary


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*wl.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if args.workload == "all":
            out = run_all(args.seed, args.seconds)
        else:
            out = run_one(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
