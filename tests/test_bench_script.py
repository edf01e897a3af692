"""``scripts/bench.py`` on this tree: its child answers one cheap task of
each kind, timed and traced, the script times lattice routes only, and its
ratio resolves a 10% slowdown."""

import gc
import importlib.util
import multiprocessing
import sys
import threading
from pathlib import Path

import pytest

from powersums.dissect import geometry
from powersums.dissect.generators import certificate_builders

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "bench.py"


def _bench():
    spec = importlib.util.spec_from_file_location("bench", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_the_child_answers_each_kind_of_task_with_its_seconds_and_work():
    # criterion 05 is left out: one call takes over a second
    tasks = {("theorem", 1): None, ("build", "GAUSS_RECT"): None,
             ("criterion", 7): None,
             ("check", "GAUSS_RECT"): {"pieces", "rects", "distinct_coords",
                                       "layers", "cells"},
             ("write", ("GAUSS_RECT", None)): {"bytes"},
             ("sections", (3, 12)): {"cells"},
             ("compile", "powersums/exact.py"): None,
             ("peak", ("theorem", 1)): {"peak_kib"},
             ("peak", ("check", "GAUSS_RECT")): {"peak_kib"},
             ("peak", ("sections", (3, 12))): {"peak_kib"}}
    ours, theirs = multiprocessing.Pipe()
    path = list(sys.path)
    child = threading.Thread(target=_bench()._child, args=(str(ROOT / "src"), theirs),
                             daemon=True)
    child.start()
    answers = {}
    try:
        assert ours.poll(10)
        caps, variants = ours.recv()
        assert variants["GAUSS_RECT"] == [None] and caps["GAUSS_RECT"] == 100
        for task in tasks:
            ours.send(task)
            assert ours.poll(10), task
            answers[task] = ours.recv()
    finally:
        ours.send(None)
        child.join(timeout=10)
        sys.path[:] = path
        gc.unfreeze()
    assert not child.is_alive()
    for task, keys in tasks.items():
        seconds, work = answers[task]
        assert 0 < seconds < 1, task
        assert (None if work is None else set(work)) == keys, task
    data = certificate_builders("GAUSS_RECT")[None].core(100)
    assert answers["write", ("GAUSS_RECT", None)][1] == {
        "bytes": len(geometry.dumps_lattice(data).encode())}
    # the counts of the object route, kept in BENCH_26.json
    assert answers["check", "GAUSS_RECT"][1] == {
        "pieces": 2, "rects": 200, "distinct_coords": 105, "layers": 2,
        "cells": 30200}
    assert answers["sections", (3, 12)][1]["cells"] == 650
    for task in (("theorem", 1), ("check", "GAUSS_RECT"), ("sections", (3, 12))):
        assert answers["peak", task][1]["peak_kib"] > 0, task


def test_the_script_builds_no_certificate_object():
    source = SCRIPT.read_text()
    for name in ("dumps_certificate", "loads_certificate",
                 "certificate_from_lattice", "placements"):
        assert name not in source, name


def test_the_ratio_resolves_a_ten_percent_slowdown():
    bench = _bench()
    parent = [1.00, 1.30, 0.95, 1.10, 1.60, 1.02, 0.98, 1.25, 1.05]
    slow = {"parent": parent, "change": [1.1 * s for s in parent]}
    noisy = {"parent": parent[::-1],
             "change": [s * (1.1 + e) for s, e in zip(parent[::-1], (
                 0.05, -0.06, 0.02, -0.03, 0.0, 0.04, -0.05, 0.01, -0.02))]}
    assert bench._ratio([slow], "change", "parent")["p25"] > 1.09
    assert bench._ratio([slow, noisy], "change", "parent")["p25"] > 1
    for tasks in ([slow], [noisy], [slow, noisy]):
        assert bench._ratio(tasks, "change", "parent")["low"] > 1
    same = {"parent": parent, "change": parent[1:] + parent[:1]}
    ratio = bench._ratio([same], "change", "parent")
    assert ratio["p25"] < 1 < ratio["p75"]
    assert ratio["low"] < 1 < ratio["high"]
    # the 2nd and 10th of 11 rounds: the median ratio is outside them only
    # if at most one round falls on one side of it
    rounds = {"parent": [1.0] * 11, "change": [0.9 + 0.02 * i for i in range(11)]}
    ratio = bench._ratio([rounds], "change", "parent")
    assert (ratio["low"], ratio["high"]) == pytest.approx((0.92, 1.08))
    assert ratio["coverage"] == pytest.approx(1 - 24 / 2048)
    assert ratio["coverage"] > 0.988
