"""The cyclic garbage collector is paused while certificates are built
and checked: the data is acyclic, and the collector's state is restored."""

from __future__ import annotations

import gc
import random

import pytest

from powersums import cli
from powersums.dissect import checker, generators
from powersums.dissect.checker import check_certificate
from powersums.dissect.generators import (UnsupportedN, five_pyramids_layers,
                                         full_theorem_report)
from powersums.dissect.geometry import (_walk, certificate_to_json,
                                       dumps_certificate, loads_certificate)
from powersums.dissect.mutants import mutate_placement


@pytest.fixture
def gc_disabled():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def test_certificate_work_leaves_no_cyclic_garbage(gc_disabled):
    cert = five_pyramids_layers(3)
    text = dumps_certificate(cert)
    gc.collect()
    assert full_theorem_report(3).holds
    assert check_certificate(five_pyramids_layers.core(3).cert).ok
    mutant, _desc = mutate_placement(cert, random.Random(5))
    assert not check_certificate(_walk(certificate_to_json(mutant))).ok
    assert loads_certificate(text) == cert
    assert gc.collect() == 0


def test_dumps_leaves_no_cyclic_garbage(gc_disabled):
    # certificate work runs with the collector paused, so a dump must
    # build no cycle, however large the certificate
    garbage = []
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for n in (1, 4):
            cert = five_pyramids_layers(n)
            gc.collect()
            gc.garbage.clear()
            dumps_certificate(cert)
            gc.collect()
            garbage.append(list(gc.garbage))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert garbage == [[], []]


def _entry_points(monkeypatch, seen):
    """Each entry point, with an inner call wrapped in a probe that records
    whether the collector is enabled during the call."""

    def probe(fn):
        def inner(*args, **kwargs):
            seen.append(gc.isenabled())
            return fn(*args, **kwargs)
        return inner

    cert = five_pyramids_layers.core(1).cert
    monkeypatch.setattr(generators, "five_pyramids_layers",
                        probe(generators.five_pyramids_layers))
    monkeypatch.setattr(checker, "_scan", probe(checker._scan))
    monkeypatch.setattr(cli, "_build_parser", probe(cli._build_parser))
    return [
        lambda: full_theorem_report(1),
        lambda: check_certificate(cert),
        lambda: cli.main(["faulhaber", "--p", "1", "--n", "3"]),
    ]


def test_entry_points_pause_and_restore(monkeypatch, capsys):
    seen: list[bool] = []
    assert gc.isenabled()
    for call in _entry_points(monkeypatch, seen):
        seen.clear()
        call()
        assert seen and not any(seen)
        assert gc.isenabled()


def test_already_paused_callers_stay_paused(monkeypatch, capsys, gc_disabled):
    seen: list[bool] = []
    for call in _entry_points(monkeypatch, seen):
        seen.clear()
        call()
        assert seen and not any(seen)
        assert not gc.isenabled()


def test_collector_restored_after_exceptions():
    assert gc.isenabled()
    with pytest.raises(UnsupportedN):
        full_theorem_report(0)
    assert gc.isenabled()
    with pytest.raises(SystemExit) as exc:
        cli.main(["--bogus"])
    assert exc.value.code == 3
    assert gc.isenabled()


def test_collector_stays_paused_after_exceptions(gc_disabled):
    with pytest.raises(UnsupportedN):
        full_theorem_report(0)
    with pytest.raises(SystemExit):
        cli.main(["--bogus"])
    assert not gc.isenabled()
