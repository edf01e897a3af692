"""The trusted kernel and its two front ends: the kernel stands alone, and
a certificate object, walked as its document, gets the verdict of its JSON
text."""

from __future__ import annotations

import ast
import dataclasses
import json
import math
import tracemalloc
from itertools import accumulate
from operator import add
from pathlib import Path
from typing import Any

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from powersums import cli, exact, verify
from powersums.dissect import checker, generators, geometry, kernel
from powersums.dissect.checker import check_certificate
from powersums.dissect.generators import (certificate_builders,
                                         five_pyramids_layers, gauss_rectangle,
                                         nicomachus_4d_2d, step2_reshape,
                                         step3_scissor, step4_top_layer,
                                         three_pyramids_2d)
from powersums.dissect.geometry import (CertificateFormatError, _walk,
                                       certificate_to_json, dumps_certificate,
                                       read_certificate)
from powersums.dissect.kernel import CONSTRUCTIONS

KERNEL_PATH = Path(kernel.__file__)


def test_kernel_imports_only_the_standard_library():
    tree = ast.parse(KERNEL_PATH.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import on line {node.lineno}"
            assert not (node.module or "").startswith("powersums")
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("powersums") for a in node.names)


def test_the_checker_imports_no_object_front_end():
    """``check_certificate`` takes lattice data and read documents only."""
    tree = ast.parse(Path(checker.__file__).read_text(encoding="utf-8"))
    names = {a.name for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names}
    assert not names & {"DissectionCertificate", "_walk", "certificate_to_json"}


def test_one_sign_routine():
    assert exact.lattice_sign is kernel.lattice_sign


def test_the_radicand_alone_moves_every_field_operation(monkeypatch):
    """Arithmetic, sign, order, floats and areas read ``kernel.RADICAND``
    as they run; the text form, fixed when ``exact`` loads, names sqrt21."""
    root = exact.QuadExt(0, 1)
    square = kernel.LatticeCertificate(  # [0, sqrt(r)] x [0, sqrt(r)]
        "GAUSS_RECT", 1, [], [("t", [((0, 0), (0, 0), (0, 1), (0, 1))])], [], 1)
    monkeypatch.setattr(kernel, "RADICAND", 3)
    assert root * root == 3
    assert kernel.lattice_sign(-2, 1) == -1 and root < 2  # sqrt(3) < 2 < sqrt(21)
    assert kernel._sorted_points([(2, 0), (0, 1)]) == [(0, 1), (2, 0)]
    assert exact.quad_to_float(root) == math.sqrt(3)
    assert geometry.lattice_area(square, "target_area") == 3
    assert exact.quad_to_text(root) == "0+1*sqrt21"


def test_the_construction_table_is_pinned():
    # each cap bounds what check accepts, so one moved by one must fail here
    assert list(CONSTRUCTIONS.items()) == [
        ("GAUSS_RECT", 100), ("THREE_PYR_2D", 50), ("NICOMACHUS_4D_2D", 20),
        ("FIVE_PYR_LAYERS", 10), ("STEP2_RESHAPE", 10), ("STEP3_SCISSOR", 10),
        ("STEP4_TOP", 12)]


@pytest.mark.parametrize("length,echo", [
    (200, "x" * 200), (201, "x" * 200 + "... (201 characters)")], ids=["200", "201"])
def test_bounded_cuts_after_exactly_200_characters(length, echo):
    assert kernel.bounded("x" * length) == echo


def test_pieces_doubled_like_their_targets_are_malformed():
    square = ((0, 0), (0, 0), (1, 0), (1, 0))
    failure, cells = kernel._check_layer_cover("l", [square, square],
                                               [square, square])
    assert failure == kernel.Failure("malformed", "l", square,
                                     "target regions overlap (2 deep)")
    assert cells == 1


def _exit_code(report: Any) -> int:
    if report.ok:
        return cli.EXIT_OK
    if report.failure.kind == "malformed":
        return cli.EXIT_MALFORMED
    return cli.EXIT_COVER


def _verdict(text: str) -> tuple[int, str, int, int]:
    """(exit code, output line, layers, cells) of ``text`` read by
    ``read_certificate`` and checked, as ``powersums check`` does."""
    try:
        cert = read_certificate(text)
    except CertificateFormatError as exc:
        return cli.EXIT_MALFORMED, f"error: {exc}", 0, 0
    report = check_certificate(cert)
    return (_exit_code(report), f"{cert.construction} n={cert.n}: {report}",
            report.layers_checked, report.cells_checked)


_MAKERS = {
    "GAUSS_RECT": lambda n: [gauss_rectangle(n)],
    "THREE_PYR_2D": lambda n: [three_pyramids_2d(n)],
    "NICOMACHUS_4D_2D": lambda n: [nicomachus_4d_2d(n)],
    "FIVE_PYR_LAYERS": lambda n: [five_pyramids_layers(n)],
    "STEP2_RESHAPE": lambda n: [step2_reshape(n)],
    "STEP3_SCISSOR": lambda n: [step3_scissor(n)],
    "STEP4_TOP": lambda n: list(step4_top_layer(n).certificates()),
}


@pytest.mark.parametrize("construction", CONSTRUCTIONS)
def test_front_ends_agree_on_generated_certificates(construction, tmp_path,
                                                    capsys):
    path = tmp_path / "cert.json"
    for n in range(1, 4):
        for cert in _MAKERS[construction](n):
            text = dumps_certificate(cert)
            code, line, layers, cells = _verdict(text)
            assert code == cli.EXIT_OK and layers > 0 and cells > 0
            path.write_text(text, encoding="utf-8")
            assert cli.main(["check", str(path)]) == code
            assert capsys.readouterr().out == line + "\n"


def test_front_ends_agree_on_criterion_07_mutants():
    codes = {_verdict(geometry.dumps_lattice(mutant))[0]
             for mutant, _description in verify.mutants()}
    assert codes == {cli.EXIT_COVER}


# -- hostile leaves -------------------------------------------------------

SMALL_TEXT = dumps_certificate(step3_scissor(1))


def _leaf_paths(data: Any, path: tuple = ()) -> list[tuple]:
    if isinstance(data, dict):
        return [p for k, v in data.items() for p in _leaf_paths(v, path + (k,))]
    if isinstance(data, list):
        return [p for i, v in enumerate(data) for p in _leaf_paths(v, path + (i,))]
    return [path]


LEAF_PATHS = _leaf_paths(json.loads(SMALL_TEXT))

json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-10**30, 10**30),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=8),
    st.sampled_from(["0", "1", "-1", "1/2", "2/4", "1/0", "0/1", "-0",
                     "1/2+1/6*sqrt21", "1/2+-1/6*sqrt21", "3+0*sqrt21",
                     "leftover", "layer/1", f"1/{2 ** 300}", "GAUSS_RECT"]),
)
hostile_values = st.one_of(json_leaves, st.lists(json_leaves, max_size=4),
                           st.dictionaries(st.text(max_size=6), json_leaves,
                                           max_size=3))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(LEAF_PATHS), hostile_values)
@example(("placements", 0, "transform", "dx"), f"1/{2 ** 300}")
def test_front_ends_agree_on_a_hostile_leaf(path, value):
    data = json.loads(SMALL_TEXT)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    code, _line, _layers, _cells = _verdict(json.dumps(data))
    assert code in (cli.EXIT_OK, cli.EXIT_COVER, cli.EXIT_MALFORMED)


# -- an object is judged as its document ---------------------------------------

SMALL_OBJECT = step3_scissor(1)


def _fields(node: Any) -> list[tuple[Any, Any]]:
    """(field name or index, value) of each part of a certificate object;
    none for a leaf."""
    if dataclasses.is_dataclass(node):
        return [(f.name, getattr(node, f.name)) for f in dataclasses.fields(node)]
    if isinstance(node, tuple):
        return list(zip(getattr(node, "_fields", range(len(node))), node))
    return []


def _object_paths(node: Any, path: tuple = ()) -> list[tuple]:
    """The path to every part of ``node`` below it, leaves and all."""
    return [p for key, child in _fields(node)
            for p in ((*path, key), *_object_paths(child, (*path, key)))]


def _object_put(node: Any, path: tuple, value: Any) -> Any:
    if not path:
        return value
    key, rest = path[0], path[1:]
    if isinstance(key, int):
        items = list(node)
        items[key] = _object_put(items[key], rest, value)
        return tuple(items)
    changed = {key: _object_put(getattr(node, key), rest, value)}
    return (node._replace(**changed) if hasattr(node, "_replace")
            else dataclasses.replace(node, **changed))


OBJECT_PATHS = _object_paths(SMALL_OBJECT)
object_values = st.sampled_from([
    None, True, False, 1.5, "x", "", "leftover", 0, -1, 3, 2 ** 4000,
    exact.QuadExt(0), exact.QuadExt(-1), exact.QuadExt(2 ** 4000)])


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(OBJECT_PATHS), object_values)
def test_an_object_gets_the_verdict_of_its_file(tmp_path, capsys, path, value):
    """An edited object's walked record and its ``dumps_certificate`` file
    get the same exit code, or both are refused."""
    cert = _object_put(SMALL_OBJECT, path, value)
    try:
        record = _walk(certificate_to_json(cert))
    except (AttributeError, TypeError, ValueError):
        record = None  # the value has no document
    try:
        text = dumps_certificate(cert)
    except (AttributeError, TypeError, ValueError):
        assert record is None  # no file: no record either
        return
    assert record is not None
    file = tmp_path / "cert.json"
    file.write_text(text, encoding="utf-8")
    assert cli.main(["check", str(file)]) == _exit_code(check_certificate(record))
    capsys.readouterr()


# -- the JSON front end builds no exact objects -------------------------------


def test_valid_document_is_checked_without_exact_objects(monkeypatch):
    text = dumps_certificate(five_pyramids_layers(2))
    distinct = {v for p in json.loads(text)["placements"]
                for v in (p["transform"]["dx"], p["transform"]["dy"],
                          *(c for r in p["source"]["rects"] for c in r))}
    parsed = []

    def counted(text: str) -> tuple[int, int, int]:
        parsed.append(text)
        return exact.triple_from_text(text)

    def refuse(*_args: Any) -> None:
        raise AssertionError("built an exact object")

    monkeypatch.setattr(geometry, "triple_from_text", counted)
    monkeypatch.setattr(exact, "_new", refuse)
    monkeypatch.setattr(exact.QuadExt, "__init__", refuse)
    monkeypatch.setattr(geometry, "Rect", refuse)
    monkeypatch.setattr(geometry, "Region", refuse)
    report = check_certificate(read_certificate(text))
    assert report.ok
    assert len(parsed) == len(set(parsed)) and distinct <= set(parsed)


def test_integers_past_the_digit_limit_are_refused(tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text('{"construction": "GAUSS_RECT", "n": ' + "1" * 5000 + "}",
                    encoding="utf-8")
    assert cli.main(["check", str(path)]) == cli.EXIT_MALFORMED
    assert capsys.readouterr().err.startswith("error: not valid JSON: Exceeds")


# -- the grid scans against two references ----------------------------------
#
# Both references are test-only and share no code with the kernel's scans.
# ``_dense_counts`` is the kernel's earlier grid: one dense difference
# matrix and one full count grid per rect collection.  ``_midpoint_counts``
# counts, in QuadExt, the rects that contain each compressed cell's
# midpoint.  ``_reference_cover`` and ``_reference_disjoint`` are the
# earlier kernel's two scan loops, cell by cell, over either one.


def _quad(point: tuple[int, int]) -> exact.QuadExt:
    return exact.QuadExt(*point)


def _axes(rect_groups):
    xs = sorted({p for group in rect_groups for r in group for p in (r[0], r[2])},
                key=_quad)
    ys = sorted({p for group in rect_groups for r in group for p in (r[1], r[3])},
                key=_quad)
    return xs, ys


def _dense_counts(rect_groups):
    xs, ys = _axes(rect_groups)
    x_index = {v: i for i, v in enumerate(xs)}
    y_index = {v: i for i, v in enumerate(ys)}
    nx, ny = max(len(xs) - 1, 0), max(len(ys) - 1, 0)
    counts = []
    for group in rect_groups:
        diff = [[0] * (ny + 1) for _ in range(nx + 1)]
        for x1, y1, x2, y2 in group:
            i1, i2 = x_index[x1], x_index[x2]
            j1, j2 = y_index[y1], y_index[y2]
            diff[i1][j1] += 1
            diff[i2][j1] -= 1
            diff[i1][j2] -= 1
            diff[i2][j2] += 1
        grid = []
        row = [0] * ny
        for i in range(nx):
            row = list(map(add, row, accumulate(diff[i])))
            grid.append(row)
        counts.append(grid)
    return xs, ys, counts


def _midpoint_counts(rect_groups):
    xs, ys = _axes(rect_groups)
    # twice each midpoint, against twice each corner: no division needed
    mid_x = [_quad(a) + _quad(b) for a, b in zip(xs, xs[1:])]
    mid_y = [_quad(a) + _quad(b) for a, b in zip(ys, ys[1:])]
    counts = []
    for group in rect_groups:
        doubled = [[_quad(p) * 2 for p in r] for r in group]
        grid = []
        for mx in mid_x:
            across = [r for r in doubled if r[0] < mx < r[2]]
            grid.append([sum(1 for r in across if r[1] < my < r[3])
                         for my in mid_y])
        counts.append(grid)
    return xs, ys, counts


def _reference_cover(counts_of, layer, piece_rects, target_rects):
    xs, ys, (pieces, targets) = counts_of([piece_rects, target_rects])
    cells = 0
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            cells += 1
            pc, tc = pieces[i][j], targets[i][j]
            if pc == tc and tc <= 1:
                continue
            cell = xs[i], ys[j], xs[i + 1], ys[j + 1]
            if tc > 1:
                return ("malformed", layer, cell,
                        f"target regions overlap ({tc} deep)"), cells
            if tc == 0:
                return ("outside", layer, cell,
                        f"{pc} piece(s) outside every target"), cells
            if pc == 0:
                return ("uncovered", layer, cell,
                        "target cell covered by no piece"), cells
            return ("overlap", layer, cell,
                    f"target cell covered {pc} times"), cells
    return None, cells


def _reference_disjoint(counts_of, layer, source_rects):
    xs, ys, (grid,) = counts_of([source_rects])
    cells = 0
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            cells += 1
            if grid[i][j] > 1:
                return ("source-overlap", layer,
                        (xs[i], ys[j], xs[i + 1], ys[j + 1]),
                        f"piece sources overlap ({grid[i][j]} deep)"), cells
    return None, cells


_SCANS = {"cover": (kernel._check_layer_cover, _reference_cover),
          "source": (kernel._check_source_disjoint, _reference_disjoint)}


def _assert_scans_agree(scan: str, layer: str, *rect_lists) -> Any:
    """The kernel's verdict, message, cell and cells scanned on one layer,
    after checking that both references give the same."""
    ours, reference = _SCANS[scan]
    got = ours(layer, *rect_lists)
    assert got == reference(_dense_counts, layer, *rect_lists)
    assert got == reference(_midpoint_counts, layer, *rect_lists)
    return got


def _assert_layers_agree(lattice) -> list:
    """Every source and destination layer of the lattice data ``lattice``
    through ``_assert_scans_agree``: the kernel's results, layer by layer."""
    sources, placed, targets = {}, {}, {}
    for _id, source_layer, rects, transform, dest in lattice.pieces:
        sources.setdefault(source_layer, []).extend(rects)
        placed.setdefault(dest, []).extend(kernel._place(rects, transform))
    for layer, rects in lattice.targets:
        targets.setdefault(layer, []).extend(rects)
    if lattice.leftovers:
        targets[kernel.LEFTOVER_LAYER] = [r for rects in lattice.leftovers
                                          for r in rects]
    results = [_assert_scans_agree("source", layer, rects)
               for layer, rects in sources.items()]
    results += [_assert_scans_agree("cover", layer, placed.get(layer, []),
                                    targets.get(layer, []))
                for layer in set(placed) | set(targets)]
    return results


@pytest.mark.parametrize("construction", CONSTRUCTIONS)
def test_scans_match_both_references_on_every_variant(construction):
    for n in range(1, 4):
        for build in certificate_builders(construction).values():
            results = _assert_layers_agree(build.core(n).cert)
            assert all(failure is None for failure, _cells in results)


def _source_copied(cert):
    """``cert`` with the source of its first placement copied onto the next
    placement from the same source layer, and that layer."""
    first, *rest = cert.placements
    k = 1 + next(i for i, p in enumerate(rest)
                 if p.source_layer == first.source_layer)
    placements = list(cert.placements)
    placements[k] = dataclasses.replace(placements[k], source=first.source)
    return (dataclasses.replace(cert, placements=tuple(placements)),
            first.source_layer)


@pytest.mark.parametrize("construction", CONSTRUCTIONS)
def test_a_copied_source_fails_the_source_scan(construction):
    for build in certificate_builders(construction).values():
        mutant, layer = _source_copied(build(2))
        report = check_certificate(_walk(certificate_to_json(mutant)))
        assert not report.ok
        failure = report.failure
        assert (failure.kind, failure.layer, failure.message) == (
            "source-overlap", layer, "piece sources overlap (2 deep)")
        assert check_certificate(read_certificate(dumps_certificate(mutant))) == report


def test_scans_match_both_references_on_criterion_07_mutants():
    kinds = set()
    for mutant, _description in verify.mutants():
        results = _assert_layers_agree(mutant.cert)
        kinds.update(failure.kind for failure, _cells in results if failure is not None)
    assert kinds == {"outside", "uncovered", "overlap"}  # they move pieces only


_SQUARE = ((0, 0), (0, 0), (1, 0), (1, 0))
_WIDE = ((0, 0), (0, 0), (3, 0), (1, 0))
_ROOT_SQUARE = ((-3, 1), (0, 0), (3, 1), (6, 0))  # 6 wide over D = 1


@pytest.mark.parametrize("targets", [
    [_SQUARE, _SQUARE], [_SQUARE, _SQUARE, _SQUARE], [_WIDE, _SQUARE],
    [_ROOT_SQUARE, _ROOT_SQUARE], [_SQUARE], [],
], ids=["square twice", "square three times", "square inside a strip",
        "irrational square twice", "square once", "nothing"])
def test_scans_match_both_references_on_a_layer_without_pieces(targets):
    failure, _cells = _assert_scans_agree("cover", "ghost", [], targets)
    if len(targets) > 1:
        assert failure.kind == "malformed"


# a + b*sqrt(21) as lattice pairs: most cuts are off every integer
offsets = st.tuples(st.integers(-8, 8), st.integers(-2, 2))


@st.composite
def guillotine_tilings(draw):
    """(frame, tiles): a guillotine tiling of a frame whose cuts lie at
    sorted lattice points, split at random until each tile is left."""
    xs = sorted(draw(st.lists(offsets, min_size=2, max_size=5, unique=True)),
                key=_quad)
    ys = sorted(draw(st.lists(offsets, min_size=2, max_size=5, unique=True)),
                key=_quad)
    tiles = []

    def split(i1, j1, i2, j2):
        cuts = [("x", k) for k in range(i1 + 1, i2)]
        cuts += [("y", k) for k in range(j1 + 1, j2)]
        if not cuts or not draw(st.integers(0, 3)):
            tiles.append((xs[i1], ys[j1], xs[i2], ys[j2]))
            return
        axis, k = draw(st.sampled_from(cuts))
        if axis == "x":
            split(i1, j1, k, j2)
            split(k, j1, i2, j2)
        else:
            split(i1, j1, i2, k)
            split(i1, k, i2, j2)

    split(0, 0, len(xs) - 1, len(ys) - 1)
    return (xs[0], ys[0], xs[-1], ys[-1]), tiles


def _shifted(r, d):
    (x1, y1, x2, y2), (da, db) = r, d
    return tuple((a + da, b + db) for a, b in (x1, y1, x2, y2))


@st.composite
def perturbed(draw, tiling):
    """(targets, tiles): the tiling as it is, or with one defect: a tile
    moved, dropped or repeated, a second target over the frame, or no
    tiles at all under a tile's square declared twice as a target."""
    frame, tiles = tiling
    targets, tiles = [frame], list(tiles)
    k = draw(st.integers(0, len(tiles) - 1))
    defect = draw(st.sampled_from(["none", "move", "drop", "repeat", "target",
                                   "bare"]))
    if defect == "bare":
        targets, tiles = [tiles[k], tiles[k]], []
    elif defect == "move":
        tiles[k] = _shifted(tiles[k], draw(offsets))
    elif defect == "drop":
        del tiles[k]
    elif defect == "repeat":
        tiles.append(tiles[k])
    elif defect == "target":
        targets.append(tiles[k])
    return targets, tiles


@settings(max_examples=150, deadline=None)
@given(st.data(), guillotine_tilings(), st.integers(0, 3), st.booleans(),
       offsets, offsets)
def test_scans_match_both_references_on_moved_tilings(
        data, tiling, quarter_turns, reflect, dx, dy):
    targets, tiles = data.draw(perturbed(tiling))
    motion = (quarter_turns, reflect, dx, dy)
    _assert_scans_agree("source", "s", tiles)
    _assert_scans_agree("cover", "t", kernel._place(tiles, motion),
                        kernel._place(targets, motion))


# -- bounded memory and the layer budget -------------------------------------


def _diagonal(k: int) -> str:
    """k disjoint unit squares on a diagonal, each a piece sent onto itself
    and a target: 2k distinct coordinates per axis, so about 4k**2 cells."""
    def square(i):
        return [str(2 * i), str(2 * i), "1", "1"]

    return json.dumps({
        "construction": "GAUSS_RECT", "n": 1,
        "placements": [{"piece_id": f"p{i}", "source_layer": "s",
                        "source": {"label": "square", "rects": [square(i)]},
                        "transform": {"quarter_turns": 0, "reflect": False,
                                      "dx": "0", "dy": "0"},
                        "destination_layer": "t"} for i in range(k)],
        "targets": [{"layer": "t",
                     "region": {"label": "target", "rects": [square(i)]}}
                    for i in range(k)],
        "leftovers": []})


def test_a_wide_layer_is_checked_in_little_memory():
    cert = read_certificate(_diagonal(1000))
    tracemalloc.start()
    try:
        report = check_certificate(cert)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok and report.cells_checked == 2 * 1999 ** 2
    assert peak < 8 * 2 ** 20


def test_a_stage_is_checked_in_less_memory_than_its_own_data():
    """Each destination layer is placed just before its scan, so the placed
    rects of the 11 destination layers of FIVE_PYR_LAYERS at its cap never
    all exist."""
    tracemalloc.start()
    try:
        cert = generators._five_pyramids_layers(10).cert
        data, _peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        report = check_certificate(cert)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok and report.layers_checked == 22  # 11 source, 11 destination
    assert peak - data < data


def test_a_layer_over_the_cell_budget_is_refused_unscanned(monkeypatch, tmp_path,
                                                           capsys):
    counts = kernel._grid_counts

    def no_rows(groups):
        xs, ys, _rows = counts(groups)

        def refused():
            raise AssertionError("a row was counted")
            yield

        return xs, ys, refused()

    monkeypatch.setattr(kernel, "_grid_counts", no_rows)
    assert 2199 ** 2 > kernel.MAX_LAYER_CELLS  # 1100 squares, 2200 coordinates
    report = check_certificate(read_certificate(_diagonal(1100)))
    message = (f"too large: 2199 x 2199 grid cells, at most "
               f"{kernel.MAX_LAYER_CELLS} on one layer")
    assert not report.ok and (report.layers_checked, report.cells_checked) == (1, 0)
    assert str(report.failure) == f"malformed on layer 's': {message}"
    path = tmp_path / "cert.json"
    path.write_text(_diagonal(1100), encoding="utf-8")
    assert cli.main(["check", str(path)]) == cli.EXIT_MALFORMED
    assert capsys.readouterr().out == f"GAUSS_RECT n=1: FAIL {report.failure}\n"


def test_the_cell_budget_admits_a_layer_of_exactly_its_size(monkeypatch):
    squares = [((2 * i, 0), (2 * i, 0), (2 * i + 1, 0), (2 * i + 1, 0))
               for i in range(2)]  # 4 coordinates per axis: 3 x 3 cells
    monkeypatch.setattr(kernel, "MAX_LAYER_CELLS", 9)
    assert kernel._check_layer_cover("l", squares, squares) == (None, 9)
    monkeypatch.setattr(kernel, "MAX_LAYER_CELLS", 8)
    assert kernel._check_source_disjoint("l", squares) == (kernel.Failure(
        "malformed", "l", None,
        "too large: 3 x 3 grid cells, at most 8 on one layer"), 0)
