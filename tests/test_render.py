"""Figure emission: determinism, golden files, cell counts, palette."""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from powersums import pyramid
from powersums.cli import main
from powersums.dissect import generators, geometry
from powersums.dissect.generators import (UnsupportedN, five_pyramids_layers,
                                         gauss_rectangle, nicomachus_4d_2d,
                                         step4_top_layer)
from powersums.render import (
    _FIGURES,
    FIGURE_NAMES,
    PALETTE,
    FigureSpec,
    emit_figure,
    figure_cell_count,
)
from powersums.verify import GOLDEN_FIGURES

GOLDEN_DIR = Path(__file__).parent / "golden"
#: sha256 of every certificate and figure the benchmark's emit workload writes
DIGESTS = Path(__file__).parents[1] / "perfbench" / "digests.json"

ALL_SPECS = [
    FigureSpec("ODD_NUMBERS", 4),
    FigureSpec("GAUSS", 4),
    FigureSpec("MAIN_SECTIONS", 4),
    FigureSpec("SECONDARY_SECTIONS", 4),
    FigureSpec("PUZZLE_3D", 3),
    FigureSpec("PUZZLE_3D_DIY", 3),
    FigureSpec("NICOMACHUS_GRID", 3),
    FigureSpec("NICOMACHUS_GRID_DIY", 3),
    FigureSpec("FIVE_PYR_SECTION", 3, section=2),
    FigureSpec("CONVOLUTION_EXCESS", 3),
    FigureSpec("STEP2", 2),
    FigureSpec("STEP3_SCISSOR", 2),
    FigureSpec("TOP_DUAL", 3),
    FigureSpec("TWO_COPIES", 3),
]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.figure_name)
def test_every_figure_is_deterministic(spec):
    first = emit_figure(spec)
    second = emit_figure(spec)
    assert first == second
    tikz_spec = FigureSpec(spec.figure_name, spec.n, format="tikz",
                           section=spec.section)
    assert emit_figure(tikz_spec) == emit_figure(tikz_spec)


@pytest.mark.parametrize("name,n,fmt,ext", [
    ("GAUSS", 4, "svg", "svg"),
    ("MAIN_SECTIONS", 4, "svg", "svg"),
    ("NICOMACHUS_GRID_DIY", 3, "svg", "svg"),
    ("STEP3_SCISSOR", 2, "svg", "svg"),
    ("TWO_COPIES", 3, "svg", "svg"),
    ("GAUSS", 4, "tikz", "tex"),
    ("STEP3_SCISSOR", 2, "tikz", "tex"),
])
def test_matches_golden_file(name, n, fmt, ext):
    document = emit_figure(FigureSpec(name, n, format=fmt))
    golden = (GOLDEN_DIR / f"{name}_n{n}.{ext}").read_text(encoding="utf-8")
    assert document == golden


def test_section_figures_build_no_pyramid(monkeypatch):
    def refuse(*args):
        raise AssertionError("a section figure built a pyramid")

    monkeypatch.setattr(pyramid, "build_pyramid", refuse)
    # every pyramid builder makes its cells here, so a builder imported by
    # name is refused too
    monkeypatch.setattr(pyramid, "_level_stream", refuse)
    for name in ("MAIN_SECTIONS", "SECONDARY_SECTIONS"):
        for fmt in ("svg", "tikz"):
            emit_figure(FigureSpec(name, 4, format=fmt))
    golden = (GOLDEN_DIR / "MAIN_SECTIONS_n4.svg").read_text(encoding="utf-8")
    assert emit_figure(FigureSpec("MAIN_SECTIONS", 4)) == golden


#: every public builder of certificate objects
_VIEW_BUILDERS = ("gauss_rectangle", "three_pyramids_2d", "nicomachus_4d_2d",
                  "five_pyramids_layers", "step2_reshape", "step3_scissor",
                  "step4_overlap", "step4_bijection", "step4_bijection_full",
                  "step4_top_layer")


def test_figures_draw_kernel_data_and_build_no_view(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a figure built a certificate object or moved one")

    refused = [geometry.certificate_from_lattice,
               *(getattr(generators, name) for name in _VIEW_BUILDERS)]
    # wherever a package module or a module-level table holds them
    for key, module in list(sys.modules.items()):
        if key == "powersums" or key.startswith("powersums."):
            for namespace in (vars(module), *(v for v in vars(module).values()
                                              if type(v) is dict)):
                for name, value in list(namespace.items()):
                    if any(value is f for f in refused):
                        monkeypatch.setitem(namespace, name, refuse)
    monkeypatch.setattr(geometry.Placement, "placed", refuse)
    monkeypatch.setattr(geometry.RigidTransform, "apply_rect", refuse)
    monkeypatch.setattr(geometry.PointTable, "__missing__", refuse)
    for name in FIGURE_NAMES:
        for n in range(1, 4):
            sections = range(1, n + 1) if name == "FIVE_PYR_SECTION" else [None]
            for section in sections:
                for fmt in ("svg", "tikz"):
                    emit_figure(FigureSpec(name, n, format=fmt, section=section))
    for (name, n, fmt), digest in GOLDEN_FIGURES.items():
        document = emit_figure(FigureSpec(name, n, format=fmt))
        assert hashlib.sha256(document.encode()).hexdigest() == digest


def _source_area(cert) -> int:
    """The source area of lattice data whose sources are whole cells."""
    area = geometry.lattice_area(cert, "source_area")
    assert area.b == 0 and area.a.denominator == 1
    return int(area.a)


def test_cell_counts_match_certificates():
    assert figure_cell_count(FigureSpec("GAUSS", 4)) == 20
    assert (figure_cell_count(FigureSpec("GAUSS", 6))
            == _source_area(gauss_rectangle.core(6).cert))
    assert (figure_cell_count(FigureSpec("NICOMACHUS_GRID_DIY", 3))
            == _source_area(nicomachus_4d_2d.core(3).cert))
    # every layer of the five-pyramid assembly fills the same block
    assert figure_cell_count(FigureSpec("FIVE_PYR_SECTION", 3, section=1)) == 144
    assert figure_cell_count(FigureSpec("FIVE_PYR_SECTION", 3, section=3)) == 144
    excess = five_pyramids_layers(3)
    excess_area = sum(int((r.w * r.h).a) for layer, region in excess.targets
                      if layer == "excess" for r in region.rects)
    assert figure_cell_count(FigureSpec("CONVOLUTION_EXCESS", 3)) == excess_area
    assert (figure_cell_count(FigureSpec("TWO_COPIES", 3))
            == _source_area(generators._step4_overlap(3).cert))


def test_gauss_figure_shape():
    svg = emit_figure(FigureSpec("GAUSS", 4))
    assert svg.startswith("<?xml")
    assert svg.count("<rect") == 20 + 1  # unit cells plus the target frame
    assert svg.endswith("</svg>\n")


def test_tikz_fragment_shape():
    tikz = emit_figure(FigureSpec("MAIN_SECTIONS", 3, format="tikz"))
    assert tikz.startswith("\\definecolor")
    assert "\\begin{tikzpicture}" in tikz and tikz.endswith("\\end{tikzpicture}\n")


def test_step3_annotates_strip_width():
    svg = emit_figure(FigureSpec("STEP3_SCISSOR", 2))
    assert "0.2638" in svg


def test_palette_covers_all_generator_labels():
    certs = [gauss_rectangle(2), nicomachus_4d_2d(2), five_pyramids_layers(2)]
    labels = {p.source.label for cert in certs for p in cert.placements}
    from powersums.dissect.generators import (step2_reshape, step3_scissor,
                                             three_pyramids_2d)
    more = [three_pyramids_2d(2), step2_reshape(2), step3_scissor(2),
            step4_top_layer(2).overlap]
    labels |= {p.source.label for cert in more for p in cert.placements}
    missing = labels - set(PALETTE)
    assert not missing, f"palette misses: {missing}"


@pytest.mark.parametrize("unit_px", [24, 999])
def test_tikz_refuses_a_unit_px(unit_px):
    """TikZ output has no pixel size, so a ``unit_px`` is refused, not ignored."""
    with pytest.raises(ValueError, match="^tikz takes no --unit-px$"):
        emit_figure(FigureSpec("GAUSS", 2, format="tikz", unit_px=unit_px))


@pytest.mark.parametrize("spec", [
    FigureSpec("NOPE", 1),
    FigureSpec("GAUSS", 1, format="pdf"),
    FigureSpec("GAUSS", 1, unit_px=-5),
    FigureSpec("GAUSS", 1, unit_px=True),
    FigureSpec("GAUSS", 1, format="tikz", unit_px=24),
], ids=["unknown-figure", "format-pdf", "unit-px-negative", "unit-px-bool",
        "tikz-unit-px"])
def test_a_spec_the_emitter_refuses_has_no_cell_count(spec):
    """``figure_cell_count`` refuses each spec ``emit_figure`` refuses, with
    the same exception and text."""
    with pytest.raises((TypeError, ValueError)) as emitted:
        emit_figure(spec)
    with pytest.raises((TypeError, ValueError)) as counted:
        figure_cell_count(spec)
    assert type(counted.value) is type(emitted.value)
    assert str(counted.value) == str(emitted.value)


def test_unsupported_inputs():
    with pytest.raises(ValueError):
        emit_figure(FigureSpec("NOT_A_FIGURE", 3))
    with pytest.raises(ValueError):
        emit_figure(FigureSpec("GAUSS", 3, format="png"))
    with pytest.raises(UnsupportedN):
        emit_figure(FigureSpec("GAUSS", 0))
    with pytest.raises(UnsupportedN):
        emit_figure(FigureSpec("NICOMACHUS_GRID", 21))
    with pytest.raises(UnsupportedN):
        emit_figure(FigureSpec("FIVE_PYR_SECTION", 3, section=4))
    for section in (True, 2.0, 2.5):
        with pytest.raises(TypeError, match="section must be an int"):
            emit_figure(FigureSpec("FIVE_PYR_SECTION", 3, section=section))
    for unit_px in (0, 1001):
        with pytest.raises(ValueError, match="--unit-px must be 1..1000"):
            emit_figure(FigureSpec("GAUSS", 1, unit_px=unit_px))
    with pytest.raises(TypeError, match="unit_px must be an int"):
        emit_figure(FigureSpec("GAUSS", 1, unit_px=True))
    # the figures that draw from no generator state their own cap
    for name, cap in [("ODD_NUMBERS", 100), ("MAIN_SECTIONS", 50),
                      ("SECONDARY_SECTIONS", 50), ("TOP_DUAL", 20)]:
        with pytest.raises(UnsupportedN, match=f"n <= {cap}, got {cap + 1}"):
            emit_figure(FigureSpec(name, cap + 1))


@pytest.mark.parametrize("value", [True, 2.0, 2.5], ids=repr)
@pytest.mark.parametrize("name", FIGURE_NAMES)
def test_an_n_that_is_not_an_int_is_refused(name, value):
    with pytest.raises(TypeError, match="n must be an int"):
        emit_figure(FigureSpec(name, value))


def test_figure_name_list_is_complete():
    assert len(FIGURE_NAMES) == 14
    for spec in ALL_SPECS:
        assert spec.figure_name in FIGURE_NAMES
    # one name per builder, in the order the figures have always been listed
    assert FIGURE_NAMES == tuple(_FIGURES)
    assert FIGURE_NAMES == tuple(spec.figure_name for spec in ALL_SPECS)


def test_verify_all_golden_table_matches_the_golden_files():
    ext = {"svg": "svg", "tikz": "tex"}
    table = {f"{name}_n{n}.{ext[fmt]}": digest
             for (name, n, fmt), digest in GOLDEN_FIGURES.items()}
    on_disk = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in GOLDEN_DIR.iterdir()}
    assert table == on_disk


def test_every_emit_output_matches_the_digest_table(tmp_path, capsys):
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert len(digests) == 262
    out = tmp_path / "out"
    wrong = []
    for key, digest in digests.items():
        code = main(key.split() + ["--out", str(out)])
        if code != 0 or hashlib.sha256(out.read_bytes()).hexdigest() != digest:
            wrong.append(key)
    capsys.readouterr()
    assert wrong == []
