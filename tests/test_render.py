"""Figure emission: determinism, golden files, cell counts, palette."""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from powersums.cli import _GOLDEN_FIGURES
from powersums.dissect import (
    UnsupportedN,
    five_pyramids_layers,
    gauss_rectangle,
    nicomachus_4d_2d,
    step4_top_layer,
)
from powersums.render import (
    FIGURE_NAMES,
    PALETTE,
    FigureSpec,
    emit_figure,
    figure_cell_count,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

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


def test_cell_counts_match_certificates():
    assert figure_cell_count(FigureSpec("GAUSS", 4)) == 20
    assert (figure_cell_count(FigureSpec("GAUSS", 6))
            == int(gauss_rectangle(6).source_area.a))
    assert (figure_cell_count(FigureSpec("NICOMACHUS_GRID_DIY", 3))
            == int(nicomachus_4d_2d(3).source_area.a))
    # every layer of the five-pyramid assembly fills the same block
    assert figure_cell_count(FigureSpec("FIVE_PYR_SECTION", 3, section=1)) == 144
    assert figure_cell_count(FigureSpec("FIVE_PYR_SECTION", 3, section=3)) == 144
    excess = five_pyramids_layers(3)
    excess_area = sum(int(region.area.a) for layer, region in excess.targets
                      if layer == "excess")
    assert figure_cell_count(FigureSpec("CONVOLUTION_EXCESS", 3)) == excess_area
    assert (figure_cell_count(FigureSpec("TWO_COPIES", 3))
            == int(step4_top_layer(3).overlap.source_area.a))


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
    from powersums.dissect import step2_reshape, step3_scissor, three_pyramids_2d
    more = [three_pyramids_2d(2), step2_reshape(2), step3_scissor(2),
            step4_top_layer(2).overlap]
    labels |= {p.source.label for cert in more for p in cert.placements}
    missing = labels - set(PALETTE)
    assert not missing, f"palette misses: {missing}"


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


def test_figure_name_list_is_complete():
    assert len(FIGURE_NAMES) == 14
    for spec in ALL_SPECS:
        assert spec.figure_name in FIGURE_NAMES


def test_verify_all_golden_table_matches_the_golden_files():
    ext = {"svg": "svg", "tikz": "tex"}
    table = {f"{name}_n{n}.{ext[fmt]}": digest
             for (name, n, fmt), digest in _GOLDEN_FIGURES.items()}
    on_disk = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in GOLDEN_DIR.iterdir()}
    assert table == on_disk
