"""Command-line entry point.

Exit codes: 0 all checks pass, 1 identity mismatch, 2 certificate cover
failure, 3 malformed input or flags.  Numeric output uses the exact text
serialisation; floats never leave the figure files.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path
from typing import Callable, Sequence

from . import dissect, figurate, pyramid, render
from ._nogc import nogc
from .exact import quad_to_text, rat_to_text

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_COVER = 2
EXIT_MALFORMED = 3


class _Parser(argparse.ArgumentParser):
    """argparse that reports flag errors with exit code 3."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_MALFORMED)


_GENERATORS: dict[str, Callable[[int], dissect.DissectionCertificate
                                 | dissect.TopLayerResult]] = {
    "GAUSS_RECT": dissect.gauss_rectangle,
    "THREE_PYR_2D": dissect.three_pyramids_2d,
    "NICOMACHUS_4D_2D": dissect.nicomachus_4d_2d,
    "FIVE_PYR_LAYERS": dissect.five_pyramids_layers,
    "STEP2_RESHAPE": dissect.step2_reshape,
    "STEP3_SCISSOR": dissect.step3_scissor,
    "STEP4_TOP": dissect.step4_top_layer,
}

#: ``--variant`` -> the ``TopLayerResult`` field written for STEP4_TOP.
_STEP4_VARIANTS = {"overlap": "overlap", "bijection": "bijection",
                   "bijection-full": "bijection_full_scale"}


def _certificate(name: str, n: int,
                 variant: str = "overlap") -> dissect.DissectionCertificate:
    """``name``'s certificate at ``n``; UnsupportedN beyond its cap."""
    made = _GENERATORS[name](n)
    if isinstance(made, dissect.TopLayerResult):
        return getattr(made, _STEP4_VARIANTS[variant])
    return made


def _build_parser() -> _Parser:
    parser = _Parser(prog="powersums",
                     description="Exact dissection proofs of the power-sum "
                                 "formulas S_p(n), p = 1..4.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("identity", help="evaluate one registry identity")
    p.add_argument("name", choices=sorted(figurate.IDENTITY_NAMES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--p", type=int)

    p = sub.add_parser("bernoulli", help="print B_0..B_m")
    p.add_argument("--upto", type=int, required=True)

    p = sub.add_parser("faulhaber", help="evaluate S_p(n) via the closed formula")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("sections", help="pyramid section sizes (and cells)")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--secondary", type=int, metavar="AXIS")
    p.add_argument("--emit", choices=("sizes", "cells"), default="sizes")

    p = sub.add_parser("certificate", help="generate a dissection certificate")
    p.add_argument("construction", choices=tuple(dissect.CONSTRUCTIONS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--variant", choices=tuple(_STEP4_VARIANTS),
                   default="overlap",
                   help="which STEP4_TOP certificate to write")

    p = sub.add_parser("check", help="verify a certificate file")
    p.add_argument("path", type=Path)

    p = sub.add_parser("figure", help="render a figure to SVG or TikZ")
    p.add_argument("name", choices=sorted(render.FIGURE_NAMES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("svg", "tikz"), default="svg")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--unit-px", type=int, default=24)
    p.add_argument("--section", type=int, default=1,
                   help="layer index for FIVE_PYR_SECTION")

    p = sub.add_parser("verify-all", help="run the verification sweep")
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--report", choices=("text", "json"), default="text")
    return parser


def _cmd_identity(args: argparse.Namespace) -> int:
    params = {"n": args.n}
    if args.m is not None:
        params["m"] = args.m
    if args.p is not None:
        params["p"] = args.p
    try:
        report = figurate.evaluate_identity(args.name, params)
    except figurate.IdentityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    print(report)
    return EXIT_OK if report.holds else EXIT_IDENTITY


def _cmd_bernoulli(args: argparse.Namespace) -> int:
    if args.upto < 0:
        print("error: --upto must be >= 0", file=sys.stderr)
        return EXIT_MALFORMED
    for m, value in enumerate(figurate.bernoulli_table(args.upto)):
        print(f"B_{m} = {rat_to_text(value)}")
    return EXIT_OK


def _cmd_faulhaber(args: argparse.Namespace) -> int:
    if args.p < 0 or args.n < 0:
        print("error: p and n must be >= 0", file=sys.stderr)
        return EXIT_MALFORMED
    closed = figurate.faulhaber(args.p, args.n)
    print(rat_to_text(closed))
    return EXIT_OK


def _cmd_sections(args: argparse.Namespace) -> int:
    try:
        p = pyramid.build_pyramid(args.dim, args.n)
        if args.secondary is not None:
            sections = pyramid.secondary_sections(p, args.secondary)
        else:
            sections = pyramid.main_sections(p)
    except (pyramid.DimensionOutOfRange, pyramid.AxisOutOfRange,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    if args.emit == "sizes":
        print("sizes: " + " ".join(str(len(s)) for s in sections))
    else:
        for index, section in enumerate(sections, start=1):
            for cell in section.sorted_cells():
                print(f"{index} " + ",".join(str(c) for c in cell))
    return EXIT_OK


def _cmd_certificate(args: argparse.Namespace) -> int:
    try:
        cert = _certificate(args.construction, args.n, args.variant)
    except dissect.UnsupportedN as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    args.out.write_text(dissect.dumps_certificate(cert), encoding="utf-8")
    print(f"{cert.construction} n={cert.n}: {len(cert.placements)} placements, "
          f"area {quad_to_text(cert.source_area)} -> {args.out}")
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    try:
        text = args.path.read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    try:
        cert = dissect.read_certificate(text)
    except dissect.CertificateFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    report = dissect.check_certificate(cert)
    print(f"{cert.construction} n={cert.n}: {report}")
    if report.ok:
        return EXIT_OK
    if report.failure is not None and report.failure.kind == "malformed":
        return EXIT_MALFORMED
    return EXIT_COVER


def _cmd_figure(args: argparse.Namespace) -> int:
    if args.unit_px < 1:
        print("error: --unit-px must be >= 1", file=sys.stderr)
        return EXIT_MALFORMED
    spec = render.FigureSpec(figure_name=args.name, n=args.n,
                             format=args.format, unit_px=args.unit_px,
                             section=args.section)
    try:
        document = render.emit_figure(spec)
    except dissect.UnsupportedN as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    args.out.write_text(document, encoding="utf-8")
    print(f"{args.name} n={args.n} -> {args.out}")
    return EXIT_OK


# -- verify-all -------------------------------------------------------------

# The ranges of the acceptance criteria (tests/test_acceptance.py) that the
# sweep mirrors; --max-n only lowers them.
_ORACLE_MAX_N = 200  # criterion 03
_REGISTRY_MAX_N = 100  # criterion 04
_SECTIONS_MAX_N = 12  # criterion 05
_MUTANTS = 100  # criterion 07, per construction

#: (figure, n, format) -> sha256 of its bytes, for each file in tests/golden
#: (criterion 10); rendered at these n whatever --max-n is
_GOLDEN_FIGURES = {
    ("GAUSS", 4, "svg"):
        "178ba2e86e2630f72d6c7bd7c5b27da8fbcc56fc8c91589efc5488f6506dee8f",
    ("GAUSS", 4, "tikz"):
        "3dc9ba54bb82213b52472b7190275c7a2998fd72457dc8b759751f00b66e7afe",
    ("MAIN_SECTIONS", 4, "svg"):
        "b6267b200585800daa0b7cef531801381b39dd4e002fe5394bfed61b35d10ea8",
    ("NICOMACHUS_GRID_DIY", 3, "svg"):
        "542cd9c43b5cfae81effdd30725d6d3205bc1f77b5fe9dcb7c6bf4af7ce3fdb0",
    ("STEP3_SCISSOR", 2, "svg"):
        "ab55ec04a20676eae5b0d6c5a0438690097e5bab5b6548451d400251542815ce",
    ("STEP3_SCISSOR", 2, "tikz"):
        "920f9910d7ca9af14f7caf8098744e6d592c6627ab127a06ec554aeaddd30c50",
    ("TWO_COPIES", 3, "svg"):
        "477dfc9f71360c2b9c2caaf9723ca8584c6cbc64ea94d15ea3693865db55427b",
}


def _sweep_checks(max_n: int) -> list[tuple[str, Callable[[], bool], str]]:
    """(name, thunk, failure kind) triples for the verification sweep."""
    table_expected = ["1", "1/2", "1/6", "0", "-1/30", "0", "1/42", "0",
                      "-1/30", "0", "5/66", "0", "-691/2730", "0", "7/6", "0"]
    checks: list[tuple[str, Callable[[], bool], str]] = []

    checks.append((
        "bernoulli/table",
        lambda: [rat_to_text(v) for v in figurate.bernoulli_table(15)]
        == table_expected,
        "identity",
    ))
    checks.append((
        "faulhaber/boast",
        lambda: figurate.faulhaber(10, 1000)
        == 91409924241424243424241924242500,
        "identity",
    ))
    checks.append((
        "faulhaber/oracle",
        lambda: all(
            figurate.faulhaber(p, n) == figurate.sum_powers_bruteforce(p, n)
            for p in range(0, 9)
            for n in range(0, min(max_n * 10, _ORACLE_MAX_N) + 1)
        ),
        "identity",
    ))

    def identity_sweep() -> bool:
        for name, (params, _) in figurate.REGISTRY.items():
            for n in range(1, min(max_n, _REGISTRY_MAX_N) + 1):
                if "m" in params:
                    cases = [{"n": n, "m": m} for m in range(1, n + 1)]
                else:
                    cases = [{"n": n}]
                for case in cases:
                    if "p" in params:
                        for p in range(0, 5):
                            if not figurate.evaluate_identity(
                                    name, {**case, "p": p}).holds:
                                return False
                    elif not figurate.evaluate_identity(name, case).holds:
                        return False
        return True

    checks.append(("identity/registry", identity_sweep, "identity"))

    checks.append((
        "pyramid/sections",
        lambda: all(pyramid.sections_agree(d, n).holds for d in (3, 4, 5)
                    for n in range(1, min(max_n, _SECTIONS_MAX_N) + 1)),
        "identity",
    ))

    caps = dissect.CONSTRUCTIONS
    # the pipeline checks the S_4 stages, together with their interfaces
    for name in ("GAUSS_RECT", "THREE_PYR_2D", "NICOMACHUS_4D_2D"):
        def cert_sweep(name: str = name) -> bool:
            return all(dissect.check_certificate(_certificate(name, n)).ok
                       for n in range(1, min(max_n, caps[name]) + 1))
        checks.append((f"certificate/{name}", cert_sweep, "cover"))

    checks.append((
        "certificate/FIVE_PYR_PIPELINE",
        lambda: all(dissect.full_theorem_report(n).holds for n in
                    range(1, min(max_n, caps["FIVE_PYR_LAYERS"]) + 1)),
        "cover",
    ))

    def mutation_sweep() -> bool:
        rng = random.Random(21)
        for name in caps:
            cert = _certificate(name, 2)
            for _ in range(_MUTANTS):
                mutant, _desc = dissect.mutate_placement(cert, rng)
                if dissect.check_certificate(mutant).ok:
                    return False
        return True

    checks.append(("certificate/mutations", mutation_sweep, "cover"))

    def render_sweep() -> bool:
        # imported here: hashlib maps OpenSSL, about 3 MiB of resident
        # memory that no other command needs
        import hashlib

        return all(
            hashlib.sha256(render.emit_figure(render.FigureSpec(
                name, n, format=fmt)).encode("utf-8")).hexdigest() == digest
            for (name, n, fmt), digest in _GOLDEN_FIGURES.items())

    checks.append(("render/golden", render_sweep, "identity"))
    return checks


def _cmd_verify_all(args: argparse.Namespace) -> int:
    if args.max_n < 1:
        print("error: --max-n must be >= 1", file=sys.stderr)
        return EXIT_MALFORMED
    results = []
    exit_code = EXIT_OK
    for name, thunk, kind in _sweep_checks(args.max_n):
        start = time.perf_counter()
        try:
            ok = thunk()
        except Exception as exc:  # a crash is a failure, not an abort
            ok = False
            name = f"{name} ({type(exc).__name__}: {exc})"
        elapsed = time.perf_counter() - start
        results.append({"check": name, "ok": ok, "seconds": round(elapsed, 3)})
        if args.report == "text":
            print(f"{'PASS' if ok else 'FAIL'} {name} ({elapsed:.2f}s)")
        if not ok and exit_code == EXIT_OK:
            exit_code = EXIT_COVER if kind == "cover" else EXIT_IDENTITY
    if args.report == "json":
        print(json.dumps({"ok": exit_code == EXIT_OK, "max_n": args.max_n,
                          "checks": results}, indent=1))
    else:
        passed = sum(1 for r in results if r["ok"])
        print(f"{passed}/{len(results)} checks passed")
    return exit_code


@nogc
def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "identity": _cmd_identity,
        "bernoulli": _cmd_bernoulli,
        "faulhaber": _cmd_faulhaber,
        "sections": _cmd_sections,
        "certificate": _cmd_certificate,
        "check": _cmd_check,
        "figure": _cmd_figure,
        "verify-all": _cmd_verify_all,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
