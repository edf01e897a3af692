"""Command-line entry point.

Exit codes: 0 all checks pass, 1 identity mismatch, 2 certificate cover
failure, 3 malformed input or flags.  Numeric output uses the exact text
serialisation; floats never leave the figure files.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Sequence

from . import dissect, figurate, pyramid, render, verify
from ._nogc import nogc
# _GENERATORS is bound here too, as the same dict: perfbench reads it from cli
from .dissect.generators import _GENERATORS, _STEP4_VARIANTS, _certificate  # noqa: F401
from .dissect.kernel import bounded
from .exact import quad_to_text, rat_to_text

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_COVER = 2
EXIT_MALFORMED = 3

#: Largest ``figure --unit-px``: no drawing needs more, and far larger
#: values overflow the float pixel sizes.
MAX_UNIT_PX = 1000


class _Parser(argparse.ArgumentParser):
    """argparse that reports flag errors with exit code 3."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_MALFORMED)


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
    try:
        args.out.write_text(dissect.dumps_certificate(cert), encoding="utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
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
    print(f"{bounded(cert.construction)} n={bounded(str(cert.n))}: {report}")
    if report.ok:
        return EXIT_OK
    if report.failure is not None and report.failure.kind == "malformed":
        return EXIT_MALFORMED
    return EXIT_COVER


def _cmd_figure(args: argparse.Namespace) -> int:
    if not 1 <= args.unit_px <= MAX_UNIT_PX:
        print(f"error: --unit-px must be 1..{MAX_UNIT_PX}", file=sys.stderr)
        return EXIT_MALFORMED
    spec = render.FigureSpec(figure_name=args.name, n=args.n,
                             format=args.format, unit_px=args.unit_px,
                             section=args.section)
    try:
        document = render.emit_figure(spec)
    except dissect.UnsupportedN as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    try:
        args.out.write_text(document, encoding="utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    print(f"{args.name} n={args.n} -> {args.out}")
    return EXIT_OK


def _cmd_verify_all(args: argparse.Namespace) -> int:
    if args.max_n < 1:
        print("error: --max-n must be >= 1", file=sys.stderr)
        return EXIT_MALFORMED
    results = []
    exit_code = EXIT_OK
    for criterion in verify.CRITERIA:
        name = criterion.check
        start = time.perf_counter()
        try:
            failure = criterion.run(args.max_n)
        except Exception as exc:  # a crash is a failure, not an abort
            failure = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        ok = failure is None
        if not ok:
            name = f"{name} ({failure})"
        results.append({"check": name, "ok": ok, "seconds": round(elapsed, 3)})
        if args.report == "text":
            print(f"{'PASS' if ok else 'FAIL'} {name} ({elapsed:.2f}s)")
        if not ok and exit_code == EXIT_OK:
            exit_code = (EXIT_COVER if criterion.kind == "cover"
                         else EXIT_IDENTITY)
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
