"""Command-line entry point.

Exit codes: 0 all checks pass, 1 identity mismatch, 2 certificate cover
failure, 3 malformed input or flags.  Numeric output uses the exact text
serialisation; floats never leave the figure files.

Each subcommand is stated once, in ``_build_parser``, which binds it to its
handler.  A handler refuses its input by raising one of ``_REFUSALS``, and
``main`` turns that into one ``error:`` line and exit code 3.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path
from typing import Callable, Sequence

from . import dissect, figurate, pyramid, render, verify
from ._nogc import nogc
# _GENERATORS is bound here too, as the same dict: perfbench reads it from cli
from .dissect.generators import _GENERATORS, certificate_builders  # noqa: F401
from .dissect.geometry import dumps_lattice, lattice_area
from .dissect.kernel import bounded
from .exact import quad_to_text, rat_to_text

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_COVER = 2
EXIT_MALFORMED = 3

#: What a handler raises to refuse its input.  Every domain refusal is a
#: ValueError; a file that cannot be read or written is an OSError.
_REFUSALS = (ValueError, OSError, figurate.IdentityError)


class _Parser(argparse.ArgumentParser):
    """argparse that reports flag errors with exit code 3."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_MALFORMED)


def _cmd_identity(args: argparse.Namespace) -> int:
    report = figurate.evaluate_identity(
        args.name, {"n": args.n, "m": args.m, "p": args.p})
    print(report)
    return EXIT_OK if report.holds else EXIT_IDENTITY


def _cmd_bernoulli(args: argparse.Namespace) -> int:
    for m, value in enumerate(figurate.bernoulli_table(args.upto)):
        print(f"B_{m} = {rat_to_text(value)}")
    return EXIT_OK


def _cmd_faulhaber(args: argparse.Namespace) -> int:
    print(rat_to_text(figurate.faulhaber(args.p, args.n)))
    return EXIT_OK


def _cmd_sections(args: argparse.Namespace) -> int:
    if args.emit == "sizes":
        families = pyramid.section_counts(args.dim, args.n)
        family = (0 if args.secondary is None
                  else pyramid._axis_index(args.dim, args.secondary))
        print("sizes: " + " ".join(map(str, families[family])))
        return EXIT_OK
    p = pyramid.build_pyramid(args.dim, args.n)
    sections = (pyramid.main_sections(p) if args.secondary is None
                else pyramid.secondary_sections(p, args.secondary))
    for index, section in enumerate(sections, start=1):
        for cell in section.sorted_cells():
            print(f"{index} " + ",".join(str(c) for c in cell))
    return EXIT_OK


def _cmd_certificate(args: argparse.Namespace) -> int:
    builders = certificate_builders(args.construction)
    variant = next(iter(builders)) if args.variant is None else args.variant
    if variant not in builders:
        raise ValueError(f"{args.construction} takes no variant")
    data = builders[variant].core(args.n)
    args.out.write_text(dumps_lattice(data), encoding="utf-8")
    cert = data.cert
    print(f"{cert.construction} n={cert.n}: {len(cert.pieces)} placements, "
          f"area {quad_to_text(lattice_area(cert, 'source_area'))} -> {args.out}")
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    cert = dissect.read_certificate(args.path.read_text(encoding="utf-8"))
    report = dissect.check_certificate(cert)
    name = cert.construction  # quoted unless known: it cannot pose as a verdict
    name = name if name in dissect.CONSTRUCTIONS else repr(name)
    print(f"{bounded(name)} n={bounded(str(cert.n))}: {report}")
    if report.ok:
        return EXIT_OK
    if report.failure is not None and report.failure.kind == "malformed":
        return EXIT_MALFORMED
    return EXIT_COVER


def _cmd_figure(args: argparse.Namespace) -> int:
    spec = render.FigureSpec(figure_name=args.name, n=args.n,
                             format=args.format, unit_px=args.unit_px,
                             section=args.section)
    args.out.write_text(render.emit_figure(spec), encoding="utf-8")
    print(f"{args.name} n={args.n} -> {args.out}")
    return EXIT_OK


def _cmd_verify_all(args: argparse.Namespace) -> int:
    if args.max_n < 1:
        raise ValueError("--max-n must be >= 1")
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


@functools.cache  # built on the first call, then parses every argv
def _build_parser() -> _Parser:
    parser = _Parser(prog="powersums",
                     description="Exact dissection proofs of the power-sum "
                                 "formulas S_p(n), p = 1..4.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run: Callable[[argparse.Namespace], int],
                help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        return p

    p = command("identity", _cmd_identity, "evaluate one registry identity")
    p.add_argument("name", choices=sorted(figurate.IDENTITY_NAMES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--p", type=int)

    p = command("bernoulli", _cmd_bernoulli, "print B_0..B_m")
    p.add_argument("--upto", type=int, required=True)

    p = command("faulhaber", _cmd_faulhaber,
                "evaluate S_p(n) via the closed formula")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = command("sections", _cmd_sections, "pyramid section sizes (and cells)")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--secondary", type=int, metavar="AXIS")
    p.add_argument("--emit", choices=("sizes", "cells"), default="sizes")

    p = command("certificate", _cmd_certificate,
                "generate a dissection certificate")
    p.add_argument("construction", choices=tuple(dissect.CONSTRUCTIONS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    variants = tuple(certificate_builders("STEP4_TOP"))
    p.add_argument("--variant", choices=variants,
                   help="which STEP4_TOP certificate to write "
                        f"(default {variants[0]})")

    p = command("check", _cmd_check, "verify a certificate file")
    p.add_argument("path", type=Path)

    p = command("figure", _cmd_figure, "render a figure to SVG or TikZ")
    p.add_argument("name", choices=sorted(render.FIGURE_NAMES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("svg", "tikz"), default="svg")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--unit-px", type=int,
                   help="pixels per unit, svg only (default 24)")
    p.add_argument("--section", type=int,
                   help="layer index for FIVE_PYR_SECTION (default 1)")

    p = command("verify-all", _cmd_verify_all, "run the verification sweep")
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--report", choices=("text", "json"), default="text")
    return parser


@nogc
def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except _REFUSALS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    raise SystemExit(main())
