"""The four seeded workloads and the known answer of every op.

A workload is built once per seed into a *block*: a fixed list of ops, each
with the input the program sees and the answer it must give.  A run repeats
the block, reshuffled each time, until its time is up, and always ends on a
block boundary, so every run executes whole copies of one multiset of ops.
That keeps the medians and the ladder percentile independent of how many
blocks fit, and makes per-op work counts repeat exactly for a seed.

Expensive size parameters are fixed or enumerated rather than drawn, so
that the cost of one block varies little from seed to seed; the seed picks
the mutants, the hostile documents' bases, the figure formats and sections,
the identity parameters and the op order.

Known answers never come from the program under test: verdicts follow from
how an input was made (valid, mutated, hostile), sums are recomputed here
with integers, and emitted bytes are compared with ``tests/golden`` or with
the digest table in ``digests.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

# (kind, argv tail, sizes) of every certificate the check and emit
# workloads write.  The sizes stay within each generator's cap, up to where
# one ``powersums check`` costs about a third of a second on a 2-core x86
# box, so that a run holds several whole blocks; the theorem workload
# covers the five-pyramid stages up to their cap.  They are fixed, not
# drawn: drawing the GAUSS_RECT and THREE_PYR_2D sizes from the seed moved
# the median of the check block's work by 18% from seed to seed.
CERTIFICATE_KINDS: tuple[tuple[str, tuple[str, ...], tuple[int, ...]], ...] = (
    ("GAUSS_RECT", ("GAUSS_RECT",), (10, 30, 50, 70, 90)),
    ("THREE_PYR_2D", ("THREE_PYR_2D",), (2, 6, 10, 14, 18)),
    ("NICOMACHUS_4D_2D", ("NICOMACHUS_4D_2D",), tuple(range(1, 7))),
    ("FIVE_PYR_LAYERS", ("FIVE_PYR_LAYERS",), tuple(range(1, 5))),
    ("STEP2_RESHAPE", ("STEP2_RESHAPE",), tuple(range(1, 6))),
    ("STEP3_SCISSOR", ("STEP3_SCISSOR",), tuple(range(1, 5))),
    ("STEP4_TOP/overlap", ("STEP4_TOP", "--variant", "overlap"),
     tuple(range(1, 9))),
    ("STEP4_TOP/bijection", ("STEP4_TOP", "--variant", "bijection"),
     tuple(range(1, 6))),
    ("STEP4_TOP/bijection-full", ("STEP4_TOP", "--variant", "bijection-full"),
     tuple(range(1, 7))),
)

# Largest n of each figure, every n up to it drawn once: 10 (the figure cap
# of this benchmark) where one figure renders in well under half a second,
# lower for the figures that redraw a whole five-pyramid or Nicomachus
# certificate.
FIGURE_MAX_N: dict[str, int] = {
    "ODD_NUMBERS": 10,
    "GAUSS": 10,
    "MAIN_SECTIONS": 10,
    "SECONDARY_SECTIONS": 10,
    "PUZZLE_3D": 10,
    "PUZZLE_3D_DIY": 10,
    "NICOMACHUS_GRID": 5,
    "NICOMACHUS_GRID_DIY": 5,
    "FIVE_PYR_SECTION": 4,
    "CONVOLUTION_EXCESS": 5,
    "STEP2": 4,
    "STEP3_SCISSOR": 5,
    "TOP_DUAL": 8,
    "TWO_COPIES": 5,
}

FIGURE_FORMATS = (("svg", "svg"), ("tikz", "tex"))

# (figure, n, format) of each file in tests/golden; part of every emit block.
GOLDEN_FIGURES = (
    ("GAUSS", 4, "svg"),
    ("GAUSS", 4, "tikz"),
    ("MAIN_SECTIONS", 4, "svg"),
    ("NICOMACHUS_GRID_DIY", 3, "svg"),
    ("STEP3_SCISSOR", 2, "svg"),
    ("STEP3_SCISSOR", 2, "tikz"),
    ("TWO_COPIES", 3, "svg"),
)

HOSTILE_KINDS = (
    "zero-denominator",   # "dx": "1/0"
    "reflect-string",     # "reflect": "false"
    "fractional-n",       # "n": 2.9
    "quarter-turns-string",  # "quarter_turns": "0"
    "non-canonical",      # "1/2" written as "2/4"
    "truncated",          # the first half of the document
)

EXIT_OK, EXIT_COVER, EXIT_MALFORMED = 0, 2, 3

DIGESTS_PATH = Path(__file__).with_name("digests.json")


@dataclass
class Op:
    """One closed-loop request: ``run`` is timed, ``verify`` is not."""

    key: str  # equal keys mean identical inputs, hence identical work
    run: Callable[[], Any]
    verify: Callable[[Any], bool]
    hostile: bool = False
    parent: Optional[str] = None  # for a mutant: the key of its valid parent


@dataclass
class Mods:
    """The package modules a workload calls, looked up at call time so
    that the traced run's rebinding is seen."""

    cli: Any
    dissect: Any
    exact: Any
    figurate: Any
    pyramid: Any
    render: Any


def _stratified(rng: random.Random, hi: int, strata: int) -> list[int]:
    """One uniform draw from each of ``strata`` near-equal slices of 1..hi."""
    cuts = [1 + hi * s // strata for s in range(strata + 1)]
    return [rng.randrange(cuts[s], cuts[s + 1]) for s in range(strata)]


def run_cli(mods: Mods, argv: list[str]) -> int:
    """``powersums ARGV`` in-process; returns the exit code."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return mods.cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else EXIT_MALFORMED


def power_sum(p: int, n: int) -> int:
    return sum(k ** p for k in range(1, n + 1))


# -- theorem ---------------------------------------------------------------


def theorem_block(mods: Mods, seed: int, workdir: Path) -> list[Op]:
    """Every n in 1..10 once: n is uniform over the range that
    ``verify-all --max-n 10`` sweeps, and each block costs the same."""
    ops = []
    for n in range(1, 11):
        expected = 5 * power_sum(4, n)

        def verify(report: Any, n: int = n, expected: int = expected) -> bool:
            return (report.holds and report.identity_name == "FINAL_ASSEMBLY"
                    and report.parameters == {"n": n}
                    and (report.lhs.a, report.lhs.b) == (expected, 0)
                    and (report.rhs.a, report.rhs.b) == (expected, 0))

        ops.append(Op(f"theorem n={n}",
                      lambda n=n: mods.dissect.full_theorem_report(n), verify))
    return ops


# -- check -----------------------------------------------------------------


def _generate(mods: Mods, kind: str, n: int) -> Any:
    d = mods.dissect
    if kind.startswith("STEP4_TOP/"):
        top = d.step4_top_layer(n)
        return {"overlap": top.overlap, "bijection": top.bijection,
                "bijection-full": top.bijection_full_scale}[kind.split("/")[1]]
    return {"GAUSS_RECT": d.gauss_rectangle, "THREE_PYR_2D": d.three_pyramids_2d,
            "NICOMACHUS_4D_2D": d.nicomachus_4d_2d,
            "FIVE_PYR_LAYERS": d.five_pyramids_layers,
            "STEP2_RESHAPE": d.step2_reshape,
            "STEP3_SCISSOR": d.step3_scissor}[kind](n)


def _non_canonical(text: str) -> str:
    """The same value with numerator and denominator of the rational part
    doubled: "1/2" -> "2/4", "3" -> "6/2"."""
    head, sep, tail = text.partition("+")
    num, _, den = head.partition("/")
    return f"{2 * int(num)}/{2 * int(den or 1)}{sep}{tail}"


def hostile_document(valid_text: str, kind: str) -> str:
    """A copy of a valid certificate with one defect; the answer is exit 3."""
    if kind == "truncated":
        return valid_text[: len(valid_text) // 2]
    data = json.loads(valid_text)
    placement = next(p for p in data["placements"]
                     if p["transform"]["reflect"] is False)
    transform = placement["transform"]
    if kind == "zero-denominator":
        transform["dx"] = "1/0"
    elif kind == "reflect-string":
        transform["reflect"] = "false"
    elif kind == "fractional-n":
        data["n"] = data["n"] + 0.9
    elif kind == "quarter-turns-string":
        transform["quarter_turns"] = str(transform["quarter_turns"])
    elif kind == "non-canonical":
        transform["dx"] = _non_canonical(transform["dx"])
    else:
        raise ValueError(f"unknown hostile kind {kind!r}")
    return json.dumps(data, indent=1)


def check_block(mods: Mods, seed: int, workdir: Path) -> list[Op]:
    """A valid certificate of every kind at each of its sizes, one mutant
    of each (``mutate_placement`` with the seeded rng), and one hostile
    document of each kind built on a small seeded certificate."""
    rng = random.Random(f"check:{seed}")
    ops: list[Op] = []

    def add_file(key: str, text: str, expected: int, **kw: Any) -> None:
        path = workdir / f"check-{len(ops)}.json"
        path.write_text(text, encoding="utf-8")
        ops.append(Op(key, lambda argv=["check", str(path)]: run_cli(mods, argv),
                      lambda code, e=expected: code == e, **kw))

    for kind, _argv, ns in CERTIFICATE_KINDS:
        for n in ns:
            cert = _generate(mods, kind, n)
            key = f"check {kind} n={n}"
            add_file(key, mods.dissect.dumps_certificate(cert), EXIT_OK)
            mutant, label = mods.dissect.mutate_placement(cert, rng)
            add_file(f"{key} mutant {label}",
                     mods.dissect.dumps_certificate(mutant), EXIT_COVER,
                     parent=key)
    for hostile in HOSTILE_KINDS:
        kind = rng.choice(CERTIFICATE_KINDS)[0]
        n = rng.randint(1, 3)
        text = hostile_document(
            mods.dissect.dumps_certificate(_generate(mods, kind, n)), hostile)
        add_file(f"check {kind} n={n} hostile {hostile}", text,
                 EXIT_MALFORMED, hostile=True)
    return ops


# -- emit ------------------------------------------------------------------


def certificate_argv(kind: str, n: int) -> list[str]:
    argv_tail = {k: a for k, a, _ns in CERTIFICATE_KINDS}[kind]
    return ["certificate", argv_tail[0], "--n", str(n), *argv_tail[1:]]


def figure_argv(name: str, n: int, fmt: str, section: int = 1) -> list[str]:
    argv = ["figure", name, "--n", str(n), "--format", fmt]
    if name == "FIVE_PYR_SECTION":
        argv += ["--section", str(section)]
    return argv


def all_emit_argvs() -> list[list[str]]:
    """Every output the emit workload can ask for, for the digest table."""
    argvs = [certificate_argv(kind, n) for kind, _a, ns in CERTIFICATE_KINDS
             for n in ns]
    for name, hi in FIGURE_MAX_N.items():
        for n in range(1, hi + 1):
            sections = range(1, n + 1) if name == "FIVE_PYR_SECTION" else (1,)
            argvs += [figure_argv(name, n, fmt, s)
                      for fmt, _ext in FIGURE_FORMATS for s in sections]
    return argvs


def emit_key(argv: list[str]) -> str:
    return " ".join(argv)


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def emit_block(mods: Mods, seed: int, workdir: Path,
               golden_dir: Path) -> list[Op]:
    """Every certificate kind at each of its sizes, every figure at each n
    in a seeded format, and the figures with golden files."""
    rng = random.Random(f"emit:{seed}")
    digests = load_digests()
    plans: list[tuple[list[str], Optional[bytes]]] = []
    plans += [(certificate_argv(kind, n), None)
              for kind, _argv, ns in CERTIFICATE_KINDS for n in ns]
    for name, hi in FIGURE_MAX_N.items():
        for n in range(1, hi + 1):
            fmt = rng.choice(FIGURE_FORMATS)[0]
            plans.append((figure_argv(name, n, fmt, rng.randint(1, n)), None))
    for name, n, fmt in GOLDEN_FIGURES:
        ext = dict(FIGURE_FORMATS)[fmt]
        golden = (golden_dir / f"{name}_n{n}.{ext}").read_bytes()
        plans.append((figure_argv(name, n, fmt), golden))

    ops = []
    for index, (argv, golden) in enumerate(plans):
        out = workdir / f"emit-{index}.out"
        key = emit_key(argv)
        if golden is not None:
            def verify(code: int, out: Path = out, golden: bytes = golden) -> bool:
                return code == EXIT_OK and out.read_bytes() == golden
            key += " golden"
        else:
            def verify(code: int, out: Path = out,
                       digest: Optional[str] = digests.get(key)) -> bool:
                return (code == EXIT_OK and digest is not None
                        and hashlib.sha256(out.read_bytes()).hexdigest() == digest)
        full_argv = argv + ["--out", str(out)]
        ops.append(Op(key, lambda a=full_argv: run_cli(mods, a), verify))
    return ops


# -- identities --------------------------------------------------------------


def identities_block(mods: Mods, seed: int, workdir: Path) -> list[Op]:
    """Each registry row at three seeded parameter sets (n <= 100), Faulhaber
    for every p <= 10 at a seeded n, and ``sections_agree`` for every
    d = 3..5, n <= 12."""
    rng = random.Random(f"identities:{seed}")
    ops: list[Op] = []
    for name, (wanted, _fn) in mods.figurate.REGISTRY.items():
        for n in _stratified(rng, 100, 3):
            params = {"n": n}
            if "m" in wanted:
                params["m"] = rng.randint(1, n)
            if "p" in wanted:
                params["p"] = rng.randint(0, 10)

            def verify(report: Any, name: str = name,
                       params: dict = params) -> bool:
                return (report.holds and report.identity_name == name
                        and report.parameters == params
                        and (report.lhs.a, report.lhs.b)
                        == (report.rhs.a, report.rhs.b))

            ops.append(Op(f"identity {name} {params}",
                          lambda name=name, params=params:
                          mods.figurate.evaluate_identity(name, params),
                          verify))
    for p in range(0, 11):
        n = rng.randint(1, 1000)
        expected = power_sum(p, n)
        ops.append(Op(f"faulhaber p={p} n={n}",
                      lambda p=p, n=n: mods.figurate.faulhaber(p, n),
                      lambda value, e=expected: value == e))
    for d in (3, 4, 5):
        for n in range(1, 13):
            cells = power_sum(d - 1, n)  # |P_d(n)| = S_(d-1)(n)

            def verify(report: Any, cells: int = cells) -> bool:
                return (report.holds and report.lhs.a == cells
                        and report.rhs.a == cells)

            ops.append(Op(f"sections d={d} n={n}",
                          lambda d=d, n=n: mods.pyramid.sections_agree(d, n),
                          verify))
    return ops


WORKLOADS = ("theorem", "check", "emit", "identities")


def build_block(name: str, mods: Mods, seed: int, workdir: Path,
                repo: Path) -> list[Op]:
    if name == "theorem":
        return theorem_block(mods, seed, workdir)
    if name == "check":
        return check_block(mods, seed, workdir)
    if name == "emit":
        return emit_block(mods, seed, workdir, repo / "tests" / "golden")
    if name == "identities":
        return identities_block(mods, seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
