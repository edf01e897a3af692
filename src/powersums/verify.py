"""The ten acceptance criteria, stated once.

Each criterion is a function of a bound ``max_n``.  ``None`` runs the
acceptance ranges; an int cuts every range of n at ``max_n`` (criterion 03
at ``10 * max_n``), never beyond the acceptance range or a construction's
cap.  Criteria 01, 02, 07, 08 and 10 and the arithmetic form of 09 have no
range of n to cut, but every criterion refuses a bound that is not None or
an int >= 1 (``Criterion.run``).  A criterion returns ``None`` when it
holds, else one line naming the first failing case.

``powersums verify-all`` runs ``CRITERIA`` in order, and the acceptance
tests run each entry at ``max_n=None`` within its time budget.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Optional

from .dissect import (
    CONSTRUCTIONS,
    StageCheckError,
    check_certificate,
    full_theorem_report,
)
from .dissect.generators import certificate_builders
from .dissect.geometry import LabelledLattice, lattice_area as _area
from .dissect.mutants import mutate_piece
from .exact import QuadExt, rat_to_text, strip_root
from .figurate import (
    REGISTRY,
    _naturals,
    bernoulli_table,
    evaluate_identity,
    faulhaber,
    lemma_rows,
    sum_powers_bruteforce,
)
from .pyramid import build_pyramid, main_sections, secondary_sections
from .render import FigureSpec, emit_figure

#: B_0..B_15 under the B_1 = +1/2 convention
BERNOULLI = ("1", "1/2", "1/6", "0", "-1/30", "0", "1/42", "0",
             "-1/30", "0", "5/66", "0", "-691/2730", "0", "7/6", "0")

#: Jakob Bernoulli's boast: (p, n, S_p(n)) for the tenth powers of 1..1000
BOAST = (10, 1000, 91409924241424243424241924242500)


#: construction -> (the area its theorem fixes, that area at n)
AREAS: dict[str, tuple[str, Callable[[int], int]]] = {
    "GAUSS_RECT": ("target_area", lambda n: n * (n + 1)),
    "THREE_PYR_2D": ("source_area",
                     lambda n: 3 * sum_powers_bruteforce(2, n)),
    "NICOMACHUS_4D_2D": ("source_area", lambda n: n * n * (n + 1) ** 2),
    "FIVE_PYR_LAYERS": ("source_area",
                        lambda n: 5 * sum_powers_bruteforce(4, n)),
}

#: (figure, n, format) -> sha256 of its bytes, for each file in tests/golden
GOLDEN_FIGURES = {
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


def _upto(bound: int, max_n: Optional[int]) -> range:
    """1..bound, cut at ``max_n``: None, or an int >= 1 (``Criterion.run``
    refuses any other bound)."""
    return range(1, (bound if max_n is None else min(bound, max_n)) + 1)


def _certificates(name: str, n: int) -> Iterator[tuple[str, LabelledLattice]]:
    """Each of ``name``'s certificates at ``n`` as its builder's kernel data,
    built one at a time, under a label naming it; the first is the one
    ``powersums certificate`` writes by default."""
    for variant, build in certificate_builders(name).items():
        yield f"{name} n={n}" + (f" {variant}" if variant else ""), build.core(n)


def mutants() -> Iterator[tuple[LabelledLattice, str]]:
    """Criterion 07's mutants with their descriptions: 100 per construction,
    at n = 2, in table order, from one seeded generator, each the default
    certificate's lattice data with one piece moved by ``mutate_piece``."""
    rng = random.Random(21)
    for name in CONSTRUCTIONS:
        data = next(_certificates(name, 2))[1]
        for _ in range(100):
            mutant, description = mutate_piece(data, rng)
            yield mutant, f"{name} n=2 {description}"


# -- the criteria -------------------------------------------------------------


def _bernoulli_table(max_n: Optional[int]) -> Optional[str]:
    got = tuple(rat_to_text(b) for b in bernoulli_table(15))
    return None if got == BERNOULLI else f"B_0..B_15 = {' '.join(got)}"


def _boast(max_n: Optional[int]) -> Optional[str]:
    p, n, want = BOAST
    got = faulhaber(p, n)
    return None if got == want else f"faulhaber({p}, {n}) = {rat_to_text(got)}"


def _faulhaber_oracle(max_n: Optional[int]) -> Optional[str]:
    top = 10 * _upto(20, max_n)[-1]  # 200, cut at 10 * max_n
    for p in range(9):
        running = 0  # S_p(n), summed term by term
        for n in range(top + 1):
            got = faulhaber(p, n)
            if got != running:
                return f"faulhaber({p}, {n}) = {rat_to_text(got)}, not {running}"
            running += (n + 1) ** p
    return None


def _registry(max_n: Optional[int]) -> Optional[str]:
    for name, (params, _fn) in REGISTRY.items():
        for n in _upto(100, max_n):
            for m in range(1, n + 1) if "m" in params else (None,):
                for p in range(5) if "p" in params else (None,):
                    report = evaluate_identity(name, {"n": n, "m": m, "p": p})
                    if not report.holds:
                        return str(report)
    return None


def _section_failure(d: int, n: int) -> Optional[str]:
    """Main and secondary sections of P_d(n) each partition it, with the
    sizes k**(d-1) and sum_{k=m..n} k**(d-2)."""
    pyramid = build_pyramid(d, n)
    cells = pyramid.cells
    mains = main_sections(pyramid)
    if ([len(s) for s in mains] != [k ** (d - 1) for k in range(1, n + 1)]
            or {(k, *c) for k, s in enumerate(mains, 1) for c in s.cells} != cells):
        return f"P_{d}({n}): main sections"
    rows = lemma_rows(d - 2, 1, n)
    for axis in range(2, d + 1):
        secs, i = secondary_sections(pyramid, axis), axis - 1
        if ([len(s) for s in secs] != rows
                or {c[:i] + (m - 1,) + c[i:] for m, s in enumerate(secs, 1)
                    for c in s.cells} != cells):
            return f"P_{d}({n}): secondary sections along axis {axis}"
    return None


def _sections(max_n: Optional[int]) -> Optional[str]:
    for d in (3, 4, 5):
        for n in _upto(12, max_n):
            failure = _section_failure(d, n)
            if failure is not None:
                return failure
    return None


def _certificate_suite(max_n: Optional[int]) -> Optional[str]:
    for name, cap in CONSTRUCTIONS.items():
        for n in _upto(cap, max_n):
            for where, data in _certificates(name, n):
                report = check_certificate(data.cert)
                if not report.ok:
                    return f"{where}: {report}"
                if name in AREAS:
                    side, area = AREAS[name]
                    got = _area(data.cert, side)
                    if got != area(n):
                        return f"{where}: {side} {got}, not {area(n)}"
    return None


def _mutations(max_n: Optional[int]) -> Optional[str]:
    for mutant, description in mutants():
        if check_certificate(mutant.cert).ok:
            return f"mutant {description} passes"
    return None


def _field_facts(max_n: Optional[int]) -> Optional[str]:
    x, third = strip_root(), QuadExt(Fraction(1, 3))
    # x^2 + x is also the leftover: C (x by x) plus B (1 by x)
    if x * x + x != third or x.sign() != 1:
        return f"strip root {x} is not the positive root of x^2 + x = 1/3"
    for n in range(1, 101):  # (n - x)(n + 1 + x) = (3n^2 + 3n - 1)/3
        report = evaluate_identity("SCISSOR_FACTOR", {"n": n})
        if not report.holds:
            return str(report)
    return None


def _final_assembly(max_n: Optional[int]) -> Optional[str]:
    for n in _upto(CONSTRUCTIONS["FIVE_PYR_LAYERS"], max_n):
        try:
            report = full_theorem_report(n)
        except StageCheckError as exc:
            return f"pipeline n={n}: {exc}"
        if not report.holds or report.lhs != 5 * sum_powers_bruteforce(4, n):
            return f"pipeline n={n}: {report}"
    # the arithmetic form: a running sum against the factored product, and
    # the QuadExt route sampled on top of it
    running = 0
    for n in range(1, 10001):
        running += n**4
        factored = (Fraction(n * (n + 1)) * Fraction(2 * n + 1, 2)
                    * (Fraction(n * n + n) - Fraction(1, 3)))
        if (5 * running != factored or 30 * running
                != n * (n + 1) * (2 * n + 1) * (3 * n * n + 3 * n - 1)):
            return f"factored form at n={n}"
        if n % 500 == 0 or n <= 20:
            report = evaluate_identity("FINAL_ASSEMBLY", {"n": n})
            if not report.holds:
                return str(report)
    return None


def _golden(max_n: Optional[int]) -> Optional[str]:
    # imported here: hashlib maps OpenSSL, about 3 MiB of resident memory
    # that no other command needs
    import hashlib

    for (name, n, fmt), digest in GOLDEN_FIGURES.items():
        spec = FigureSpec(name, n, format=fmt)
        for which in ("first", "second"):
            document = emit_figure(spec).encode("utf-8")
            if hashlib.sha256(document).hexdigest() != digest:
                return f"{name} n={n} {fmt}: {which} render is not golden"
    return None


class Criterion(NamedTuple):
    number: int
    check: str  # its name in ``verify-all``
    label: str  # what its ACCEPT line says
    kind: str  # "cover" (exit code 2) or "identity" (exit code 1)
    sweep: Callable[[Optional[int]], Optional[str]]  # called by ``run``

    def run(self, max_n: Optional[int]) -> Optional[str]:
        """The criterion's verdict up to ``max_n``: a bound that is not None
        or an int >= 1 is refused before anything is checked, so no
        criterion passes having checked less than n = 1."""
        if max_n is not None:
            _naturals("", 1, max_n=max_n)
        return self.sweep(max_n)


CRITERIA = (
    Criterion(1, "bernoulli/table", "Bernoulli table B_0..B_15", "identity",
              _bernoulli_table),
    Criterion(2, "faulhaber/boast", "faulhaber(10, 1000) quoted sum", "identity",
              _boast),
    Criterion(3, "faulhaber/oracle", "faulhaber == running sum, p <= 8, n <= 200",
              "identity", _faulhaber_oracle),
    Criterion(4, "identity/registry", "registry sweep, n <= 100 (all m, p <= 4)",
              "identity", _registry),
    Criterion(5, "pyramid/sections", "section partitions, d = 3..5, n <= 12",
              "identity", _sections),
    Criterion(6, "certificate/suite", "certificate suite at full supported ranges",
              "cover", _certificate_suite),
    Criterion(7, "certificate/mutations", "100 mutations per construction all fail",
              "cover", _mutations),
    Criterion(8, "field/strip-root", "strip root, scissor factor, leftover = 1/3",
              "identity", _field_facts),
    Criterion(9, "theorem/final-assembly",
              f"pipeline n <= {CONSTRUCTIONS['FIVE_PYR_LAYERS']} and factored "
              "form n <= 10000", "cover", _final_assembly),
    Criterion(10, "render/golden", "figure emission deterministic and golden",
              "identity", _golden),
)
