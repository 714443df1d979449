"""Refinement studies: eigenvalue error versus degrees of freedom.

A study fixes a domain, boundary condition, and target eigenvalue, then
sweeps either the polynomial order (p = 1..6 at fixed mesh) or the mesh
resolution (N = 1..5 at fixed order) for one or both element families and
reports the absolute eigenvalue error against the number of free DOFs.
Degenerate Dirichlet cases where elimination empties the system are skipped
with a logged notice rather than failing the sweep.

`run_study` returns the rows and writes nothing; `write_csv` and
`plot_convergence` turn rows into a CSV file and an SVG chart, and
`srdp-eig study` calls them after the study has run, so a study that raises
leaves no file behind.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .assembly import (
    BOUNDARY_CONDITIONS,
    EmptySystem,
    assemble,
    reference_matrices,
)
from .basis2d import FAMILIES
from .eigensolve import (
    EigenResult,
    InsufficientSpectrum,
    MassNotPD,
    SingularShift,
    SolveNotConverged,
    check_backward_error,
    select_near,
    solve_generalized,
)
from .mesh import DOMAINS, SQUARE, Mesh, build_dof_map, build_mesh
from .svgplot import line_chart

logger = logging.getLogger(__name__)

P_RANGE = (1, 2, 3, 4, 5, 6)
N_RANGE = (1, 2, 3, 4, 5)

#: Named eigenvalue targets.  On the unit square 2 pi^2 is simple and 5 pi^2
#: double.  The L-shape entries are nonzero Neumann eigenvalues counted with
#: multiplicity: the first, the second, pi^2 (exact; double, with
#: eigenfunctions cos(pi x) and cos(pi y)) in third and fourth place, and the
#: fifth.  The first, second and fifth are Richardson extrapolations of this
#: package's own solves on uniform meshes, fitted with the error exponents
#: of the re-entrant corner (4/3 and 8/3 for the first, 8/3 and 16/3 for the
#: others); `tests/test_studies.py` re-derives them.  Tensor p = 8 at
#: N = 4, 8, 16 and serendipity p = 8 at N = 8, 16, 32 agree within 8e-11,
#: 2e-12 and 2e-11 on the three, which are given to 1e-10, 1e-11 and 1e-9.
TARGET_PRESETS: dict[str, float] = {
    "two_pi_sq": 2 * math.pi**2,
    "five_pi_sq": 5 * math.pi**2,
    "lshape_neumann_1": 1.4756218239,
    "lshape_neumann_2": 3.53403136679,
    "lshape_neumann_3": math.pi**2,
    "lshape_neumann_4": 11.389479398,
}


def resolve_target(target: str | float) -> float:
    """Interpret a target as a preset name or a float literal."""
    if target in TARGET_PRESETS:
        return TARGET_PRESETS[target]
    try:
        return float(target)
    except ValueError:
        raise ValueError(
            f"unknown target {target!r}; presets: {', '.join(sorted(TARGET_PRESETS))}"
        ) from None


@dataclass(frozen=True)
class StudySpec:
    """One experiment: domain, BC, families, target, and sweep description."""

    domain: str
    bc: str
    families: tuple[str, ...]
    target: float
    sweep: str  # 'p' (orders 1..6 at fixed N) or 'h' (N 1..5 at fixed p)
    fixed: int

    def __post_init__(self):
        if not math.isfinite(self.target):
            raise ValueError(f"target must be finite, got {self.target}")
        if self.domain not in DOMAINS:
            raise ValueError(f"unknown domain {self.domain!r}")
        if self.bc not in BOUNDARY_CONDITIONS:
            raise ValueError(f"unknown boundary condition {self.bc!r}")
        if self.sweep not in ("p", "h"):
            raise ValueError("sweep must be 'p' or 'h'")
        if not self.families:
            raise ValueError("families must name at least one family")
        if len(set(self.families)) != len(self.families):
            raise ValueError(f"families repeat a family: {self.families}")
        for family in self.families:
            if family not in FAMILIES:
                raise ValueError(f"unknown family {family!r}")
        if self.sweep == "p" and self.fixed not in N_RANGE:
            raise ValueError(f"fixed N must be in {N_RANGE}")
        if self.sweep == "h" and self.fixed not in P_RANGE:
            raise ValueError(f"fixed p must be in {P_RANGE}")

    def points(self) -> list[tuple[int, int]]:
        """Sweep points as (p, N) pairs."""
        if self.sweep == "p":
            return [(p, self.fixed) for p in P_RANGE]
        return [(self.fixed, N) for N in N_RANGE]


@dataclass(frozen=True)
class StudyRow:
    family: str
    p: int
    N: int
    ndofs: int
    lambda_h: float
    error: float


def solve_configuration(
    domain: str,
    bc: str,
    family: str,
    p: int,
    N: int,
    target: float | None = None,
) -> EigenResult:
    """Mesh, assemble, and solve one configuration end to end by
    `solve_generalized`."""
    return _solve_on_mesh(build_mesh(domain, N), bc, family, p, target)


def _solve_on_mesh(
    mesh: Mesh, bc: str, family: str, p: int, target: float | None
) -> EigenResult:
    dofmap = build_dof_map(mesh, family, p)
    system = assemble(mesh, dofmap, reference_matrices(family, p), bc)
    return solve_generalized(system, target=target)


def run_study(spec: StudySpec) -> list[StudyRow]:
    """Rows of every sweep point for every family, in sweep order; no file
    is written.

    Points whose Dirichlet system is empty are skipped and logged.  A solve
    or a selected pair that fails its checks (SolveNotConverged, MassNotPD,
    SingularShift) raises the same exception type, naming the point.
    Each distinct mesh is built once and shared by every family and order.
    """
    points = spec.points()
    meshes = {N: build_mesh(spec.domain, N) for N in sorted({N for _, N in points})}
    rows: list[StudyRow] = []
    for family in spec.families:
        for p, N in points:
            try:
                result = _solve_on_mesh(meshes[N], spec.bc, family, p, spec.target)
                lam = select_near(result, spec.target)[0]
            except EmptySystem as exc:
                logger.warning(
                    "skipping degenerate case %s p=%d N=%d (%s, %s): %s",
                    family,
                    p,
                    N,
                    spec.domain,
                    spec.bc,
                    exc,
                )
                continue
            except (SolveNotConverged, MassNotPD, SingularShift) as exc:
                raise type(exc)(f"{family} p={p} N={N} ({spec.domain}, {spec.bc}): {exc}") from exc
            rows.append(
                StudyRow(family, p, N, result.ndofs, lam, abs(lam - spec.target))
            )
    return rows


CSV_HEADER = "family,p,N,ndofs,lambda_h,error"


def write_csv(rows: list[StudyRow], path: str | Path) -> None:
    """Deterministic CSV: header plus one row per sweep point, 17 significant
    digits for floats."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(CSV_HEADER + "\n")
            for r in rows:
                fh.write(
                    f"{r.family},{r.p},{r.N},{r.ndofs},{r.lambda_h:.17g},{r.error:.17g}\n"
                )
    except OSError as exc:
        raise OSError(f"cannot write study CSV to {path}: {exc}") from exc


def read_csv(path: str | Path) -> list[StudyRow]:
    """Parse a file produced by write_csv."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected study CSV header: {header!r}")
        for line in fh:
            family, p, N, ndofs, lam, err = line.strip().split(",")
            rows.append(StudyRow(family, int(p), int(N), int(ndofs), float(lam), float(err)))
    return rows


ERROR_FLOOR = 1e-16  # display clamp for log-scale plotting


def plot_convergence(rows: list[StudyRow], path: str | Path) -> None:
    """SVG of log10 eigenvalue error against free DOFs, one series per family."""
    if not rows:
        raise ValueError("no rows to plot")
    series: dict[str, list[tuple[float, float]]] = {}
    for r in rows:
        err = max(r.error, ERROR_FLOOR)
        series.setdefault(r.family, []).append((float(r.ndofs), math.log10(err)))
    line_chart(series, path)


# -- exact spectra and spectrum tables ---------------------------------------


def exact_square_spectrum(bc: str, count: int) -> np.ndarray:
    """First `count` Laplace eigenvalues (m^2 + n^2) pi^2 of the unit square,
    ascending with multiplicity; Neumann admits m, n = 0.

    They have m, n < start + count: the `count` values m^2 + start^2 with
    m < start + count are each smaller than any with max(m, n) >= start + count.
    """
    if bc not in BOUNDARY_CONDITIONS:
        raise ValueError(f"unknown boundary condition {bc!r}")
    if count < 1:
        raise ValueError("count must be >= 1")
    start = 0 if bc == "neumann" else 1
    squares = np.arange(start, start + count) ** 2
    values = np.sort(np.add.outer(squares, squares), axis=None)
    return values[:count].astype(float) * math.pi**2


@dataclass(frozen=True)
class SpectrumRow:
    index: int
    exact: float
    computed: dict[str, float]


def spectrum_report(bc: str, p: int, N: int, exact_count: int) -> list[SpectrumRow]:
    """Side-by-side table of the exact and both families' computed spectra
    on the unit square.

    Raises InsufficientSpectrum when a family's system is smaller than the
    requested number of eigenvalues, and SolveNotConverged when a printed
    pair fails `check_backward_error`.  A count below 1 raises ValueError
    before anything is solved.
    """
    if exact_count < 1:
        raise ValueError("count must be >= 1")
    mesh = build_mesh(SQUARE, N)
    computed: dict[str, np.ndarray] = {}
    for family in FAMILIES:
        result = _solve_on_mesh(mesh, bc, family, p, None)
        if len(result) < exact_count:
            raise InsufficientSpectrum(
                f"{family} p={p} N={N} yields {len(result)} eigenvalues, "
                f"need {exact_count}"
            )
        check_backward_error(result, slice(exact_count))
        computed[family] = result.eigenvalues[:exact_count]
    # after the solves, so that a count above the system size builds no count^2 table
    exact = exact_square_spectrum(bc, exact_count)
    return [
        SpectrumRow(k, float(exact[k]), {f: float(computed[f][k]) for f in FAMILIES})
        for k in range(exact_count)
    ]
