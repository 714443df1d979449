"""Refinement studies: eigenvalue error versus degrees of freedom.

A study fixes a domain, boundary condition, and target eigenvalue, then
sweeps either the polynomial order (p = 1..6 at fixed mesh) or the mesh
resolution (N = 1..5 at fixed order) for one or both element families and
reports the absolute eigenvalue error against the number of free DOFs.
Degenerate Dirichlet cases where elimination empties the system are skipped
with a logged notice rather than failing the sweep.
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
    select_near,
    solve_generalized,
)
from .mesh import DOMAINS, SQUARE, build_dof_map, build_mesh
from .svgplot import line_chart

logger = logging.getLogger(__name__)

P_RANGE = (1, 2, 3, 4, 5, 6)
N_RANGE = (1, 2, 3, 4, 5)

#: Named eigenvalue targets: the simple square-domain values and published
#: high-accuracy references for the four lowest nonzero Neumann eigenvalues
#: of the L-shaped domain.
TARGET_PRESETS: dict[str, float] = {
    "two_pi_sq": 2 * math.pi**2,
    "five_pi_sq": 5 * math.pi**2,
    "lshape_neumann_1": 1.4756218450,
    "lshape_neumann_2": 3.5340313683,
    "lshape_neumann_3": 9.8696044011,
    "lshape_neumann_4": 11.389479398,
}


def resolve_target(target: str | float) -> float:
    """Interpret a target as a preset name or a float literal."""
    if isinstance(target, (int, float)):
        return float(target)
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
    csv_path: str | Path | None = None
    plot_path: str | Path | None = None

    def __post_init__(self):
        if self.domain not in DOMAINS:
            raise ValueError(f"unknown domain {self.domain!r}")
        if self.bc not in BOUNDARY_CONDITIONS:
            raise ValueError(f"unknown boundary condition {self.bc!r}")
        if self.sweep not in ("p", "h"):
            raise ValueError("sweep must be 'p' or 'h'")
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
    """Mesh, assemble, and solve one configuration end to end; with a
    target, solve only for the eigenvalues nearest it."""
    mesh = build_mesh(domain, N)
    dofmap = build_dof_map(mesh, family, p)
    system = assemble(mesh, dofmap, reference_matrices(family, p), bc)
    return solve_generalized(system, target=target)


def run_study(spec: StudySpec) -> list[StudyRow]:
    """Execute every sweep point for every family, in sweep order.

    Points whose Dirichlet system is empty (or whose spectrum cannot serve
    the target) are skipped and logged.  A solve that fails its accuracy
    checks (SolveNotConverged, MassNotPD) raises.
    """
    rows: list[StudyRow] = []
    for family in spec.families:
        for p, N in spec.points():
            try:
                result = solve_configuration(
                    spec.domain, spec.bc, family, p, N, target=spec.target
                )
                lam = select_near(result, spec.target)[0]
            except (EmptySystem, InsufficientSpectrum) as exc:
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
            rows.append(
                StudyRow(family, p, N, result.ndofs, lam, abs(lam - spec.target))
            )
    if spec.csv_path is not None:
        write_csv(rows, spec.csv_path)
    if spec.plot_path is not None:
        plot_convergence(rows, spec.plot_path)
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
    line_chart(
        series,
        path,
        xlabel="free degrees of freedom",
        ylabel="log10 |eigenvalue error|",
        title="eigenvalue error vs degrees of freedom",
    )


# -- exact spectra and spectrum tables ---------------------------------------


def exact_square_spectrum(bc: str, count: int) -> np.ndarray:
    """First `count` Laplace eigenvalues (m^2 + n^2) pi^2 of the unit square,
    ascending with multiplicity; Neumann admits m, n = 0."""
    if bc not in BOUNDARY_CONDITIONS:
        raise ValueError(f"unknown boundary condition {bc!r}")
    start = 0 if bc == "neumann" else 1
    limit = 8
    while True:
        values = sorted(
            m * m + n * n
            for m in range(start, limit + 1)
            for n in range(start, limit + 1)
        )
        safe = [v for v in values if v <= limit * limit]
        if len(safe) >= count:
            return np.array(safe[:count], dtype=float) * math.pi**2
        limit *= 2


@dataclass(frozen=True)
class SpectrumRow:
    index: int
    exact: float
    computed: dict[str, float]


def spectrum_report(
    domain: str,
    bc: str,
    p: int,
    N: int,
    exact_count: int,
    families: tuple[str, ...] = FAMILIES,
) -> list[SpectrumRow]:
    """Side-by-side table of exact and computed spectra on the square.

    Raises InsufficientSpectrum when a family's system is smaller than the
    requested number of eigenvalues.
    """
    if domain != SQUARE:
        raise ValueError("exact spectrum is only available on the square domain")
    exact = exact_square_spectrum(bc, exact_count)
    computed: dict[str, np.ndarray] = {}
    for family in families:
        result = solve_configuration(domain, bc, family, p, N)
        if len(result) < exact_count:
            raise InsufficientSpectrum(
                f"{family} p={p} N={N} yields {len(result)} eigenvalues, "
                f"need {exact_count}"
            )
        computed[family] = result.eigenvalues[:exact_count]
    return [
        SpectrumRow(k, float(exact[k]), {f: float(computed[f][k]) for f in families})
        for k in range(exact_count)
    ]
