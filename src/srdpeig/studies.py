"""Refinement studies: eigenvalue error versus degrees of freedom.

A study fixes a domain, boundary condition, and target eigenvalue, and
solves a list of (family, p, N) points, any orders p >= 1 and mesh sizes
N >= 1, reporting at each the absolute eigenvalue error against the number
of free DOFs.  `srdp-eig study` turns its sweep options into such a list: a
p-sweep over `P_RANGE` at fixed N or an h-sweep over `N_RANGE` at fixed p,
for one or both element families.  Degenerate Dirichlet cases where
elimination empties the system are skipped with a logged notice rather than
failing the study.

`run_study` returns the rows and writes nothing; `write_csv` and
`plot_convergence` turn rows into a CSV file and an SVG chart, and
`srdp-eig study` calls them after the study has run, so a study that raises
leaves no file behind.

Every eigenvalue a study row or a `spectrum_report` table holds is read by
`eigensolve.checked_values`: a row through `select_near`, a table as the
positions 0..count-1.  A failed solve or read of either raises its own
exception type with the configuration ("tensor p=3 N=3 (square, dirichlet):
...") put in front by `_naming_the_point`.
"""

from __future__ import annotations

import logging
import math
from contextlib import contextmanager
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
    checked_values,
    select_near,
    solve_generalized,
)
from .mesh import DOMAINS, SQUARE, Mesh, build_dof_map, build_mesh
from .svgplot import line_chart

logger = logging.getLogger(__name__)

#: The orders and mesh sizes `srdp-eig study` sweeps; the CLI reads them
#: through this module when it runs, so a caller may narrow them here.
P_RANGE = (1, 2, 3, 4, 5, 6)
N_RANGE = (1, 2, 3, 4, 5)

#: Named eigenvalue targets.  On the unit square 2 pi^2 is simple and 5 pi^2
#: double.  The `lshape_neumann_*` entries are nonzero Neumann eigenvalues
#: of the L-shape counted with multiplicity: the first, the second, pi^2
#: (exact; double, with eigenfunctions cos(pi x) and cos(pi y)) in third and
#: fourth place, and the fifth.  `lshape_dirichlet_1` is the Dirichlet ground
#: state; every discrete eigenvalue of a conforming method lies at or above
#: it (min-max), so the eigenvalue nearest it is always the first.  The
#: L-shape values other than pi^2 come from the method of particular
#: solutions about the re-entrant corner (Fox, Henrici & Moler, SIAM J.
#: Numer. Anal. 4, 1967; Betcke & Trefethen, SIAM Review 47, 2005), with no
#: finite elements in it: 60, 80 and 100 terms agree to 1e-13, and each is
#: given to 12 significant digits.  `tests/oracles.py` recomputes them.
TARGET_PRESETS: dict[str, float] = {
    "two_pi_sq": 2 * math.pi**2,
    "five_pi_sq": 5 * math.pi**2,
    "lshape_neumann_1": 1.47562182397,
    "lshape_neumann_2": 3.53403136679,
    "lshape_neumann_3": math.pi**2,
    "lshape_neumann_4": 11.3894793979,
    "lshape_dirichlet_1": 9.63972384402,
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
    """One experiment: domain, BC and target, and the (family, p, N) points
    it solves, in row order.  Bad input raises ValueError before any solve."""

    domain: str
    bc: str
    target: float
    points: tuple[tuple[str, int, int], ...]

    def __post_init__(self):
        if not math.isfinite(self.target):
            raise ValueError(f"target must be finite, got {self.target}")
        if self.domain not in DOMAINS:
            raise ValueError(f"unknown domain {self.domain!r}")
        if self.bc not in BOUNDARY_CONDITIONS:
            raise ValueError(f"unknown boundary condition {self.bc!r}")
        if not self.points:
            raise ValueError("points must name at least one point")
        if len(set(self.points)) != len(self.points):
            raise ValueError(f"points repeat a point: {self.points}")
        for family, p, N in self.points:
            if family not in FAMILIES:
                raise ValueError(f"unknown family {family!r}")
            if p < 1 or N < 1:
                raise ValueError(f"p and N must be >= 1, got p={p} N={N}")


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


@contextmanager
def _naming_the_point(family: str, p: int, N: int, domain: str, bc: str):
    """Re-raise a failed solve or read (SolveNotConverged, MassNotPD,
    SingularShift, InsufficientSpectrum) as the same exception type, its
    message led by the configuration."""
    try:
        yield
    except (SolveNotConverged, MassNotPD, SingularShift, InsufficientSpectrum) as exc:
        raise type(exc)(f"{family} p={p} N={N} ({domain}, {bc}): {exc}") from exc


def run_study(spec: StudySpec) -> list[StudyRow]:
    """One row per point of `spec.points`, in that order; no file is
    written.

    Points whose Dirichlet system is empty are skipped and logged.  A solve
    or a selected pair that fails its checks raises its own exception type,
    the point named first (`_naming_the_point`).  Each distinct mesh is
    built once and shared by every point on it.
    """
    meshes = {N: build_mesh(spec.domain, N) for N in sorted({N for *_, N in spec.points})}
    rows: list[StudyRow] = []
    for family, p, N in spec.points:
        try:
            with _naming_the_point(family, p, N, spec.domain, spec.bc):
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
        rows.append(StudyRow(family, p, N, result.ndofs, lam, abs(lam - spec.target)))
    return rows


CSV_HEADER = "family,p,N,ndofs,lambda_h,error"


def write_csv(rows: list[StudyRow], path: str | Path) -> None:
    """Deterministic CSV: header plus one line per row, 17 significant
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
    """Parse a file produced by write_csv; a bad header or a malformed row
    raises ValueError naming the file and its 1-based line."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"{path}, line 1: unexpected study CSV header: {header!r}")
        for number, line in enumerate(fh, start=2):
            try:
                family, p, N, ndofs, lam, err = line.strip().split(",")
                rows.append(StudyRow(family, int(p), int(N), int(ndofs), float(lam), float(err)))
            except ValueError as exc:
                raise ValueError(f"{path}, line {number}: {exc}: {line.strip()!r}") from exc
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


def spectrum_report(
    bc: str, p: int, N: int, exact_count: int
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """(exact, {family: computed}): the first `exact_count` eigenvalues of
    the unit square, exact and read by `checked_values` from each family's
    solve.  A failed solve or read raises as in `run_study`; a count below
    1 raises ValueError before anything is solved.
    """
    if exact_count < 1:
        raise ValueError("count must be >= 1")
    mesh = build_mesh(SQUARE, N)
    computed: dict[str, np.ndarray] = {}
    for family in FAMILIES:
        with _naming_the_point(family, p, N, SQUARE, bc):
            result = _solve_on_mesh(mesh, bc, family, p, None)
            computed[family] = checked_values(result, range(exact_count))
    # after the solves, so that a count above the system size builds no count^2 table
    return exact_square_spectrum(bc, exact_count), computed
