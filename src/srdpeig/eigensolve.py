"""Symmetric-definite generalized eigensolver L v = lambda M v.

Two paths, chosen from the input:

* Targeted: given a target and more than `K` free DOFs, the `K` eigenpairs
  nearest the target come from shift-invert Lanczos about it (ARPACK through
  `scipy.sparse.linalg.eigsh` with `sigma=target`) on the sparse matrices.
  A study point needs only the eigenvalue nearest its target, so nothing
  else is computed.  Each returned pair must have a positive M-norm and a
  backward error ||L v - lambda M v||_1 / ((||L||_1 + |lambda| ||M||_1)
  ||v||_1) of at most `BACKWARD_ERROR_TOL`, else the solve raises.
* Full spectrum: with no target, or with at most `K` DOFs (ARPACK needs
  more DOFs than requested pairs), the pencil is densified and reduced by a
  Cholesky factorization M = C C^T to the congruent standard problem
  C^{-1} L C^{-T}, which an orthogonal symmetric eigensolver handles.
  Spectrum tables and the oracle tests use this path.

Eigenvalues come back real and ascending on both paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.sparse.linalg import ArpackNoConvergence, eigsh, onenormest

from .assembly import GlobalSystem

#: Eigenpairs a targeted solve returns: a double eigenvalue plus one neighbour.
K = 3
#: Largest backward error a targeted eigenpair may have to be accepted.
BACKWARD_ERROR_TOL = 1e-8


class MassNotPD(RuntimeError):
    """Mass matrix is not positive definite (failed Cholesky, or an
    eigenvector with v^T M v <= 0)."""


class InsufficientSpectrum(ValueError):
    """Fewer computed eigenvalues than the request needs."""


class SolveNotConverged(RuntimeError):
    """The targeted solve did not converge or returned an inaccurate pair."""


@dataclass(frozen=True)
class EigenResult:
    """Ascending eigenvalues with optional eigenvectors and the system size.

    `target` is None for a full spectrum; otherwise the eigenvalues are
    only the window nearest that target.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None
    ndofs: int = 0
    target: float | None = None

    def __len__(self) -> int:
        return len(self.eigenvalues)


def solve_generalized(
    system: GlobalSystem, with_vectors: bool = False, target: float | None = None
) -> EigenResult:
    """Eigenvalues of the assembled pencil (L, M): the `K` nearest the
    target when one is given and the system has more than `K` DOFs, the
    full spectrum otherwise."""
    n = system.dimension
    if n == 0:
        return EigenResult(np.empty(0))
    if target is not None and n > K:
        return _solve_near(system, target, with_vectors)
    M = system.M.toarray()
    L = system.L.toarray()
    try:
        C = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise MassNotPD(f"mass matrix of dimension {n} is not positive definite") from exc
    W = solve_triangular(C, L, lower=True)  # C^{-1} L
    A = solve_triangular(C, W.T, lower=True)  # C^{-1} L^T C^{-T}
    A = 0.5 * (A + A.T)
    if with_vectors:
        w, V = np.linalg.eigh(A)
        vectors = solve_triangular(C.T, V, lower=False)
    else:
        w = np.linalg.eigvalsh(A)
        vectors = None
    order = np.argsort(w, kind="stable")
    w = w[order]
    if vectors is not None:
        vectors = vectors[:, order]
    return EigenResult(w, vectors, ndofs=n)


def _solve_near(system: GlobalSystem, target: float, with_vectors: bool) -> EigenResult:
    """The K eigenpairs nearest the target by sparse shift-invert Lanczos."""
    n = system.dimension
    # ARPACK's default start vector is random; a fixed one keeps output bytes
    # identical from run to run.
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        w, V = eigsh(system.L, K, M=system.M, sigma=target, v0=v0)
    except ArpackNoConvergence as exc:
        raise SolveNotConverged(
            f"shift-invert solve about {target} did not converge (dimension {n})"
        ) from exc
    order = np.argsort(w, kind="stable")
    w, V = w[order], V[:, order]
    MV = system.M @ V
    if (np.einsum("ij,ij->j", V, MV) <= 0).any():
        raise MassNotPD(f"mass matrix of dimension {n} is not positive definite")
    residual = system.L @ V - MV * w
    scale = onenormest(system.L) + np.abs(w) * onenormest(system.M)
    eta = np.abs(residual).sum(axis=0) / (scale * np.abs(V).sum(axis=0))
    if not (eta <= BACKWARD_ERROR_TOL).all():
        raise SolveNotConverged(
            f"eigenpairs near {target} have backward error up to {eta.max():.3g}, "
            f"above {BACKWARD_ERROR_TOL:g} (dimension {n})"
        )
    return EigenResult(w, V if with_vectors else None, ndofs=n, target=target)


def select_near(result: EigenResult, target: float, multiplicity: int = 1) -> list[float]:
    """The `multiplicity` eigenvalues closest to the target.

    Ties in distance break toward the smaller eigenvalue.  Returned values
    are ascending.
    """
    if multiplicity < 1:
        raise ValueError("multiplicity must be >= 1")
    w = result.eigenvalues
    if len(w) < multiplicity:
        raise InsufficientSpectrum(
            f"requested {multiplicity} eigenvalues near {target}, have {len(w)}"
        )
    ranked = sorted(w, key=lambda lam: (abs(lam - target), lam))
    return sorted(ranked[:multiplicity])


def spectrum_error_profile(
    result: EigenResult, exact: list[float] | np.ndarray
) -> list[tuple[int, float, float, float]]:
    """Index-wise pairing of the sorted computed and exact spectra.

    Rows are (index, computed, exact, computed - exact) for the first
    len(exact) eigenvalues.  A window of eigenvalues near a target has no
    index from the bottom of the spectrum, so it raises InsufficientSpectrum.
    """
    if result.target is not None:
        raise InsufficientSpectrum(
            f"profile needs the full spectrum, have {len(result)} eigenvalues "
            f"near {result.target}"
        )
    exact = np.asarray(exact, dtype=float)
    if len(exact) > len(result.eigenvalues):
        raise InsufficientSpectrum(
            f"profile needs {len(exact)} eigenvalues, have {len(result.eigenvalues)}"
        )
    return [
        (k, float(result.eigenvalues[k]), float(exact[k]), float(result.eigenvalues[k] - exact[k]))
        for k in range(len(exact))
    ]
