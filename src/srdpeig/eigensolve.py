"""Dense symmetric-definite generalized eigenvalue solver L v = lambda M v.

The pencil is reduced by a Cholesky factorization M = C C^T to the
congruent standard symmetric problem C^{-1} L C^{-T}, which an orthogonal
symmetric eigensolver handles; eigenvalues come back real and ascending.
Problem sizes in this package stay small enough (a few thousand DOFs at
most) that a dense full-spectrum solve is the robust choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .assembly import GlobalSystem


class MassNotPD(RuntimeError):
    """Mass matrix failed its Cholesky factorization (not positive definite)."""


class InsufficientSpectrum(ValueError):
    """Fewer computed eigenvalues than the request needs."""


@dataclass(frozen=True)
class EigenResult:
    """Ascending spectrum with optional eigenvectors and the system size."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None
    ndofs: int = 0

    def __len__(self) -> int:
        return len(self.eigenvalues)


def solve_generalized(system: GlobalSystem, with_vectors: bool = False) -> EigenResult:
    """Full ascending spectrum of the assembled pencil (L, M)."""
    n = system.dimension
    if n == 0:
        return EigenResult(np.empty(0))
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
    len(exact) eigenvalues.
    """
    exact = np.asarray(exact, dtype=float)
    if len(exact) > len(result.eigenvalues):
        raise InsufficientSpectrum(
            f"profile needs {len(exact)} eigenvalues, have {len(result.eigenvalues)}"
        )
    return [
        (k, float(result.eigenvalues[k]), float(exact[k]), float(result.eigenvalues[k] - exact[k]))
        for k in range(len(exact))
    ]
