"""Symmetric-definite generalized eigensolver L v = lambda M v.

Two paths, chosen from the input:

* Targeted: given a target and more than `K` free DOFs, the `K` eigenpairs
  nearest the target come from shift-invert Lanczos about it (ARPACK through
  `scipy.sparse.linalg.eigsh` with `sigma=target`) on the sparse matrices.
  A study point needs only the eigenvalue nearest its target, so nothing
  else is computed.  The pencil is first balanced by the diagonal
  congruence D = 2^(-round(log2 |a_ii| / 2)) of a = L - target * M (1
  where a_ii = 0).  Powers of two scale exactly in floating point, so
  (D L D, D M D) has the same eigenvalues, with eigenvectors D^-1 v; it
  evens out the unscaled derivative DOFs, whose loss of pivots otherwise
  fills the factors.  D (L - target M) D is factored once by SuperLU in
  the symmetric minimum-degree order of A^T + A (`MMD_AT_PLUS_A`), keeping
  the diagonal pivot unless it is below 0.1 of its column's largest
  entry, and that factorization is the Lanczos operator.  The checks run
  on the original, unscaled pencil: each returned pair must have a
  positive M-norm, and its backward error ||L v - lambda M v||_1 /
  ((||L||_1 + |lambda| ||M||_1) ||v||_1) is recorded in the result.  The
  matrix 1-norms are exact (the largest absolute column sum of the sparse
  matrix), not estimates.  A target at which L - target * M is exactly
  singular in floating point raises `SingularShift`.
* Full spectrum: with no target, or with at most `K` DOFs (ARPACK needs
  more DOFs than requested pairs), the pencil is densified and handed to
  one LAPACK call, `scipy.linalg.eigh(L, M)`.  Spectrum tables and the
  oracle tests use this path.

The accuracy gate sits at selection: `select_near` raises when a pair it
returns has a backward error above `BACKWARD_ERROR_TOL`.  The far members
of a targeted window are not gated.  Shift-invert converges the values
1/(lambda - target) relative to the largest one, so when the target sits
very close to an eigenvalue, a far pair can lose digits that the selected
pairs keep.

Eigenvalues come back real and ascending on both paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, norm, splu

from .assembly import GlobalSystem

#: Eigenpairs a targeted solve returns: a double eigenvalue plus one neighbour.
K = 3
#: Largest backward error a selected eigenpair may have to be accepted.
BACKWARD_ERROR_TOL = 1e-8


class MassNotPD(RuntimeError):
    """Mass matrix is not positive definite (failed Cholesky, or an
    eigenvector with v^T M v <= 0)."""


class InsufficientSpectrum(ValueError):
    """Fewer computed eigenvalues than the request needs."""


class SolveNotConverged(RuntimeError):
    """The targeted solve did not converge, or a selected pair is inaccurate."""


class SingularShift(RuntimeError):
    """L - target * M is exactly singular in floating point, so shift-invert
    about the target cannot factor it."""


@dataclass(frozen=True)
class EigenResult:
    """Ascending eigenvalues with optional eigenvectors and the system size.

    `target` is None for a full spectrum; otherwise the eigenvalues are
    only the window nearest that target, and `backward_error[k]` is the
    backward error of pair k.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None
    ndofs: int = 0
    target: float | None = None
    backward_error: np.ndarray | None = None

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
    L, M = system.L.toarray(), system.M.toarray()
    try:
        result = eigh(L, M, eigvals_only=not with_vectors)
    except np.linalg.LinAlgError as exc:
        # M is eigh's B; its failed Cholesky reads "... of B is not positive definite"
        if "positive definite" not in str(exc):
            raise
        raise MassNotPD(f"mass matrix of dimension {n} is not positive definite") from exc
    w, vectors = result if with_vectors else (result, None)
    return EigenResult(w, vectors, ndofs=n)


def _solve_near(system: GlobalSystem, target: float, with_vectors: bool) -> EigenResult:
    """The K eigenpairs nearest the target by sparse shift-invert Lanczos on
    the balanced pencil, checked on the original one."""
    n = system.dimension
    L, M = system.L, system.M
    # D = 2^(-round(log2|a_ii| / 2)) for a = L - target M, and 1 where a_ii
    # is 0: a power-of-two congruence, exact in floating point
    shifted_diagonal = np.abs(L.diagonal() - target * M.diagonal())
    exponent = np.zeros(n, dtype=int)
    nonzero = shifted_diagonal > 0
    exponent[nonzero] = -np.rint(np.log2(shifted_diagonal[nonzero]) / 2)
    d = np.ldexp(1.0, exponent)
    L_s, M_s = _congruence(L, d), _congruence(M, d)
    try:
        lu = splu(
            (L_s - target * M_s).tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.1,
        )
    except RuntimeError as exc:
        # SuperLU's message when L - sigma M has an exactly zero pivot
        if "exactly singular" not in str(exc):
            raise
        raise SingularShift(
            f"shift-invert about {target} failed: L - sigma M is exactly "
            f"singular (dimension {n})"
        ) from exc
    OPinv = LinearOperator((n, n), matvec=lu.solve, dtype=float)
    # ARPACK's default start vector is random; a fixed one keeps output bytes
    # identical from run to run.
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        w, V = eigsh(L_s, K, M=M_s, sigma=target, v0=v0, OPinv=OPinv)
    except ArpackNoConvergence as exc:
        raise SolveNotConverged(
            f"shift-invert solve about {target} did not converge (dimension {n})"
        ) from exc
    order = np.argsort(w, kind="stable")
    w, V = w[order], d[:, None] * V[:, order]
    MV = M @ V
    if (np.einsum("ij,ij->j", V, MV) <= 0).any():
        raise MassNotPD(f"mass matrix of dimension {n} is not positive definite")
    residual = L @ V - MV * w
    scale = norm(L, 1) + np.abs(w) * norm(M, 1)
    eta = np.abs(residual).sum(axis=0) / (scale * np.abs(V).sum(axis=0))
    return EigenResult(w, V if with_vectors else None, n, target, eta)


def _congruence(A, d: np.ndarray):
    """D A D for D = diag(d) and A in CSR or CSC: entry (i, j) times d_i d_j."""
    scaled = A.copy()
    scaled.data *= np.repeat(d, np.diff(A.indptr)) * d[A.indices]
    return scaled


def select_near(result: EigenResult, target: float, multiplicity: int = 1) -> list[float]:
    """The `multiplicity` eigenvalues closest to the target.

    Ties in distance break toward the smaller eigenvalue.  Returned values
    are ascending.  Raises SolveNotConverged when a returned pair has a
    recorded backward error above `BACKWARD_ERROR_TOL`.
    """
    if multiplicity < 1:
        raise ValueError("multiplicity must be >= 1")
    w = result.eigenvalues
    if len(w) < multiplicity:
        raise InsufficientSpectrum(
            f"requested {multiplicity} eigenvalues near {target}, have {len(w)}"
        )
    ranked = sorted(range(len(w)), key=lambda k: (abs(w[k] - target), w[k]))
    chosen = ranked[:multiplicity]
    if result.backward_error is not None:
        eta = result.backward_error[chosen]
        if not (eta <= BACKWARD_ERROR_TOL).all():
            raise SolveNotConverged(
                f"eigenpairs near {target} have backward error up to {eta.max():.3g}, "
                f"above {BACKWARD_ERROR_TOL:g} (dimension {result.ndofs})"
            )
    return sorted(w[k] for k in chosen)
