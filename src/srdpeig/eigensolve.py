"""Symmetric-definite generalized eigensolver L v = lambda M v.

With no target, the pencil is densified and handed to one LAPACK call,
`scipy.linalg.eigh(L, M)`, for the full spectrum; spectrum tables and the
oracle tests use it.  With a target, the `K` eigenpairs nearest it are
found (ties break toward the smaller eigenvalue, as in `select_near`) by
one of three paths.  The rule reads only the system: a system that carries
a `LineFactor` (a tensor system on the unit square) is separable; any other
takes the dense path up to `DENSE_MAX_DOFS` DOFs and shift-invert above.
Nothing else selects a path, and `DENSE_MAX_DOFS` does not apply to a
separable system.

* Separable: the system is the Kronecker square of its 1D pencil (S1, M1)
  up to a DOF permutation (`assembly` module docstring), so its eigenpairs
  are (mu_a + mu_b, u_a x u_b) for the eigenpairs (mu, u) of (S1, M1) --
  separation of variables, the fast diagonalization of Lynch, Rice &
  Thomas (Numer. Math. 6, 1964).  One `eigh(S1, M1)` call of at most
  N p + 1 DOFs gives every mu; the `K` sums nearest the target give the
  vectors U[ix, a] U[iy, b] on the system's DOFs.  No sparse factorization
  and no Lanczos iteration run.
* Dense: at most `DENSE_MAX_DOFS` DOFs: one `eigh(L, M)` call of the
  densified pencil, whose `K` pairs nearest the target are kept.
* Shift-invert: more than `DENSE_MAX_DOFS` DOFs: the `K`
  eigenpairs nearest the target come from shift-invert Lanczos about it
  (ARPACK through `scipy.sparse.linalg.eigsh` with `sigma=target`) on the
  sparse matrices.  A study point needs only the eigenvalue nearest its
  target, so nothing else is computed.  The solve works on one pattern for
  M and L: the union of theirs, less the positions where both are exactly
  0.  At p = 6 the parity zeros of the 1D Gram integrals are 26 to 48% of
  the assembled entries; leaving them out changes no float sum, so the
  values are bit for bit those over the assembled patterns.  The pencil is
  first balanced by the diagonal congruence D = 2^(-round(log2 |a_ii| / 2))
  of a = L - target * M (1 where a_ii = 0).  Powers of two scale exactly in floating point, so
  (D L D, D M D) has the same eigenvalues, with eigenvectors D^-1 v; it
  evens out the unscaled derivative DOFs, whose loss of pivots otherwise
  fills the factors.  D a D is factored once by SuperLU in the symmetric
  minimum-degree order of A^T + A (`MMD_AT_PLUS_A`), keeping the diagonal
  pivot unless it is below 0.1 of its column's largest entry, and that
  factorization is the Lanczos operator.  A target at which a is exactly
  singular in floating point raises `SingularShift`.

`DENSE_MAX_DOFS` = 200 lies between the sizes where the dense and
shift-invert paths cost the same on the L-shape (160 to 170 DOFs) and on the
square (153 to 225).  Medians of 41 `solve_generalized` calls at 2 BLAS
threads (Intel Xeon, 2 vCPUs), dense against shift-invert, ranges over 3 to
5 runs: L-shape 2.0-3.2 against 3.8-6.1 ms at 96 DOFs, 6.3-7.3 against
5.4-7.2 at 161, 9.0-9.8 against 7.5-8.0 at 185 and 13.2-14.1 against 8.3-8.7
at 225; square Dirichlet serendipity at 2 pi^2, 5.9-6.2 against 9.3-10.7 at
153, 12.4-13.2 against 10.9-12.4 at 225 and 33.2-35.3 against 14.6-16.2 at
366.  Below it, ARPACK's fixed cost outweighs the O(n^3) of LAPACK: it
makes 21 to 37 shift-invert solves and 62 to 110 M-products even at 45 to
121 DOFs.

All three targeted paths end in one `_finish` on the original, unscaled,
assembled pencil: each pair must have a positive M-norm, its eigenvalue is
the Rayleigh quotient v^T L v / v^T M v of its vector (not the Ritz or
LAPACK value), and its backward error ||L v - lambda M v||_1 /
((||L||_1 + |lambda| ||M||_1) ||v||_1) is recorded in the result.  The
matrix 1-norms are exact (the largest absolute column sum of the sparse
matrix), not estimates.
The accuracy gate sits at selection: `select_near` raises when a pair it
returns has a backward error above `BACKWARD_ERROR_TOL`.  The far members
of a targeted window are not gated.  Shift-invert converges the values
1/(lambda - target) relative to the largest one, so when the target sits
very close to an eigenvalue, a far pair can lose digits that the selected
pairs keep.  A system of at most `K` DOFs returns all its pairs.

The mass check is full on the dense and separable paths and partial on the
shift-invert path.  The dense path's Cholesky factorization of M checks M in
full.  On the separable path M = M1 (x) M1 up to a permutation and
rounding.  The eigenvalues of M1 (x) M1 are the products of pairs of those
of M1, and M1 has a positive diagonal, so M is positive definite exactly
when M1 is: the Cholesky factorization of M1 inside `eigh(S1, M1)` checks
M in full too, and its failure raises `MassNotPD`.  ARPACK assumes M > 0
and does not test it, so the shift-invert path first checks that M's
diagonal is positive, which M > 0 requires.  The test is exact and O(n),
and its failure raises `MassNotPD` before anything is factored, whatever
ARPACK's subspace: on the pencil L = diag(1..50), M = I but -1 at index
10, about target 2.5, ARPACK with 10 Lanczos vectors and tolerance 1e-10,
or 11 and tolerance 0, returns windows such as 2, 3 and a spurious third
value.  The test does not catch an indefinite M with a positive diagonal.
Then `_finish` raises `MassNotPD` only when a returned vector has
v^T M v <= 0; otherwise only the selection gate can reject the window.

Eigenvalues come back real and ascending on every path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

from .assembly import GlobalSystem

#: Eigenpairs a targeted solve returns: a double eigenvalue plus one neighbour.
K = 3
#: Largest system without a `LineFactor` that a targeted solve hands to the
#: dense path (module docstring).
DENSE_MAX_DOFS = 200
#: Largest backward error a selected eigenpair may have to be accepted.
BACKWARD_ERROR_TOL = 1e-8


class MassNotPD(RuntimeError):
    """Mass matrix is not positive definite (failed Cholesky, a diagonal
    entry <= 0, or an eigenvector with v^T M v <= 0)."""


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
    """Eigenvalues of the assembled pencil (L, M).

    With no target, the full spectrum from one dense `eigh` call.  With a
    target, the `K` eigenpairs nearest it (all of them when there are at
    most `K`): from the 1D pencil when the system carries a `LineFactor`,
    else from the dense call when the system has at most `DENSE_MAX_DOFS`
    DOFs, else from sparse shift-invert.  Every targeted path returns
    Rayleigh quotients with backward errors through one `_finish` (module
    docstring).
    """
    n = system.dimension
    if n == 0:
        return EigenResult(np.empty(0))
    if target is None:
        w, vectors = _eigh(system.L.toarray(), system.M.toarray(), with_vectors)
        return EigenResult(w, vectors, ndofs=n)
    if system.factor is not None:
        return _solve_separable(system, target, with_vectors)
    if n > max(K, DENSE_MAX_DOFS):
        return _solve_near(system, target, with_vectors)
    return _solve_dense(system, target, with_vectors)


def _eigh(L: np.ndarray, M: np.ndarray, with_vectors: bool):
    """(eigenvalues, eigenvectors or None) of the dense pencil (L, M) by one
    LAPACK call; a failed Cholesky factorization of M raises MassNotPD."""
    try:
        result = eigh(L, M, eigvals_only=not with_vectors)
    except np.linalg.LinAlgError as exc:
        # M is eigh's B; its failed Cholesky reads "... of B is not positive definite"
        if "positive definite" not in str(exc):
            raise
        raise MassNotPD(
            f"mass matrix of dimension {M.shape[0]} is not positive definite"
        ) from exc
    return result if with_vectors else (result, None)


def _solve_dense(system: GlobalSystem, target: float, with_vectors: bool) -> EigenResult:
    """The K eigenpairs nearest the target from one dense `eigh` of the
    pencil, checked by `_finish`."""
    w, V = _eigh(system.L.toarray(), system.M.toarray(), True)
    return _finish(system.M, system.L, target, V[:, _nearest(w, target, K)], with_vectors)


def _solve_separable(system: GlobalSystem, target: float, with_vectors: bool) -> EigenResult:
    """The K eigenpairs nearest the target from the system's 1D pencil,
    checked by `_finish` on the assembled one.

    The eigenpairs of the Kronecker pencil are (mu_a + mu_b, u_a x u_b) for
    the eigenpairs (mu, u) of (S1, M1); the K sums nearest the target give
    the vectors U[ix, a] U[iy, b] (module docstring).
    """
    line = system.factor
    mu, U = _eigh(line.stiffness, line.mass, True)
    sums = (mu[:, None] + mu).ravel()
    a, b = np.divmod(_nearest(sums, target, K), mu.size)
    V = U[line.ix[:, None], a] * U[line.iy[:, None], b]
    return _finish(system.M, system.L, target, V, with_vectors)


def _solve_near(system: GlobalSystem, target: float, with_vectors: bool) -> EigenResult:
    """The K eigenpairs nearest the target by sparse shift-invert Lanczos on
    the balanced pencil, checked on the original one."""
    n = system.dimension
    # one (symmetric) pattern for m and l: the sparse sum keeps the union of
    # M's and L's and drops the positions where both are exactly 0
    pencil = system.M + 1j * system.L
    pattern = (pencil.indices, pencil.indptr)
    m, l = pencil.data.real.copy(), pencil.data.imag.copy()
    M = sp.csr_matrix((m, *pattern), shape=(n, n))
    if (M.diagonal() <= 0).any():
        raise MassNotPD(f"mass matrix of dimension {n} has a diagonal entry <= 0")
    a = l - target * m
    # D = 2^(-round(log2|a_ii| / 2)) for a = L - target M, and 1 where a_ii
    # is 0: a power-of-two congruence, exact in floating point, so D a D is
    # bit for bit D L D - target D M D
    shifted_diagonal = np.abs(sp.csr_matrix((a, *pattern), shape=(n, n)).diagonal())
    exponent = np.zeros(n, dtype=int)
    nonzero = shifted_diagonal > 0
    exponent[nonzero] = -np.rint(np.log2(shifted_diagonal[nonzero]) / 2)
    d = np.ldexp(1.0, exponent)
    # entry (i, j) of D A D is a_ij d_i d_j
    dd = np.repeat(d, np.diff(pencil.indptr)) * d[pencil.indices]
    try:
        # D a D is symmetric, so its CSR arrays are also its CSC arrays
        lu = splu(
            sp.csc_matrix((a * dd, *pattern), shape=(n, n)),
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
    L = sp.csr_matrix((l, *pattern), shape=(n, n))
    scaled_mass = sp.csr_matrix((m * dd, *pattern), shape=(n, n))
    try:
        # with sigma and OPinv, eigsh reads only the shape and dtype of its
        # first argument, so L is passed unscaled; the Ritz values are
        # replaced by Rayleigh quotients in _finish
        _, V = eigsh(L, K, M=scaled_mass, sigma=target, v0=v0, OPinv=OPinv)
    except ArpackNoConvergence as exc:
        raise SolveNotConverged(
            f"shift-invert solve about {target} did not converge (dimension {n})"
        ) from exc
    return _finish(M, L, target, d[:, None] * V, with_vectors)


def _finish(M, L, target: float, V: np.ndarray, with_vectors: bool) -> EigenResult:
    """Check and finish the eigenvectors V of the unscaled pencil (L, M):
    each needs v^T M v > 0, its eigenvalue is the Rayleigh quotient
    v^T L v / v^T M v, and its backward error is recorded.  Pairs come back
    ascending."""
    n = M.shape[0]
    LV, MV = L @ V, M @ V
    mass_norm = np.einsum("ij,ij->j", V, MV)
    if (mass_norm <= 0).any():
        raise MassNotPD(f"mass matrix of dimension {n} is not positive definite")
    w = np.einsum("ij,ij->j", V, LV) / mass_norm
    residual = LV - MV * w
    scale = _norm1(L) + np.abs(w) * _norm1(M)
    eta = np.abs(residual).sum(axis=0) / (scale * np.abs(V).sum(axis=0))
    order = np.argsort(w, kind="stable")
    vectors = V[:, order] if with_vectors else None
    return EigenResult(w[order], vectors, n, target, eta[order])


def _norm1(A) -> float:
    """Exact 1-norm of a CSR matrix: its largest absolute column sum."""
    return np.bincount(A.indices, np.abs(A.data), minlength=A.shape[1]).max()


def _nearest(w: np.ndarray, target: float, count: int) -> np.ndarray:
    """Indices of the `count` entries of w closest to the target, nearest
    first; ties in distance break toward the smaller value."""
    w = np.asarray(w)
    return np.lexsort((w, np.abs(w - target)))[:count]


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
    chosen = _nearest(w, target, multiplicity)
    if result.backward_error is not None:
        eta = result.backward_error[chosen]
        if not (eta <= BACKWARD_ERROR_TOL).all():
            raise SolveNotConverged(
                f"eigenpairs near {target} have backward error up to {eta.max():.3g}, "
                f"above {BACKWARD_ERROR_TOL:g} (dimension {result.ndofs})"
            )
    return sorted(w[k] for k in chosen)
