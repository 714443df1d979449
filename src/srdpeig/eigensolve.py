"""Symmetric-definite generalized eigensolver L v = lambda M v.

Every solve returns checked eigenpairs in one shape, `EigenResult`, from one
of three paths: one pair per targeted solve, every pair for a spectrum (a
solve without a target).  The rule reads only the target and the system: a
targeted solve of a system that carries a `LineFactor` (a tensor system on
the unit square) is separable; a targeted solve of any other system of more
than max(`NCV`, `DENSE_MAX_DOFS`) DOFs is shift-invert; every other solve,
and every solve without a target, is dense.  Nothing else selects a path,
and `DENSE_MAX_DOFS` does not apply to a separable system.  Each targeted
path picks the pair nearest the target, a tie going to the smaller value
(on shift-invert, to the pair ARPACK converges), and finishes that pair
alone.

* Dense: one `eigh(L, M)` call of the densified pencil gives every
  eigenpair.  A spectrum returns every one; a targeted solve returns the
  one whose LAPACK eigenvalue is nearest the target.
* Separable: the system is the Kronecker square of its 1D pencil (S1, M1)
  up to a DOF permutation (`assembly` module docstring), so its eigenpairs
  are (mu_a + mu_b, u_a x u_b) for the eigenpairs (mu, u) of (S1, M1) --
  separation of variables, the fast diagonalization of Lynch, Rice &
  Thomas (Numer. Math. 6, 1964).  One `eigh(S1, M1)` call of at most
  N p + 1 DOFs gives every mu; the sum nearest the target gives the vector
  U[ix, a] U[iy, b] on the system's DOFs.  No sparse factorization and no
  Lanczos iteration run.
* Shift-invert: more than `DENSE_MAX_DOFS` DOFs, and always more than the
  `NCV` Lanczos vectors: the one eigenpair nearest the target comes from
  shift-invert Lanczos about it (ARPACK through `scipy.sparse.linalg.eigsh`
  with `sigma=target` and `NCV` Lanczos vectors) on the assembled pencil.
  A study point reads only the eigenvalue nearest its target, so nothing
  else is computed: converging two more pairs took 21 solves where one
  takes 7 (median over the shift-invert points of the tier-1 grid), and
  ARPACK's cost is those solves (Lehoucq & Sorensen, SIAM J. Matrix Anal.
  Appl. 17, 1996).  When
  two eigenvalues lie equally far from the target (a double eigenvalue, or
  an exact tie on both sides), the result holds the one ARPACK converges;
  the copies of a double eigenvalue have one value.  The shifted matrix
  a = L - target * M is scipy's sparse difference of the assembled
  matrices, which stores no entry that comes out exactly 0, and the mass
  matrix ARPACK multiplies by drops its exact zeros too.  At p = 6 the
  parity zeros of the 1D Gram integrals are 26 to 48% of the assembled
  entries; leaving them out changes no float sum, so the values are bit for
  bit those over the assembled patterns.  Only the solve is balanced: it
  factors D a D, D = 2^(-round(log2 |a_ii| / 2)) (1 where a_ii = 0), which
  evens out the unscaled derivative DOFs whose loss of pivots otherwise
  fills the factors, and applies a^-1 x = D (D a D)^-1 D x.  SuperLU
  factors D a D once in the symmetric minimum-degree order of A^T + A
  (`MMD_AT_PLUS_A`), keeping the diagonal pivot unless it is below 0.1 of
  its column's largest entry.  Powers of two scale exactly, so ARPACK's
  iterates are bit for bit D times those of (D L D, D M D), and a
  congruence keeps the inertia of a (Ericsson & Ruhe, Math. Comp. 35,
  1980).  A target at which a is exactly singular raises `SingularShift`.

`DENSE_MAX_DOFS` = 200 was set where a three-pair shift-invert window cost
as much as the dense path (160 to 225 DOFs).  Since both paths finish one
pair, the two cost the same at about 105 to 120 DOFs on both domains.
Medians of 41 `solve_generalized` calls at 2 BLAS threads (Intel Xeon,
2 vCPUs), dense against shift-invert, ranges over 3 runs: 0.78-0.93 against
1.22-1.36 ms at 79 DOFs (square Dirichlet serendipity at 2 pi^2), 0.93-0.94
against 1.22-1.37 at 85 (L-shape Neumann serendipity at lambda_1), 1.12-1.15
against 1.24-1.42 at 96 (L-shape tensor), 1.09-1.17 against 1.43-1.56 at 97
(square); 1.26-1.40 against 1.25-1.30 at 106 (L-shape) and 1.44-1.77
against 1.42-1.58 at 118 (square); 1.96-2.35 against 1.40-1.56 at 133 and
3.83-4.69 against 1.77-1.94 at 185 (L-shape); 2.55-3.20 against 1.65-2.46
at 153 and 19.4-20.4 against 3.08-4.03 at 366 (square).  Below about 100
DOFs, ARPACK's fixed cost outweighs the O(n^3) of LAPACK.

Every path passes the vectors it keeps, unchanged, to one `_finish` on the
assembled pencil: each pair must have a positive M-norm, its eigenvalue
is the Rayleigh quotient v^T L v / v^T M v of its vector (not the Ritz or
LAPACK value), and its backward error ||L v - lambda M v||_1 /
((||L||_1 + |lambda| ||M||_1) ||v||_1) is recorded in the result.  The
matrix 1-norms are exact (the largest absolute column sum of the sparse
matrix), not estimates.
The accuracy gate, `checked_values`, returns the eigenvalues at the
positions asked for, once no pair there has a backward error above
`BACKWARD_ERROR_TOL`.  `select_near` reads the pair nearest a target through
it, and `studies.spectrum_report` the first `count` pairs.  A targeted
result holds one pair, the one `select_near` reads; of a spectrum only the
pairs read are gated.

The mass check is full on the dense and separable paths and partial on the
shift-invert path.  The dense path's Cholesky factorization of M checks M in
full.  On the separable path M = M1 (x) M1 up to a permutation and rounding.
The eigenvalues of M1 (x) M1 are the products of pairs of those of M1, and
M1 has a positive diagonal, so M is positive definite exactly when M1 is:
the Cholesky factorization of M1 inside `eigh(S1, M1)` checks M in full too,
and its failure raises `MassNotPD`.  ARPACK assumes M > 0 and does not test
it, so the shift-invert path first checks two things M > 0 requires: a
positive diagonal, and m_ij^2 < m_ii m_jj for every stored off-diagonal m_ij
(its 2 x 2 principal minors).  Both are exact and O(nnz), and every
assembled mass matrix passes with room: the smallest
1 - m_ij^2 / (m_ii m_jj) is 0.028 (square tensor p = 8, N = 3, over both
domains, BCs and families, p = 1..8 and N = 1..3).  Their failure raises
`MassNotPD` before anything is factored, whatever ARPACK's subspace: on the
pencil L = diag(1..50), M = I but -1 at index 10, about target 2.5, ARPACK
with 10 Lanczos vectors and tolerance 1e-10, or 11 and tolerance 0, returned
three-pair windows such as 2, 3 and a spurious third value, and one returned
vector need not see the negative direction.  The checks do not catch every
indefinite M; then `_finish` raises `MassNotPD` only when the returned
vector has v^T M v <= 0, and otherwise only the selection gate can reject
the pair.

Eigenvalues come back real and ascending on every path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

from .assembly import GlobalSystem

#: Lanczos vectors of a one-pair shift-invert solve, which only a system of
#: more than NCV DOFs takes.  Applications of the shifted inverse over the 434 shift-invert
#: solves of the tier-1 grid (both domains and BCs, every preset, both
#: families, p <= 6, N <= 5), in total and (in brackets) at the worst solve:
#: 3 vectors 5,064 (35), 4 vectors 4,798 (27), 6 vectors 4,799 (22); a
#: three-pair window at ARPACK's default took 11,723 (51).
NCV = 6
#: Largest system without a `LineFactor` that a targeted solve hands to the
#: dense path (module docstring).
DENSE_MAX_DOFS = 200
#: Largest backward error an eigenpair a caller reads may have to be accepted.
BACKWARD_ERROR_TOL = 1e-8


class MassNotPD(RuntimeError):
    """Mass matrix is not positive definite (failed Cholesky, a diagonal
    entry <= 0, a 2 x 2 principal minor <= 0, or an eigenvector with
    v^T M v <= 0)."""


class InsufficientSpectrum(ValueError):
    """Fewer computed eigenvalues than the request needs."""


class SolveNotConverged(RuntimeError):
    """Shift-invert did not converge, or a pair a caller reads is inaccurate."""


class SingularShift(RuntimeError):
    """L - target * M is exactly singular in floating point, so shift-invert
    about the target cannot factor it."""


@dataclass(frozen=True)
class EigenResult:
    """Checked eigenpairs of an n-DOF pencil, ascending: one pair, the one
    nearest the target, from a targeted solve, and every pair from a
    spectrum.

    `eigenvectors[:, k]` is the vector of eigenvalue k, checked by
    `_finish`, and `backward_error[k]` its backward error.  An empty system
    gives no pairs and vectors of shape (0, 0).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    backward_error: np.ndarray

    @property
    def ndofs(self) -> int:
        return self.eigenvectors.shape[0]

    def __len__(self) -> int:
        return len(self.eigenvalues)


def solve_generalized(system: GlobalSystem, target: float | None = None) -> EigenResult:
    """Checked eigenpairs of the assembled pencil (L, M).

    With a target, the one pair nearest it comes from the 1D pencil when
    the system carries a `LineFactor`, from sparse shift-invert when the
    system has more than max(`NCV`, `DENSE_MAX_DOFS`) DOFs, and from one
    dense `eigh` call otherwise.  Without a target every pair comes from one
    dense `eigh` call.  Each path returns Rayleigh quotients, vectors and
    backward errors through one `_finish` (module docstring).
    """
    n = system.dimension
    if n == 0:
        return EigenResult(np.empty(0), np.empty((0, 0)), np.empty(0))
    if target is not None and system.factor is not None:
        return _solve_separable(system, target)
    if target is not None and n > max(NCV, DENSE_MAX_DOFS):
        return _solve_near(system, target)
    return _solve_dense(system, target)


def _eigh(L: np.ndarray, M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`eigh(L, M)` of the dense pencil by one LAPACK call: (eigenvalues,
    eigenvectors); a failed Cholesky factorization of M raises MassNotPD."""
    try:
        return eigh(L, M)
    except np.linalg.LinAlgError as exc:
        # M is eigh's B; its failed Cholesky reads "... of B is not positive definite"
        if "positive definite" not in str(exc):
            raise
        raise MassNotPD(
            f"mass matrix of dimension {M.shape[0]} is not positive definite"
        ) from exc


def _solve_dense(system: GlobalSystem, target: float | None) -> EigenResult:
    """One dense `eigh` of the pencil; every eigenpair without a target, the
    one nearest it with one, checked by `_finish`."""
    w, V = _eigh(system.L.toarray(), system.M.toarray())
    return _finish(system, V if target is None else V[:, _nearest(w, target)])


def _solve_separable(system: GlobalSystem, target: float) -> EigenResult:
    """The eigenpair nearest the target from the system's 1D pencil,
    checked by `_finish` on the assembled one.

    The eigenpairs of the Kronecker pencil are (mu_a + mu_b, u_a x u_b) for
    the eigenpairs (mu, u) of (S1, M1); the sum nearest the target gives
    the vector U[ix, a] U[iy, b] (module docstring).
    """
    line = system.factor
    mu, U = _eigh(line.stiffness, line.mass)
    sums = (mu[:, None] + mu).ravel()
    a, b = np.divmod(_nearest(sums, target), mu.size)
    V = U[line.ix[:, None], a] * U[line.iy[:, None], b]
    return _finish(system, V)


def _solve_near(system: GlobalSystem, target: float) -> EigenResult:
    """The eigenpair nearest the target by sparse shift-invert Lanczos on
    the assembled pencil, whose solve factors the balanced shifted matrix."""
    n = system.dimension
    mass = system.M.copy()
    mass.eliminate_zeros()
    # M > 0 needs a positive diagonal and, for every stored off-diagonal
    # m_ij, a positive 2 x 2 principal minor: m_ij^2 < m_ii m_jj
    diagonal = mass.diagonal()
    if (diagonal <= 0).any():
        raise MassNotPD(f"mass matrix of dimension {n} has a diagonal entry <= 0")
    rows = np.repeat(np.arange(n), np.diff(mass.indptr))
    off = rows != mass.indices
    if not (mass.data[off] ** 2 < diagonal[rows[off]] * diagonal[mass.indices[off]]).all():
        raise MassNotPD(
            f"mass matrix of dimension {n} is not positive definite: "
            "a 2 x 2 principal minor is <= 0"
        )
    # scipy stores no entry of a sparse sum that is exactly 0, so a holds
    # no position where M and L are both 0
    a = system.L - target * system.M
    # D = 2^(-round(log2|a_ii| / 2)), and 1 where a_ii is 0: a power-of-two
    # congruence, exact in floating point, so a becomes D a D in place
    shifted_diagonal = np.abs(a.diagonal())
    log2 = np.log2(shifted_diagonal, out=np.zeros(n), where=shifted_diagonal > 0)
    d = np.ldexp(1.0, -np.rint(log2 / 2).astype(int))
    a.data *= np.repeat(d, np.diff(a.indptr)) * d[a.indices]
    try:
        # D a D is symmetric, so its CSR transpose (a CSC view of the same
        # arrays) is itself
        lu = splu(a.T, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1)
    except RuntimeError as exc:
        # SuperLU's message when L - sigma M has an exactly zero pivot
        if "exactly singular" not in str(exc):
            raise
        raise SingularShift(
            f"shift-invert about {target} failed: L - sigma M is exactly "
            f"singular (dimension {n})"
        ) from exc
    # D (D a D)^-1 D x = a^-1 x
    OPinv = LinearOperator((n, n), matvec=lambda x: d * lu.solve(d * x), dtype=float)
    # ARPACK's default start vector is random; a fixed one keeps output bytes
    # identical from run to run.
    v0 = d * np.random.default_rng(0).standard_normal(n)
    try:
        # with sigma and OPinv, eigsh reads only the shape and dtype of its
        # first argument; the Ritz value is replaced by a Rayleigh quotient
        # in _finish
        _, V = eigsh(system.L, 1, M=mass, sigma=target, v0=v0, OPinv=OPinv, ncv=NCV)
    except ArpackNoConvergence as exc:
        raise SolveNotConverged(
            f"shift-invert solve about {target} did not converge (dimension {n})"
        ) from exc
    return _finish(system, V)


def _finish(system: GlobalSystem, V: np.ndarray) -> EigenResult:
    """Check and finish the eigenvectors V of the system's assembled pencil
    (L, M): each needs v^T M v > 0, its eigenvalue is the Rayleigh quotient
    v^T L v / v^T M v, and its backward error is recorded.  Pairs come back
    ascending."""
    LV, MV = system.L @ V, system.M @ V
    mass_norm = np.einsum("ij,ij->j", V, MV)
    if (mass_norm <= 0).any():
        raise MassNotPD(f"mass matrix of dimension {system.dimension} is not positive definite")
    w = np.einsum("ij,ij->j", V, LV) / mass_norm
    residual = LV - MV * w
    scale = _norm1(system.L) + np.abs(w) * _norm1(system.M)
    eta = np.abs(residual).sum(axis=0) / (scale * np.abs(V).sum(axis=0))
    order = np.argsort(w, kind="stable")
    return EigenResult(w[order], V[:, order], eta[order])


def _norm1(A) -> float:
    """Exact 1-norm of a CSR matrix: its largest absolute column sum."""
    return np.bincount(A.indices, np.abs(A.data), minlength=A.shape[1]).max()


def _nearest(w: np.ndarray, target: float) -> np.ndarray:
    """The index of the entry of w closest to the target, as a one-element
    array; a tie in distance breaks toward the smaller value."""
    return np.lexsort((w, np.abs(w - target)))[:1]


def checked_values(result: EigenResult, positions) -> np.ndarray:
    """The eigenvalues at the given positions of the result.  Raises
    InsufficientSpectrum when no position is given, one is negative or one
    lies past the result, and SolveNotConverged when a pair there has a
    backward error above `BACKWARD_ERROR_TOL`."""
    positions = np.asarray(positions, dtype=np.intp)
    if positions.min(initial=0) < 0:
        raise InsufficientSpectrum(f"position {positions.min()} is negative")
    needed = positions.max(initial=0) + 1
    if positions.size == 0 or needed > len(result):
        raise InsufficientSpectrum(f"{len(result)} eigenvalues computed, {needed} needed")
    eta = result.backward_error[positions]
    if not (eta <= BACKWARD_ERROR_TOL).all():
        raise SolveNotConverged(
            f"eigenpairs have backward error up to {eta.max():.3g}, above "
            f"{BACKWARD_ERROR_TOL:g} (dimension {result.ndofs})"
        )
    return result.eigenvalues[positions]


def select_near(result: EigenResult, target: float) -> list[float]:
    """The eigenvalue closest to the target, read through `checked_values`,
    as a one-element list; ties in distance break toward the smaller
    eigenvalue.  A targeted result holds one pair, so this reads the pair its
    path picked: on shift-invert an exact tie has already gone to the pair
    ARPACK converged (module docstring).  Of a spectrum it picks among every
    pair."""
    return list(checked_values(result, _nearest(result.eigenvalues, target)))
