"""Independent verification routines for the test suite.

Everything here deliberately avoids the code paths it checks: integrals use
Gauss quadrature instead of the monomial rule, exact Gram matrices integrate
whole 2D products instead of the separable 1D factors, eigenvalues come from
Sturm bisection or separation of variables instead of LAPACK, and whole
discrete spaces are rebuilt from raw monomials with pointwise continuity
constraints.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from srdpeig.polynomial import Polynomial


def eval_float(poly: Polynomial, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Float evaluation of an exact polynomial on numpy grids."""
    out = np.zeros(np.broadcast(x, y).shape)
    for (i, j), c in poly.terms.items():
        out = out + float(c) * x**i * y**j
    return out


def gauss_box_integral(poly: Polynomial, n: int = 9) -> float:
    """Gauss-Legendre quadrature of a polynomial over [-1, 1]^2.

    Exact (up to roundoff) for degree <= 2n-1 per variable.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n)
    xg, yg = np.meshgrid(nodes, nodes)
    wg = np.outer(weights, weights)
    return float((eval_float(poly, xg, yg) * wg).sum())


def exact_gram(funcs: list[Polynomial]) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """Exact mass and stiffness Gram matrices over [-1, 1]^2, each entry
    integrated as one 2D product by `Polynomial.integrate_box`."""
    grads = [(f.derivative("x"), f.derivative("y")) for f in funcs]
    mass = [[(f * g).integrate_box() for g in funcs] for f in funcs]
    stiffness = [
        [(fx * gx + fy * gy).integrate_box() for gx, gy in grads] for fx, fy in grads
    ]
    return mass, stiffness


def dirichlet_p1_eigenvalues_1d(N: int) -> np.ndarray:
    """Generalized eigenvalues of the 1D consistent-mass hat-function scheme
    on [0, 1] with N cells and zero endpoint values, by closed form."""
    h = 1.0 / N
    j = np.arange(1, N)
    theta = j * math.pi * h
    return 6.0 * (1.0 - np.cos(theta)) / (h * h * (2.0 + np.cos(theta)))


def dirichlet_p1_eigenvalues_2d(N: int) -> np.ndarray:
    """Discrete Laplace eigenvalues of the bilinear consistent-mass scheme on
    the N x N unit-square grid: all sums of two 1D eigenvalues, ascending."""
    mu = dirichlet_p1_eigenvalues_1d(N)
    return np.sort((mu[:, None] + mu[None, :]).ravel())


# -- Sturm-sequence bisection for small symmetric-definite pencils -----------


def _cholesky_lower(A: np.ndarray) -> np.ndarray:
    """Plain-loop Cholesky factorization (no LAPACK)."""
    n = A.shape[0]
    C = np.zeros_like(A, dtype=float)
    for i in range(n):
        for j in range(i + 1):
            s = A[i, j] - C[i, :j] @ C[j, :j]
            if i == j:
                if s <= 0:
                    raise ValueError("matrix is not positive definite")
                C[i, j] = math.sqrt(s)
            else:
                C[i, j] = s / C[j, j]
    return C


def _forward_solve(C: np.ndarray, B: np.ndarray) -> np.ndarray:
    n = C.shape[0]
    X = np.zeros_like(B, dtype=float)
    for i in range(n):
        X[i] = (B[i] - C[i, :i] @ X[:i]) / C[i, i]
    return X


def _householder_tridiagonal(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduce a symmetric matrix to tridiagonal form; returns (diag, offdiag)."""
    A = A.copy().astype(float)
    n = A.shape[0]
    for k in range(n - 2):
        x = A[k + 1 :, k].copy()
        alpha = -math.copysign(np.linalg.norm(x), x[0] if x[0] != 0 else 1.0)
        if alpha == 0:
            continue
        v = x.copy()
        v[0] -= alpha
        norm_v = np.linalg.norm(v)
        if norm_v == 0:
            continue
        v /= norm_v
        # apply P = I - 2 v v^T on both sides of the trailing block
        sub = A[k + 1 :, k + 1 :]
        w = sub @ v
        tau = v @ w
        sub -= 2.0 * np.outer(v, w) + 2.0 * np.outer(w, v) - 4.0 * tau * np.outer(v, v)
        A[k + 1 :, k] = 0.0
        A[k, k + 1 :] = 0.0
        A[k + 1, k] = alpha
        A[k, k + 1] = alpha
    return np.diag(A).copy(), np.diag(A, -1).copy()


def _count_below(d: np.ndarray, e: np.ndarray, x: float) -> int:
    """Number of eigenvalues of the tridiagonal (d, e) strictly below x,
    via the Sturm sequence of leading principal minors."""
    count = 0
    q = 1.0
    tiny = 1e-300
    for i in range(len(d)):
        q = d[i] - x - (e[i - 1] ** 2 / q if i > 0 else 0.0)
        if q == 0.0:
            q = tiny
        if q < 0:
            count += 1
    return count


def sturm_generalized_eigenvalues(L: np.ndarray, M: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """All eigenvalues of the pencil (L, M) by Cholesky reduction followed by
    Householder tridiagonalization and Sturm-sequence bisection.

    Uses only plain numpy arithmetic (no LAPACK eigensolvers); intended for
    dimensions up to ~50 as a cross-check.
    """
    C = _cholesky_lower(np.asarray(M, dtype=float))
    W = _forward_solve(C, np.asarray(L, dtype=float))
    A = _forward_solve(C, W.T)
    A = 0.5 * (A + A.T)
    n = A.shape[0]
    if n == 1:
        return np.array([A[0, 0]])
    d, e = _householder_tridiagonal(A)
    radius = max(abs(d).max() + 2 * abs(e).max(), 1.0)
    eigenvalues = []
    for k in range(n):
        lo, hi = -radius, radius
        while hi - lo > tol * radius:
            mid = 0.5 * (lo + hi)
            if _count_below(d, e, mid) <= k:
                lo = mid
            else:
                hi = mid
        eigenvalues.append(0.5 * (lo + hi))
    return np.array(eigenvalues)


# -- brute-force discrete spaces ----------------------------------------------


def _space_exponents(family: str, p: int) -> list[tuple[int, int]]:
    if family == "tensor":
        return [(i, j) for i in range(p + 1) for j in range(p + 1)]
    monos = {(i, j) for i in range(p + 1) for j in range(p + 1 - i)}
    monos |= {(p, 1), (1, p)}
    return sorted(monos)


def bruteforce_square_spectrum(family: str, p: int, N: int, bc: str) -> np.ndarray:
    """Galerkin spectrum on the unit square built without any basis machinery.

    Each cell carries raw reference-coordinate monomials; continuity across
    interior edges and (for Dirichlet) zero boundary traces are imposed as
    pointwise constraints; the pencil is solved on an SVD nullspace basis.
    """
    from scipy.linalg import eigh

    exps = _space_exponents(family, p)
    nloc = len(exps)
    cells = [(cx, cy) for cy in range(N) for cx in range(N)]
    index = {c: k for k, c in enumerate(cells)}
    ndof = len(cells) * nloc
    h = 1.0 / N
    # p+2 samples pin a degree-p (or p+1 for the two extra monomials) trace:
    # traces of x^p y / x y^p on edges are still degree <= p in the edge
    # parameter, so p+2 points suffice; use p+3 for slack.
    ts = np.linspace(-1.0, 1.0, p + 3)

    rows = []

    def trace_row(cell: tuple[int, int], xi, eta, sign: float, row: np.ndarray):
        k = index[cell]
        for m, (i, j) in enumerate(exps):
            row[k * nloc + m] += sign * xi**i * eta**j

    for cx, cy in cells:
        if (cx + 1, cy) in index:
            for t in ts:
                row = np.zeros(ndof)
                trace_row((cx, cy), 1.0, t, +1.0, row)
                trace_row((cx + 1, cy), -1.0, t, -1.0, row)
                rows.append(row)
        if (cx, cy + 1) in index:
            for t in ts:
                row = np.zeros(ndof)
                trace_row((cx, cy), t, 1.0, +1.0, row)
                trace_row((cx, cy + 1), t, -1.0, -1.0, row)
                rows.append(row)
        if bc == "dirichlet":
            fixed = []
            if cx == 0:
                fixed.append((-1.0, None))
            if cx == N - 1:
                fixed.append((1.0, None))
            if cy == 0:
                fixed.append((None, -1.0))
            if cy == N - 1:
                fixed.append((None, 1.0))
            for xf, yf in fixed:
                for t in ts:
                    row = np.zeros(ndof)
                    trace_row((cx, cy), xf if xf is not None else t, yf if yf is not None else t, 1.0, row)
                    rows.append(row)

    def box(i: int, j: int) -> float:
        if i % 2 or j % 2:
            return 0.0
        return 4.0 / ((i + 1) * (j + 1))

    Mloc = np.zeros((nloc, nloc))
    Lloc = np.zeros((nloc, nloc))
    for a, (ia, ja) in enumerate(exps):
        for b, (ib, jb) in enumerate(exps):
            Mloc[a, b] = box(ia + ib, ja + jb) * (h / 2) ** 2
            dx = ia * ib * box(ia + ib - 2, ja + jb) if ia and ib else 0.0
            dy = ja * jb * box(ia + ib, ja + jb - 2) if ja and jb else 0.0
            Lloc[a, b] = dx + dy

    if rows:
        A = np.array(rows)
        _, sv, Vt = np.linalg.svd(A, full_matrices=True)
        rank = int((sv >= max(A.shape) * np.finfo(float).eps * sv[0]).sum())
        Z = Vt[rank:].T
    else:
        Z = np.eye(ndof)
    Mg = np.kron(np.eye(len(cells)), Mloc)
    Lg = np.kron(np.eye(len(cells)), Lloc)
    return np.sort(eigh(Z.T @ Lg @ Z, Z.T @ Mg @ Z, eigvals_only=True))
