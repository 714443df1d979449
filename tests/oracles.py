"""Independent verification routines for the test suite.

Everything here deliberately avoids the code paths it checks, and imports
nothing from the package: exact polynomial algebra, derivatives and
evaluation run on `Poly`, this module's own polynomial type, which reads the
package's bases only as plain coefficient maps; float integrals use
Gauss quadrature, exact Gram matrices integrate whole 2D products by the
monomial rule instead of summing the package's integer 1D cross-Gram tables,
eigenvalues come from Sturm bisection or separation of variables instead of
LAPACK, L-shape eigenvalues from particular solutions about the re-entrant
corner instead of finite elements, whole discrete spaces are rebuilt from raw monomials with pointwise
continuity constraints, the 1D basis is checked against its defining
functionals instead of its closed form, and exact ranks and coordinates come
from an elimination of their own.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from typing import Mapping

import numpy as np
from scipy.special import jv


# -- exact polynomials ---------------------------------------------------------


def _terms_of(value) -> dict[tuple[int, int], Fraction] | None:
    """Exponent-to-coefficient map of an exact scalar, a `Poly`, or a
    coefficient mapping as the package builds its bases: keyed by (ex, ey),
    or by the power of x for a 1D function; None for anything else."""
    if isinstance(value, (int, Fraction)):
        return {(0, 0): Fraction(value)} if value else {}
    if isinstance(value, Poly):
        return value.terms
    if isinstance(value, Mapping):
        return Poly({(e, 0) if isinstance(e, int) else e: c for e, c in value.items()}).terms
    return None


class Poly:
    """Exact polynomial in x and y with `Fraction` coefficients, for the
    checks in this module and the hand-entered tables in `reference_bases`.

    Operands may be exact scalars or the package's coefficient maps; a map
    defers mixed `+`, `*` and `==` to this type through Python's reflected
    operators.  Coefficients must be exact, so a package function with float
    coefficients cannot pass an exact comparison.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        for (i, j), c in (terms or {}).items():
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent in {(i, j)}")
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"expected int or Fraction, got {c!r}")
            if c:
                self.terms[i, j] = Fraction(c)

    @classmethod
    def of(cls, value) -> "Poly":
        terms = _terms_of(value)
        if terms is None:
            raise TypeError(f"not an exact polynomial: {value!r}")
        return cls(terms)

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def monomial(cls, i: int, j: int, c=1) -> "Poly":
        return cls({(i, j): c})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other) -> "Poly":
        terms = _terms_of(other)
        if terms is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in terms.items():
            out[e] = out.get(e, 0) + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + -Poly.of(other)

    def __rsub__(self, other) -> "Poly":
        return Poly.of(other) + -self

    def __mul__(self, other) -> "Poly":
        terms = _terms_of(other)
        if terms is None:
            return NotImplemented
        out: dict[tuple[int, int], Fraction] = {}
        for (ia, ja), ca in self.terms.items():
            for (ib, jb), cb in terms.items():
                e = (ia + ib, ja + jb)
                out[e] = out.get(e, 0) + ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        out = Poly.of(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        terms = _terms_of(other)
        return NotImplemented if terms is None else self.terms == terms

    def derivative(self, variable: str, order: int = 1) -> "Poly":
        """Partial derivative of the given order in 'x' or 'y'."""
        if variable not in ("x", "y"):
            raise ValueError(f"unknown variable {variable!r}")
        out = self.terms
        for _ in range(order):
            if variable == "x":
                out = {(i - 1, j): c * i for (i, j), c in out.items() if i}
            else:
                out = {(i, j - 1): c * j for (i, j), c in out.items() if j}
        return Poly(out)

    def __call__(self, x0, y0=0) -> Fraction:
        """Exact value at the rational point (x0, y0)."""
        x0, y0 = Fraction(x0), Fraction(y0)
        return sum((c * x0**i * y0**j for (i, j), c in self.terms.items()), Fraction(0))

    def __repr__(self) -> str:
        return f"Poly({dict(sorted(self.terms.items()))})"


#: The coordinate polynomials, for writing expressions like (1 - X**2) * Y.
X = Poly.monomial(1, 0)
Y = Poly.monomial(0, 1)
ONE = Poly.monomial(0, 0)


def eval_float(poly: Poly, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Float evaluation of an exact polynomial on numpy grids."""
    out = np.zeros(np.broadcast(x, y).shape)
    for (i, j), c in poly.terms.items():
        out = out + float(c) * x**i * y**j
    return out


def gauss_box_integral(poly: Poly, n: int = 9) -> float:
    """Gauss-Legendre quadrature of a polynomial over [-1, 1]^2.

    Exact (up to roundoff) for degree <= 2n-1 per variable.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n)
    xg, yg = np.meshgrid(nodes, nodes)
    wg = np.outer(weights, weights)
    return float((eval_float(poly, xg, yg) * wg).sum())


def basis_functions(basis) -> list[Poly]:
    """The functions of a basis, in grid order."""
    return [Poly.of(f) for f in basis.functions.values()]


def matrix_digest(lm) -> str:
    """SHA-256 of the exact Fraction entries of a LocalMatrices, row-major:
    the formula of the benchmark's `workloads.matrix_digest`."""
    h = hashlib.sha256(repr(lm.slots).encode())
    for matrix in (lm.mass_ref, lm.stiffness_ref):
        for row in matrix:
            h.update(",".join(f"{v.numerator}/{v.denominator}" for v in row).encode())
            h.update(b";")
    return h.hexdigest()


def integrate_box(poly: Poly) -> Fraction:
    """Exact integral over the reference square [-1, 1]^2.

    Monomial rule: the integral of x^i y^j vanishes when i or j is odd
    and equals 4 / ((i+1)(j+1)) otherwise.
    """
    total = Fraction(0)
    for (i, j), c in poly.terms.items():
        if i % 2 == 0 and j % 2 == 0:
            total += c * Fraction(4, (i + 1) * (j + 1))
    return total


def exact_gram(funcs: list) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """Exact mass and stiffness Gram matrices over [-1, 1]^2, each entry
    integrated as one 2D product by `integrate_box`."""
    funcs = [Poly.of(f) for f in funcs]
    grads = [(f.derivative("x"), f.derivative("y")) for f in funcs]
    mass = [[integrate_box(f * g) for g in funcs] for f in funcs]
    stiffness = [
        [integrate_box(fx * gx + fy * gy) for gx, gy in grads] for fx, fy in grads
    ]
    return mass, stiffness


# -- the defining functionals of the 1D basis ---------------------------------


def interpolating_conditions(p: int, i: int) -> list[tuple[Fraction, int, int]]:
    """The functionals that define basis function i of the order-p 1D family,
    as (node, derivative order, value) triples: the derivative of that order
    at the node must equal the value.

    For p >= 2 these are the values at -1, 0 and +1 and the derivatives of
    orders 1..p-2 at 0; function 1 carries the value at -1, function 2 the
    value at 0, functions 3..p the derivatives and function p+1 the value at
    +1.  For p = 1 they are the values at -1 and +1 only.  Exactly one
    condition has value 1, the rest 0.
    """
    if p < 1:
        raise ValueError("order must be >= 1")
    if not 1 <= i <= p + 1:
        raise ValueError(f"index {i} outside 1..{p + 1}")
    if p == 1:
        return [(Fraction(-1), 0, int(i == 1)), (Fraction(1), 0, int(i == 2))]
    carriers = {Fraction(-1): 1, Fraction(0): 2, Fraction(1): p + 1}
    return [(node, 0, int(i == carrier)) for node, carrier in carriers.items()] + [
        (Fraction(0), k, int(i == k + 2)) for k in range(1, p - 1)
    ]


# -- exact rank, span, and coordinates ----------------------------------------


def _echelon(rows: list[list]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form by exact Gauss-Jordan elimination; returns
    (reduced rows, pivot columns)."""
    rows = [[Fraction(v) for v in row] for row in rows]
    pivots: list[int] = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        k = next((k for k in range(r, len(rows)) if rows[k][c] != 0), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c] != 0:
                f = rows[k][c]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[r])]
        pivots.append(c)
    return rows, pivots


def exact_rank(matrix: list[list]) -> int:
    """Exact rank of a rational matrix."""
    return len(_echelon(matrix)[1])


def _coefficient_rows(polys: list) -> list[list[Fraction]]:
    """One row of exact coefficients per polynomial, over their joint support."""
    terms = [Poly.of(poly).terms for poly in polys]
    support = sorted(set().union(*terms))
    return [[t.get(e, Fraction(0)) for e in support] for t in terms]


def polynomial_rank(polys: list) -> int:
    """Dimension of the span of the polynomials."""
    return exact_rank(_coefficient_rows(polys))


def spans(polys: list, exponents: list[tuple[int, int]]) -> bool:
    """Whether every monomial x^i y^j, (i, j) in exponents, lies in the span."""
    monomials = [Poly.monomial(i, j) for i, j in exponents]
    return polynomial_rank(polys + monomials) == polynomial_rank(polys)


def coordinates(polys: list, target) -> list[Fraction] | None:
    """Exact c with sum c_k polys[k] == target (free coordinates 0), or None
    when the target is outside the span."""
    columns = _coefficient_rows(polys + [target])
    augmented = [list(row) for row in zip(*columns)]
    rows, pivots = _echelon(augmented)
    if len(polys) in pivots:  # a pivot in the target column: inconsistent
        return None
    c = [Fraction(0)] * len(polys)
    for r, k in enumerate(pivots):
        c[k] = rows[r][-1]
    return c


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


def space_exponents(family: str, p: int) -> list[tuple[int, int]]:
    """Monomials x^i y^j that span the order-p space of the family: all
    i, j <= p for tensor; total degree <= p plus x^p y and x y^p for
    serendipity."""
    if family == "tensor":
        return [(i, j) for i in range(p + 1) for j in range(p + 1)]
    monos = {(i, j) for i in range(p + 1) for j in range(p + 1 - i)}
    monos |= {(p, 1), (1, p)}
    return sorted(monos)


def serendipity_interior_count(p: int) -> int:
    """Interior functions of the order-p serendipity element."""
    if p < 2:
        return 0
    return (p - 3) * (p - 2) // 2


def bruteforce_square_spectrum(family: str, p: int, N: int, bc: str) -> np.ndarray:
    """Galerkin spectrum on the unit square built without any basis machinery.

    Each cell carries raw reference-coordinate monomials; continuity across
    interior edges and (for Dirichlet) zero boundary traces are imposed as
    pointwise constraints; the pencil is solved on an SVD nullspace basis.
    """
    from scipy.linalg import eigh

    exps = space_exponents(family, p)
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


# -- L-shape eigenvalues by the method of particular solutions ---------------


def _corner_polar(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Polar coordinates (r, phi) about the re-entrant corner (1, 1) of the
    L-shape [0, 2]^2 minus (1, 2]^2, with phi = 0 on the edge x = 1 and
    phi = 3 pi / 2 on the edge y = 1."""
    r = np.hypot(x - 1, y - 1)
    phi = np.mod(np.arctan2(y - 1, x - 1) - np.pi / 2, 2 * np.pi)
    return r, phi


class LShapeParticularSolutions:
    """Laplace eigenvalues of the L-shape with no finite elements in them.

    Fox, Henrici & Moler (SIAM J. Numer. Anal. 4, 1967), in the form of
    Betcke & Trefethen (SIAM Review 47, 2005): the `terms` functions
    J_nu(sqrt(lam) r) sin(nu phi) for Dirichlet, or cos(nu phi) for Neumann,
    with nu = 2k/3, solve -Laplace u = lam u and meet the boundary condition
    on the two edges at the corner.  `sigma(lam)` is the smallest singular
    value of the boundary rows of Q, from the QR factorization of the
    expansion sampled at 3 `TERMS` points on each of the other four edges
    (its value, or its outward normal derivative) and at 3 `TERMS` interior
    points; it has a sharp V-shaped minimum at each eigenvalue.  The other
    corners are right angles, so the expansion converges exponentially: 60,
    80 and 100 terms agree to about 1e-13.
    """

    TERMS = 60

    def __init__(self, bc: str):
        self.bc = bc
        k = np.arange(self.TERMS) if bc == "neumann" else np.arange(1, self.TERMS + 1)
        self.nu = 2 * k / 3
        m = 3 * self.TERMS
        # Chebyshev points of each edge cluster toward its ends
        t = (1 - np.cos(np.pi * (np.arange(m) + 0.5) / m)) / 2
        zero, two = np.zeros(m), np.full(m, 2.0)
        # the four edges away from the corner, each with its outward normal
        self.edges = [
            (zero, 2 * t, (-1.0, 0.0)),
            (2 * t, zero, (0.0, -1.0)),
            (two, t, (1.0, 0.0)),
            (t, two, (0.0, 1.0)),
        ]
        xy = np.random.default_rng(0).uniform(0, 2, (4 * m, 2))
        self.interior = xy[(xy[:, 0] <= 1) | (xy[:, 1] <= 1)][:m]

    def _angular(self, phi: np.ndarray) -> np.ndarray:
        return (np.cos if self.bc == "neumann" else np.sin)(self.nu * phi)

    def sigma(self, lam: float) -> float:
        s, nu = math.sqrt(lam), self.nu
        rows = []
        for x, y, (nx, ny) in self.edges:
            r, phi = _corner_polar(x, y)
            r, phi = r[:, None], phi[:, None]
            J = jv(nu, s * r)
            if self.bc == "dirichlet":
                rows.append(J * self._angular(phi))
                continue
            # u_r and u_phi / r of J_nu(s r) cos(nu phi), with
            # J'_nu(z) = J_(nu-1)(z) - nu J_nu(z) / z; the gradient's
            # Cartesian components come from the angle theta = phi + pi / 2
            ur = s * (jv(nu - 1, s * r) - nu * J / (s * r)) * np.cos(nu * phi)
            ut = -nu * J * np.sin(nu * phi) / r
            cos_t, sin_t = -np.sin(phi), np.cos(phi)
            rows.append(nx * (ur * cos_t - ut * sin_t) + ny * (ur * sin_t + ut * cos_t))
        boundary = np.vstack(rows)
        r, phi = _corner_polar(self.interior[:, 0], self.interior[:, 1])
        A = np.vstack([boundary, jv(nu, s * r[:, None]) * self._angular(phi[:, None])])
        Q, _ = np.linalg.qr(A / np.abs(A).max(axis=0))
        return np.linalg.svd(Q[: len(boundary)], compute_uv=False)[-1]

    def eigenvalue(self, guess: float) -> float:
        """The eigenvalue within about 3e-4 of the guess.

        Each half-width of 3e-4, 3e-6 and 1e-7 in turn samples sigma at 7
        equally spaced values about the current estimate, fits a straight
        line to each side of the V (the sample at its tip left out) and
        moves the estimate to where the two lines cross; a minimum at or
        next to an end of the grid moves the grid there first.  A bounded
        Brent search stops about 5e-8 short on a V this sharp.
        """
        center, points = guess, 7
        for width in (3e-4, 3e-6, 1e-7):
            while True:
                grid = center + width * np.linspace(-1, 1, points)
                values = np.array([self.sigma(g) for g in grid])
                i = int(np.argmin(values))
                if 2 <= i <= points - 3:
                    break
                center = grid[i]
            a1, b1 = np.polyfit(grid[:i], values[:i], 1)
            a2, b2 = np.polyfit(grid[i + 1 :], values[i + 1 :], 1)
            center = (b2 - b1) / (a1 - a2)
        return center


# -- exact eigenvalues of the 1D Neumann pencil ------------------------------


def line_neumann_pencil(p: int, N: int) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """Exact stiffness and mass matrices (S, M) of the order-p, N-cell
    Neumann discretization of -u'' = mu u on [0, 1].

    The element basis on [-1, 1] is the two hats (1 - x)/2 and (1 + x)/2
    plus the bubbles (1 - x^2) x^j, j = 0..p-2, not the package's basis: the
    eigenvalues do not depend on the basis of the space.  DOFs run left to
    right, vertex c at c p and the bubbles of cell c after it, so S - mu M is
    banded.
    """
    shape = [(ONE - X) * Fraction(1, 2), (ONE + X) * Fraction(1, 2)]
    shape += [(ONE - X * X) * X**j for j in range(p - 1)]
    slope = [f.derivative("x") for f in shape]
    # integrate_box over [-1, 1]^2 of a function of x alone is twice its
    # integral over [-1, 1]; a cell of width 1/N scales S by 2N and M by 1/(2N)
    stiffness = [[integrate_box(f * g) * N for g in slope] for f in slope]
    mass = [[integrate_box(f * g) / (4 * N) for g in shape] for f in shape]
    n = N * p + 1
    S = [[Fraction(0)] * n for _ in range(n)]
    M = [[Fraction(0)] * n for _ in range(n)]
    for c in range(N):
        dofs = [c * p, (c + 1) * p] + [c * p + 1 + j for j in range(p - 1)]
        for a, i in enumerate(dofs):
            for b, k in enumerate(dofs):
                S[i][k] += stiffness[a][b]
                M[i][k] += mass[a][b]
    return S, M


def _negative_pivots(A: list[list[Fraction]]) -> int | None:
    """Negative pivots of the exact LDL^T factorization of the symmetric
    matrix A, which is overwritten; None when a zero pivot has a nonzero
    entry below it.  By Sylvester's law of inertia, for A = S - mu M with
    M > 0 this counts the eigenvalues of (S, M) below mu."""
    count = 0
    for k, row in enumerate(A):
        count += row[k] < 0
        for lower in A[k + 1 :]:
            if lower[k]:
                if not row[k]:
                    return None
                f = lower[k] / row[k]
                for j in range(k + 1, len(A)):
                    if row[j]:
                        lower[j] -= f * row[j]
    return count


def line_neumann_mu_1(p: int) -> tuple[Fraction, Fraction]:
    """Rational bounds lo <= mu_1 < hi, 2^-80 apart, on the first nonzero
    eigenvalue of `line_neumann_pencil(p, 2)`, which lies in [9, 10) for
    p >= 2 (it approaches pi^2 from above).

    Bisection with Sylvester counts: each of the 80 points counts the
    eigenvalues below it by one exact LDL^T of S - mu M; mu_0 = 0 and mu_1
    are the eigenvalues below hi, so mu_1 lies below mid when the count is 2.
    A point where a leading block of S - mu M is singular gives no count;
    the point halfway to hi replaces it.
    """
    S, M = line_neumann_pencil(p, 2)

    def below(mu: Fraction) -> int | None:
        return _negative_pivots([[s - mu * m for s, m in zip(*rows)] for rows in zip(S, M)])

    lo, hi = Fraction(9), Fraction(10)
    if not below(lo) == 1 < below(hi):
        raise ValueError(f"[{lo}, {hi}) does not hold mu_1 at p = {p}")
    for _ in range(80):
        mid = (lo + hi) / 2
        while (count := below(mid)) is None:
            mid = (mid + hi) / 2
        lo, hi = (mid, hi) if count == 1 else (lo, mid)
    return lo, hi
