"""Exact reference matrices, element scaling, and global sparse assembly.

Local mass and stiffness matrices are integrated exactly over [-1, 1]^2 in
rational arithmetic; floats appear only when the matrices are scaled onto a
physical element of side h.  Under the map from the reference square to a
square of side h, mass entries pick up a factor (h/2)^2 while stiffness
entries are unchanged (the gradient and area factors cancel in 2D).  Each
float entry is the exact scaled value rounded once: a mass entry a/b with
(h/2)^2 = fn/fd is the integer true division (a fn) / (b fd), which Python
rounds correctly, and the h-independent stiffness is converted once per
cached reference matrix.

Both families share one separable path.  Every basis function is a signed
sum of products phi_a(x) phi_b(y) of 1D functions (`basis2d.slot_factors`),
so each mass entry is a signed sum of products Gx * Gy of exact 1D
cross-Gram entries G = int phi_a phi_b, and each stiffness entry one of
Sx * Gy + Gx * Sy with S = int phi_a' phi_b' (sum factorization).  The
tensor family is the single-product case.  The sums run in integers: every
1D table G, S is put over one common denominator D, each entry is a Python
int sum of signed products, and one `Fraction(sum, D^2)` is made per entry
at the end.

Global assembly builds M and L on one sparsity pattern.  The row and column
indices of every element entry come at once from the (elements x local)
array of global DOFs; under Dirichlet conditions the DOFs are first
renumbered to free positions and boundary entries dropped.  One COO to CSR
conversion then sorts and sums both matrices, packed as the real and
imaginary parts of one complex matrix.  Each part is summed in the order a
real conversion uses, so M and L are bit for bit those of two separate
conversions, and they share one `indices` and one `indptr` array.

Edge derivative DOFs are interpreted in reference-element units and are not
rescaled per element: on a uniform mesh both elements sharing an edge use
the same h, so the identification is consistent as is.

A tensor system on the unit square is separable.  Number the 1D DOFs of the
order-p basis on the N cells of [0, 1] along the line, so that function i
(0-based) of cell c is DOF c p + i; the 1D system has N p + 1 DOFs.  Every
2D DOF of the tensor space is the product of 1D DOF ix in x and 1D DOF iy
in y, and every pair (ix, iy) is one 2D DOF.  The element mass is (h/2)^2
G x G and the element stiffness S x G + G x S, for the 1D reference tables
G and S, while the 1D element matrices are (h/2) G and (2/h) S.  So, up to
the permutation (ix, iy), M = M1 (x) M1 and L = S1 (x) M1 + M1 (x) S1 in
exact arithmetic, with M1 and S1 the assembled 1D mass and stiffness.  The
2D boundary is the set of pairs with ix or iy at an end of the line, so a
Dirichlet system keeps exactly the pairs of free 1D DOFs: the 1D pencil
drops its two end vertices and nothing else.  `assemble` attaches that
1D pencil as the system's `LineFactor`; the eigensolver uses it, and the
assembled M and L stay the ones it checks against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm

import numpy as np
import scipy.sparse as sp

from .basis1d import generate_phi
from .basis2d import TENSOR, slot_factors
from .mesh import SQUARE, DofMap, Mesh

DIRICHLET = "dirichlet"
NEUMANN = "neumann"
BOUNDARY_CONDITIONS = (DIRICHLET, NEUMANN)


class EmptySystem(RuntimeError):
    """Dirichlet elimination removed every degree of freedom."""


@dataclass(frozen=True)
class LocalMatrices:
    """Exact rational mass/stiffness on the reference square.

    Rows/columns follow the slots of `basis2d.slot_factors`, in the grid
    order it fixes; they are the slots of the basis's `functions`.
    """

    family: str
    p: int
    slots: tuple[tuple[int, int], ...]
    mass_ref: tuple[tuple[Fraction, ...], ...]
    stiffness_ref: tuple[tuple[Fraction, ...], ...]

    @property
    def n(self) -> int:
        return len(self.slots)

    @cached_property
    def stiffness(self) -> np.ndarray:
        """Read-only float stiffness, rounded once from `stiffness_ref`; it
        holds for every element side h."""
        out = np.array([[float(v) for v in row] for row in self.stiffness_ref])
        out.flags.writeable = False
        return out

    @cached_property
    def mass_upper(self) -> tuple[tuple[int, int], ...]:
        """(numerator, denominator) of each entry of the upper triangle of
        `mass_ref`, row by row: `scale_to_element` divides these ints and
        reads no `Fraction` per call."""
        return tuple(
            (m.numerator, m.denominator) for r, row in enumerate(self.mass_ref) for m in row[r:]
        )


def _line_grams(
    orders: set[int],
) -> tuple[dict[tuple[int, int], int], list[list[int]], list[list[int]], int]:
    """Integer 1D cross-Gram tables of every `generate_phi` function of the
    given orders, over one common denominator.

    Returns (index, G, S, D): index[q, a] numbers function a of order q, and
    over [-1, 1], int phi_u phi_v = G[u][v] / D and int phi_u' phi_v' =
    S[u][v] / D.  Each phi is sum_k n_k x^k / c with integer n_k and one c
    for all of them, and int x^m = w_m / w for even m with w the lcm of the
    odd numbers up to 2 max(orders) + 1, so D = c^2 w.
    """
    index: dict[tuple[int, int], int] = {}
    funcs = []
    for q in orders:
        for a, f in enumerate(generate_phi(q), start=1):
            index[q, a] = len(funcs)
            funcs.append(f)
    c = lcm(*(v.denominator for f in funcs for v in f.values()))
    coeffs = [[(k, v.numerator * (c // v.denominator)) for k, v in f.items()] for f in funcs]
    top = 2 * max(orders)
    w = lcm(*range(1, top + 2, 2))
    moment = [2 * w // (m + 1) if m % 2 == 0 else 0 for m in range(top + 1)]

    n = len(coeffs)
    gram = [[0] * n for _ in range(n)]
    slope = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(u, n):
            g = s = 0
            for k, a in coeffs[u]:
                for l, b in coeffs[v]:
                    g += a * b * moment[k + l]
                    if k and l:
                        s += k * l * a * b * moment[k + l - 2]
            gram[u][v] = gram[v][u] = g
            slope[u][v] = slope[v][u] = s
    return index, gram, slope, c * c * w


@lru_cache(maxsize=None)
def reference_matrices(family: str, p: int) -> LocalMatrices:
    """Cached exact mass and stiffness Gram matrices of the family's order-p
    basis on [-1, 1]^2 (module docstring).

    Each entry is summed as a Python int over the 1D tables of `_line_grams`
    and becomes one `Fraction` over D^2 at the end, which reduces it to the
    same canonical value a rational sum would give.
    """
    factors = slot_factors(family, p)
    slots = tuple(factors)
    orders = {q for terms in factors.values() for _, (qx, _), (qy, _) in terms for q in (qx, qy)}
    index, gram, slope, D = _line_grams(orders)
    rows = [[(sign, index[x], index[y]) for sign, x, y in terms] for terms in factors.values()]

    k = len(slots)
    mass = [[Fraction(0)] * k for _ in range(k)]
    stiff = [[Fraction(0)] * k for _ in range(k)]
    for r in range(k):
        for c in range(r, k):
            m_rc = s_rc = 0
            for s1, x1, y1 in rows[r]:
                gx1, sx1, gy1, sy1 = gram[x1], slope[x1], gram[y1], slope[y1]
                for s2, x2, y2 in rows[c]:
                    gx, gy = gx1[x2], gy1[y2]
                    m_rc += s1 * s2 * gx * gy
                    s_rc += s1 * s2 * (sx1[x2] * gy + gx * sy1[y2])
            mass[r][c] = mass[c][r] = Fraction(m_rc, D * D)
            stiff[r][c] = stiff[c][r] = Fraction(s_rc, D * D)
    return LocalMatrices(family, p, slots, tuple(map(tuple, mass)), tuple(map(tuple, stiff)))


def scale_to_element(
    lm: LocalMatrices, h: Fraction | int
) -> tuple[np.ndarray, np.ndarray]:
    """Float (mass, stiffness) for a physical square of side h.

    Each mass entry a/b is scaled by (h/2)^2 = fn/fd and rounded once, as
    the integer true division (a fn) / (b fd); this equals
    float(Fraction(a, b) * (h/2)^2) bit for bit.  Only the upper triangle
    is divided, from the integer pairs cached in `lm.mass_upper`; the lower
    one is its mirror.  The stiffness is the read-only `lm.stiffness`,
    converted once per reference matrix.
    """
    h = Fraction(h)
    if h <= 0:
        raise ValueError("element side must be positive")
    factor = (h / 2) ** 2
    fn, fd = factor.numerator, factor.denominator
    # mass_ref is exactly symmetric: divide the upper triangle and mirror it
    upper = [(a * fn) / (b * fd) for a, b in lm.mass_upper]
    mass = np.empty((lm.n, lm.n))
    triangle = np.triu_indices(lm.n)
    mass[triangle] = upper
    mass.T[triangle] = upper
    return mass, lm.stiffness


@dataclass(frozen=True)
class LineFactor:
    """The free 1D pencil of a separable system (module docstring).

    `mass` and `stiffness` are the dense free 1D M1 and S1.  Free DOF k of
    the system is the product of 1D DOF `ix[k]` in x and 1D DOF `iy[k]` in
    y, numbered among the free 1D DOFs; in exact arithmetic M[k, l] =
    M1[ix_k, ix_l] M1[iy_k, iy_l] and L[k, l] = S1[ix_k, ix_l] M1[iy_k,
    iy_l] + M1[ix_k, ix_l] S1[iy_k, iy_l].
    """

    mass: np.ndarray
    stiffness: np.ndarray
    ix: np.ndarray
    iy: np.ndarray


@dataclass(frozen=True)
class GlobalSystem:
    """Assembled symmetric sparse pencil restricted to free DOFs.

    An assembled M and L share one index structure (`indices`, `indptr`),
    so neither may be changed in place: `assemble` makes their arrays, and
    those of the `LineFactor`, read-only, and an in-place change raises.
    A tensor system on the unit square is the Kronecker square of a 1D
    pencil up to a DOF permutation, under either boundary condition
    (Dirichlet keeps exactly the products of free 1D DOFs); `factor` then
    holds that pencil, and it is None otherwise.
    """

    M: sp.csr_matrix
    L: sp.csr_matrix
    factor: LineFactor | None = None

    @property
    def dimension(self) -> int:
        return self.M.shape[0]


def assemble(mesh: Mesh, dofmap: DofMap, lm: LocalMatrices, bc: str) -> GlobalSystem:
    """Accumulate element contributions and apply the boundary condition.

    Dirichlet removes every boundary DOF (values and edge derivatives
    alike); Neumann leaves the system untouched.  M and L come from one
    COO to CSR conversion on one pattern (module docstring).  A tensor
    system on the square also gets its `LineFactor`.  Every array of the
    result is read-only.
    """
    if bc not in BOUNDARY_CONDITIONS:
        raise ValueError(f"unknown boundary condition {bc!r}")
    if (dofmap.family, dofmap.p) != (lm.family, lm.p):
        raise ValueError("local matrices do not match the DOF map family/order")
    dofs = dofmap.element_dofs  # (elements, local) int32
    if bc == NEUMANN:
        free = np.arange(dofmap.total, dtype=np.int64)
    else:
        free = dofmap.free_dofs()
        if free.size == 0:
            raise EmptySystem(
                "no free DOFs remain after boundary elimination "
                f"({dofmap.family}, p={dofmap.p}, N={mesh.N}, {mesh.domain})"
            )
    factor = None
    if lm.family == TENSOR and mesh.domain == SQUARE:
        factor = _line_factor(mesh, dofs, free, lm, bc)
    if bc == DIRICHLET:
        position = np.full(dofmap.total, -1, dtype=np.int32)
        position[free] = np.arange(free.size, dtype=np.int32)
        dofs = position[dofs]

    mass_el, stiff_el = scale_to_element(lm, mesh.h)
    local = np.empty(lm.n * lm.n, dtype=complex)
    local.real, local.imag = mass_el.ravel(), stiff_el.ravel()
    # entry (a, b) of element e sits at [e, a n + b] of each array
    rows = np.repeat(dofs, lm.n, axis=1).ravel()
    cols = np.tile(dofs, lm.n).ravel()
    data = np.tile(local, mesh.n_elements)
    if bc == DIRICHLET:
        kept = (rows >= 0) & (cols >= 0)
        rows, cols, data = rows[kept], cols[kept], data[kept]
    size = free.size
    both = sp.coo_matrix((data, (rows, cols)), shape=(size, size))
    del rows, cols, data
    both = both.tocsr()
    # a compact copy: the summed indices are a view of the unsummed ones
    pattern = (both.indices.copy(), both.indptr)
    M = sp.csr_matrix((np.ascontiguousarray(both.data.real), *pattern), shape=(size, size))
    L = sp.csr_matrix((np.ascontiguousarray(both.data.imag), *pattern), shape=(size, size))
    frozen = [M.data, L.data, *pattern]
    if factor is not None:
        frozen += [factor.mass, factor.stiffness, factor.ix, factor.iy]
    for array in frozen:
        array.flags.writeable = False
    return GlobalSystem(M, L, factor)


def _line_factor(
    mesh: Mesh, dofs: np.ndarray, free: np.ndarray, lm: LocalMatrices, bc: str
) -> LineFactor:
    """The free 1D pencil of a tensor system on the square and the 1D
    indices of its free DOFs (module docstring).

    1D function i of cell c is DOF c p + i, so local slot (i, j) of the
    element at cell (cx, cy), 1-based, is the product of 1D DOFs
    cx p + i - 1 and cy p + j - 1.  The integer 1D tables (G, S, D) are
    `_line_grams({p})`, whose rows are phi_1 .. phi_(p+1) in order, and
    each entry of the 1D element matrices is rounded once from them:
    (h/2) G / D and (2/h) S / D.
    """
    p, N = lm.p, mesh.N
    _, gram, slope, D = _line_grams({p})
    half = mesh.h / 2
    fn, fd = half.numerator, half.denominator
    mass_el = np.array([[(g * fn) / (D * fd) for g in row] for row in gram])
    stiff_el = np.array([[(s * fd) / (D * fn) for s in row] for row in slope])
    size = N * p + 1
    mass, stiffness = np.zeros((size, size)), np.zeros((size, size))
    for c in range(N):
        block = slice(c * p, c * p + p + 1)
        mass[block, block] += mass_el
        stiffness[block, block] += stiff_el

    cells = mesh.cells * p
    slots = np.array(lm.slots) - 1
    line_x, line_y = np.empty((2, dofs.max() + 1), dtype=np.int64)
    line_x[dofs] = cells[:, :1] + slots[:, 0]
    line_y[dofs] = cells[:, 1:] + slots[:, 1]
    ix, iy = line_x[free], line_y[free]
    if bc == DIRICHLET:
        # the free DOFs are the pairs of 1D DOFs 1 .. size - 2
        inner = slice(1, -1)
        return LineFactor(mass[inner, inner], stiffness[inner, inner], ix - 1, iy - 1)
    return LineFactor(mass, stiffness, ix, iy)


def write_matrix_coo(matrix: sp.spmatrix, path) -> None:
    """Coordinate-format text dump: row, col, value with 17 significant digits.

    Each stored entry gets one line, exact zeros included: an assembled M
    and L keep the union of full element blocks, so at p = 6 a quarter to
    a half of their lines read 0.
    """
    coo = matrix.tocoo()
    with open(path, "w", encoding="utf-8") as fh:
        for r, c, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{r} {c} {v:.17g}\n")
