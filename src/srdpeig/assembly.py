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
tensor family is the single-product case.

Edge derivative DOFs are interpreted in reference-element units and are not
rescaled per element: on a uniform mesh both elements sharing an edge use
the same h, so the identification is consistent as is.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp

from .basis1d import generate_phi
from .basis2d import slot_factors
from .mesh import DofMap, Mesh
from .polynomial import Polynomial

DIRICHLET = "dirichlet"
NEUMANN = "neumann"
BOUNDARY_CONDITIONS = (DIRICHLET, NEUMANN)


class EmptySystem(RuntimeError):
    """Dirichlet elimination removed every degree of freedom."""


@dataclass(frozen=True)
class LocalMatrices:
    """Exact rational mass/stiffness on the reference square.

    Rows/columns follow the slots of `basis2d.slot_factors` in grid order,
    which are the nonzero slots of the basis array.
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


@lru_cache(maxsize=None)
def reference_matrices(family: str, p: int) -> LocalMatrices:
    """Cached exact mass and stiffness Gram matrices of the family's order-p
    basis on [-1, 1]^2, built from 1D cross-Gram entries (module docstring)."""
    factors = slot_factors(family, p)
    slots = tuple(sorted(factors))

    @lru_cache(maxsize=None)
    def phi(order: int) -> tuple[tuple[Polynomial, ...], tuple[Polynomial, ...]]:
        funcs = generate_phi(order).functions
        return funcs, tuple(f.derivative("x") for f in funcs)

    @lru_cache(maxsize=None)
    def line(u: tuple[int, int], v: tuple[int, int]) -> tuple[Fraction, Fraction]:
        # (int phi_u phi_v, int phi_u' phi_v') over [-1, 1]; the box integral
        # of a function of x alone is twice its line integral.
        (fu, dfu), (fv, dfv) = phi(u[0]), phi(v[0])
        a, b = u[1] - 1, v[1] - 1
        return (
            (fu[a] * fv[b]).integrate_box() / 2,
            (dfu[a] * dfv[b]).integrate_box() / 2,
        )

    k = len(slots)
    mass = [[Fraction(0)] * k for _ in range(k)]
    stiff = [[Fraction(0)] * k for _ in range(k)]
    for r in range(k):
        for c in range(r, k):
            m_rc = s_rc = Fraction(0)
            for s1, x1, y1 in factors[slots[r]]:
                for s2, x2, y2 in factors[slots[c]]:
                    gx, sx = line(x1, x2)
                    gy, sy = line(y1, y2)
                    sign = s1 * s2
                    m_rc += sign * gx * gy
                    s_rc += sign * (sx * gy + gx * sy)
            mass[r][c] = mass[c][r] = m_rc
            stiff[r][c] = stiff[c][r] = s_rc
    return LocalMatrices(
        family, p, slots, tuple(map(tuple, mass)), tuple(map(tuple, stiff))
    )


def scale_to_element(
    lm: LocalMatrices, h: Fraction | int
) -> tuple[np.ndarray, np.ndarray]:
    """Float (mass, stiffness) for a physical square of side h.

    Each mass entry a/b is scaled by (h/2)^2 = fn/fd and rounded once, as
    the integer true division (a fn) / (b fd); this equals
    float(Fraction(a, b) * (h/2)^2) bit for bit.  The stiffness is the
    read-only `lm.stiffness`, converted once per reference matrix.
    """
    h = Fraction(h)
    if h <= 0:
        raise ValueError("element side must be positive")
    factor = (h / 2) ** 2
    fn, fd = factor.numerator, factor.denominator
    mass = np.array(
        [[(m.numerator * fn) / (m.denominator * fd) for m in row] for row in lm.mass_ref]
    )
    return mass, lm.stiffness


@dataclass(frozen=True)
class GlobalSystem:
    """Assembled symmetric sparse pencil restricted to free DOFs.

    `free[i]` maps row/column i back to the DofMap's global index.
    """

    M: sp.csr_matrix
    L: sp.csr_matrix
    free: np.ndarray

    @property
    def dimension(self) -> int:
        return self.M.shape[0]


def assemble(mesh: Mesh, dofmap: DofMap, lm: LocalMatrices, bc: str) -> GlobalSystem:
    """Accumulate element contributions and apply the boundary condition.

    Dirichlet removes every boundary DOF (values and edge derivatives
    alike); Neumann leaves the system untouched.
    """
    if bc not in BOUNDARY_CONDITIONS:
        raise ValueError(f"unknown boundary condition {bc!r}")
    if (dofmap.family, dofmap.p) != (lm.family, lm.p):
        raise ValueError("local matrices do not match the DOF map family/order")
    mass_el, stiff_el = scale_to_element(lm, mesh.h)
    n = lm.n
    total = dofmap.total

    rows = []
    cols = []
    for gdofs in dofmap.element_dofs:
        idx = np.asarray(gdofs, dtype=np.int64)
        rows.append(np.repeat(idx, n))
        cols.append(np.tile(idx, n))
    row_idx = np.concatenate(rows)
    col_idx = np.concatenate(cols)
    n_el = mesh.n_elements
    mass_data = np.tile(mass_el.ravel(), n_el)
    stiff_data = np.tile(stiff_el.ravel(), n_el)

    M = sp.coo_matrix((mass_data, (row_idx, col_idx)), shape=(total, total)).tocsr()
    L = sp.coo_matrix((stiff_data, (row_idx, col_idx)), shape=(total, total)).tocsr()

    if bc == NEUMANN:
        free = np.arange(total, dtype=np.int64)
    else:
        free = dofmap.free_dofs()
        if free.size == 0:
            raise EmptySystem(
                "no free DOFs remain after boundary elimination "
                f"({dofmap.family}, p={dofmap.p}, N={mesh.N}, {mesh.domain})"
            )
        M = M[free][:, free]
        L = L[free][:, free]
    return GlobalSystem(M, L, free)


def write_matrix_coo(matrix: sp.spmatrix, path) -> None:
    """Coordinate-format text dump: row, col, value with 17 significant digits."""
    coo = matrix.tocoo()
    with open(path, "w", encoding="utf-8") as fh:
        for r, c, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{r} {c} {v:.17g}\n")
