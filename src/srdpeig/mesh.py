"""Uniform square meshes of the unit square and L-shaped domain.

Vertices sit on the integer grid scaled by h = 1/N; the unit square covers
[0, 1]^2 with N^2 cells and the L-shape covers [0, 2]^2 minus the open
top-right unit square with 3 N^2 cells.  Edges are oriented canonically
(left to right, bottom to top) so that two elements sharing an edge always
agree on its parameter direction, and element maps are translations plus a
single uniform scaling.  Boundary entities are detected topologically: an
edge is boundary when it has exactly one incident element, and a vertex
when it ends a boundary edge.

A mesh is a set of integer arrays computed by grid arithmetic, with no
object per entity.  Cells and vertices are numbered by their grid point
(iy, ix) in row-major order, and edges by the (iy, ix) of their left or
bottom end, the horizontal edge before the vertical one.  Each element
lists its vertex ids in `CORNERS` order (bottom-left, bottom-right,
top-left, top-right) and its edge ids in `SIDES` order (left, right,
bottom, top).  The DOF map is one (elements x local) array gathered from
the same arrays by `slot_rule`, which gives each local slot a column of
that table and an offset, once per family and order; `dof_totals` reads
its interior count, and `basis2d.slot_factors` fixes the slot order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .basis2d import (
    SERENDIPITY,
    TENSOR,
    BasisArray,
    serendipity_basis,
    slot_factors,
    tensor_basis,
)

SQUARE = "square"
LSHAPE = "lshape"
DOMAINS = (SQUARE, LSHAPE)

#: Corner (sx, sy) of each column of `Mesh.element_vertices`.
CORNERS = ((-1, -1), (1, -1), (-1, 1), (1, 1))
#: Side of each column of `Mesh.element_edges`.
SIDES = ("left", "right", "bottom", "top")
# grid offset (dx, dy) of each corner from an element's bottom-left corner
_CORNER_DX, _CORNER_DY = (np.array(CORNERS).T + 1) // 2
# (dx, dy, vertical) of the edge on each side, in SIDES order: it starts at
# grid offset (dx, dy) from the bottom-left corner
_SIDE_DX, _SIDE_DY, _SIDE_VERTICAL = np.array([(0, 0, 1), (1, 0, 1), (0, 0, 0), (0, 1, 0)]).T


@dataclass(frozen=True)
class Mesh:
    """Integer arrays of a uniform mesh of side h (module docstring).

    `vertices` (V x 2) holds the grid point (ix, iy) of each vertex, which
    sits at (ix h, iy h).  `cells` (E x 2) holds the grid point (cx, cy) of
    each element's bottom-left corner; `element_vertices` (E x 4) its vertex
    ids in `CORNERS` order (bottom-left, bottom-right, top-left, top-right),
    and `element_edges` (E x 4) its edge ids in `SIDES` order (left, right,
    bottom, top).  `edges` (edges x 2) holds the vertex ids (v0, v1) of each
    edge, v0 to the left of or below v1, numbered by the (iy, ix) of v0 with
    the horizontal edge first; `vertical` says which edges run bottom to
    top.  `boundary_vertices` and `boundary_edges` are boolean masks.
    """

    domain: str
    N: int
    h: Fraction
    vertices: np.ndarray
    cells: np.ndarray
    element_vertices: np.ndarray
    element_edges: np.ndarray
    edges: np.ndarray
    vertical: np.ndarray
    boundary_vertices: np.ndarray
    boundary_edges: np.ndarray

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_elements(self) -> int:
        return len(self.cells)


def build_mesh(domain: str, N: int) -> Mesh:
    """Uniform mesh with spacing h = 1/N over the requested domain."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if domain == SQUARE:
        present = np.ones((N, N), dtype=np.int8)
    elif domain == LSHAPE:
        present = np.ones((2 * N, 2 * N), dtype=np.int8)
        present[N:, N:] = 0
    else:
        raise ValueError(f"unknown domain {domain!r}; expected one of {DOMAINS}")
    # present[cy, cx] marks the cell with bottom-left corner (cx, cy).  Padded
    # by one, it gives the four cells around every grid point (ix, iy), each
    # indexed [iy, ix]: ne is cell (ix, iy), nw (ix - 1, iy), se (ix, iy - 1)
    # and sw (ix - 1, iy - 1)
    pad = np.pad(present, 1)
    ne, nw, se, sw = pad[1:, 1:], pad[1:, :-1], pad[:-1, 1:], pad[:-1, :-1]
    occupied = (ne | nw | se | sw).astype(bool)
    vertex_id = np.cumsum(occupied).reshape(occupied.shape) - 1
    # incident[iy, ix] counts the elements on the horizontal and on the
    # vertical edge that start at (ix, iy); its row-major order is the edge
    # numbering
    incident = np.stack([ne + se, ne + nw], axis=-1)
    edge_id = np.cumsum(incident > 0).reshape(incident.shape) - 1

    iy, ix, vertical = np.nonzero(incident)
    edges = np.stack([vertex_id[iy, ix], vertex_id[iy + vertical, ix + 1 - vertical]], axis=1)
    boundary_edges = incident[iy, ix, vertical] == 1
    boundary_vertices = np.zeros(occupied.sum(), dtype=bool)
    boundary_vertices[edges[boundary_edges]] = True

    cells = np.argwhere(present)[:, ::-1]
    cx, cy = cells[:, :1], cells[:, 1:]
    return Mesh(
        domain,
        N,
        Fraction(1, N),
        np.argwhere(occupied)[:, ::-1],
        cells,
        vertex_id[cy + _CORNER_DY, cx + _CORNER_DX],
        edge_id[cy + _SIDE_DY, cx + _SIDE_DX, _SIDE_VERTICAL],
        edges,
        vertical.astype(bool),
        boundary_vertices,
        boundary_edges,
    )


def reference_basis(family: str, p: int) -> BasisArray:
    """Basis array for the requested element family."""
    if family == TENSOR:
        return tensor_basis(p)
    if family == SERENDIPITY:
        return serendipity_basis(p)
    raise ValueError(f"unknown family {family!r}")


@dataclass(frozen=True)
class DofMap:
    """Global numbering of vertex, edge, and interior degrees of freedom.

    Numbering order: one DOF per vertex, then p-1 DOFs per edge (grouped by
    edge, ordered by functional order k = 0..p-2), then interior DOFs
    grouped by element in slot grid order.  `element_dofs` is one
    (elements x local) int32 array: entry [e, a] is the global index of
    local slot `local_slots[a]` on element e.
    """

    family: str
    p: int
    total: int
    local_slots: list[tuple[int, int]]
    element_dofs: np.ndarray
    _boundary: np.ndarray = field(repr=False)

    def free_dofs(self) -> np.ndarray:
        """Ascending global indices of the DOFs not on the boundary."""
        free = np.ones(self.total, dtype=bool)
        free[self._boundary] = False
        return np.flatnonzero(free)


def dof_totals(mesh: Mesh, family: str, p: int) -> int:
    """DOF count V + (p-1) E + F times the interior count of `slot_rule`,
    which raises ValueError for an unknown family or p < 1."""
    n_interior = slot_rule(family, p)[3]
    return mesh.n_vertices + (p - 1) * mesh.n_edges + n_interior * mesh.n_elements


@lru_cache(maxsize=None)
def slot_rule(
    family: str, p: int
) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...], tuple[int, ...], int]:
    """Where each local slot of the order-p family finds its global DOF.

    Returns (slots, column, offset, n_interior).  `slots` are the slots of
    `basis2d.slot_factors`, in the grid order it fixes; slot a reads column
    `column[a]` of an element's table of first DOFs plus `offset[a]`.
    Columns 0-3 are the vertices in `CORNERS` order, 4-7 DOF 0 of the edges
    in `SIDES` order, and 8 the element's first interior DOF.  With the
    ends 1 and p + 1, slot (i, j) is a vertex when i and j are both ends, a
    left/right edge DOF of order j - 2 when only i is, a bottom/top edge DOF
    of order i - 2 when only j is, and otherwise the next of the n_interior
    interior DOFs in slot order.  `dof_totals` reads n_interior.
    """
    slots = tuple(slot_factors(family, p))
    ends = (1, p + 1)
    rule = []
    n_interior = 0
    for i, j in slots:
        if i in ends and j in ends:
            rule.append(((i == p + 1) + 2 * (j == p + 1), 0))
        elif i in ends:
            rule.append((4 + (i == p + 1), j - 2))
        elif j in ends:
            rule.append((6 + (j == p + 1), i - 2))
        else:
            rule.append((8, n_interior))
            n_interior += 1
    column, offset = zip(*rule)
    return slots, column, offset, n_interior


def build_dof_map(mesh: Mesh, family: str, p: int) -> DofMap:
    """Number the global DOFs of the family/order on the given mesh.

    `element_dofs` is one gather of the (elements x 9) table of first DOFs
    (the vertex at each corner, DOF 0 of the edge on each side, the
    element's first interior DOF) at the columns and offsets of the cached
    `slot_rule`; the total is `dof_totals`.
    """
    local_slots, column, offset, n_int = slot_rule(family, p)
    n_vert, n_el = mesh.n_vertices, mesh.n_elements
    interior_base = n_vert + (p - 1) * mesh.n_edges
    first = np.concatenate(
        [
            mesh.element_vertices,
            n_vert + (p - 1) * mesh.element_edges,
            interior_base + n_int * np.arange(n_el)[:, None],
        ],
        axis=1,
    )
    dofs = (first[:, column] + offset).astype(np.int32)

    edge_dofs = n_vert + (p - 1) * np.flatnonzero(mesh.boundary_edges)[:, None] + np.arange(p - 1)
    boundary = np.concatenate([np.flatnonzero(mesh.boundary_vertices), edge_dofs.ravel()])
    return DofMap(family, p, dof_totals(mesh, family, p), list(local_slots), dofs, boundary)


def dump_mesh_text(mesh: Mesh) -> str:
    """Plain-text entity listing with coordinates and boundary flags."""
    N, h = mesh.N, mesh.h
    lines = [
        f"domain {mesh.domain}  N {N}  h {h}",
        f"vertices {mesh.n_vertices}  edges {mesh.n_edges}  elements {mesh.n_elements}",
        "# vertices: id x y boundary",
    ]
    for v, ((ix, iy), b) in enumerate(
        zip(mesh.vertices.tolist(), mesh.boundary_vertices.tolist())
    ):
        lines.append(f"vertex {v} {Fraction(ix, N)} {Fraction(iy, N)} {int(b)}")
    lines.append("# edges: id v0 v1 orientation boundary")
    for e, ((v0, v1), vertical, b) in enumerate(
        zip(mesh.edges.tolist(), mesh.vertical.tolist(), mesh.boundary_edges.tolist())
    ):
        lines.append(f"edge {e} {v0} {v1} {'v' if vertical else 'h'} {int(b)}")
    lines.append("# elements: id cx cy x0 y0 h")
    for e, (cx, cy) in enumerate(mesh.cells.tolist()):
        lines.append(f"element {e} {cx} {cy} {Fraction(cx, N)} {Fraction(cy, N)} {h}")
    return "\n".join(lines) + "\n"
