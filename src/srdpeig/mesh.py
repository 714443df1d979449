"""Uniform square meshes of the unit square and L-shaped domain.

Vertices sit on the integer grid scaled by h = 1/N; the unit square covers
[0, 1]^2 with N^2 cells and the L-shape covers [0, 2]^2 minus the open
top-right unit square with 3 N^2 cells.  Edges are oriented canonically
(left to right, bottom to top) so that two elements sharing an edge always
agree on its parameter direction, and element maps are translations plus a
single uniform scaling.  Boundary entities are detected topologically: an
edge is boundary when it has exactly one incident element.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .basis2d import (
    EDGE,
    INTERIOR,
    SERENDIPITY,
    TENSOR,
    VERTEX,
    BasisArray,
    classify_slot,
    serendipity_basis,
    serendipity_interior_count,
    slot_factors,
    tensor_basis,
)

SQUARE = "square"
LSHAPE = "lshape"
DOMAINS = (SQUARE, LSHAPE)


@dataclass(frozen=True)
class Edge:
    """Oriented mesh edge between vertex ids (v0 -> v1)."""

    v0: int
    v1: int
    orientation: str  # 'h' (left->right) or 'v' (bottom->top)


@dataclass(frozen=True)
class Element:
    """Axis-aligned square cell with corner vertex ids and side edge ids."""

    index: int
    cell: tuple[int, int]  # grid position of the bottom-left corner
    vertices: dict[tuple[int, int], int]  # (sx, sy) in {-1,+1}^2 -> vertex id
    edges: dict[str, int]  # side name -> edge id
    origin: tuple[Fraction, Fraction]  # bottom-left corner coordinates


@dataclass(frozen=True)
class Mesh:
    domain: str
    N: int
    h: Fraction
    vertices: list[tuple[Fraction, Fraction]]
    edges: list[Edge]
    elements: list[Element]
    boundary_vertices: list[bool]
    boundary_edges: list[bool]

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_elements(self) -> int:
        return len(self.elements)


def _cells(domain: str, N: int) -> list[tuple[int, int]]:
    if domain == SQUARE:
        return [(cx, cy) for cy in range(N) for cx in range(N)]
    if domain == LSHAPE:
        return [
            (cx, cy)
            for cy in range(2 * N)
            for cx in range(2 * N)
            if not (cx >= N and cy >= N)
        ]
    raise ValueError(f"unknown domain {domain!r}; expected one of {DOMAINS}")


def build_mesh(domain: str, N: int) -> Mesh:
    """Uniform mesh with spacing h = 1/N over the requested domain."""
    if N < 1:
        raise ValueError("N must be >= 1")
    h = Fraction(1, N)
    cells = _cells(domain, N)

    vertex_ids: dict[tuple[int, int], int] = {}
    corner_offsets = ((0, 0), (1, 0), (0, 1), (1, 1))
    for key in sorted(
        {(cx + dx, cy + dy) for cx, cy in cells for dx, dy in corner_offsets},
        key=lambda t: (t[1], t[0]),
    ):
        vertex_ids[key] = len(vertex_ids)

    # Edge keys: (orientation, ix, iy) of the left/bottom endpoint.
    incident: dict[tuple[str, int, int], int] = {}
    for cx, cy in cells:
        for key in (
            ("h", cx, cy),
            ("h", cx, cy + 1),
            ("v", cx, cy),
            ("v", cx + 1, cy),
        ):
            incident[key] = incident.get(key, 0) + 1
    edge_ids: dict[tuple[str, int, int], int] = {}
    edges: list[Edge] = []
    boundary_edges: list[bool] = []
    for key in sorted(incident, key=lambda t: (t[2], t[1], t[0])):
        orient, ix, iy = key
        other = (ix + 1, iy) if orient == "h" else (ix, iy + 1)
        edge_ids[key] = len(edges)
        edges.append(Edge(vertex_ids[(ix, iy)], vertex_ids[other], orient))
        boundary_edges.append(incident[key] == 1)

    elements = []
    for idx, (cx, cy) in enumerate(cells):
        elements.append(
            Element(
                index=idx,
                cell=(cx, cy),
                vertices={
                    (-1, -1): vertex_ids[(cx, cy)],
                    (1, -1): vertex_ids[(cx + 1, cy)],
                    (-1, 1): vertex_ids[(cx, cy + 1)],
                    (1, 1): vertex_ids[(cx + 1, cy + 1)],
                },
                edges={
                    "bottom": edge_ids[("h", cx, cy)],
                    "top": edge_ids[("h", cx, cy + 1)],
                    "left": edge_ids[("v", cx, cy)],
                    "right": edge_ids[("v", cx + 1, cy)],
                },
                origin=(cx * h, cy * h),
            )
        )

    boundary_vertices = [False] * len(vertex_ids)
    for edge, is_bdry in zip(edges, boundary_edges):
        if is_bdry:
            boundary_vertices[edge.v0] = True
            boundary_vertices[edge.v1] = True

    coords = [
        (Fraction(ix) * h, Fraction(iy) * h)
        for (ix, iy) in sorted(vertex_ids, key=vertex_ids.get)
    ]
    return Mesh(domain, N, h, coords, edges, elements, boundary_vertices, boundary_edges)


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
    grouped by element in slot grid order.  `element_dofs[e][a]` is the
    global index of local slot `local_slots[a]` on element e.
    """

    family: str
    p: int
    total: int
    local_slots: list[tuple[int, int]]
    element_dofs: list[list[int]]
    _boundary: np.ndarray = field(repr=False)

    def free_dofs(self) -> np.ndarray:
        """Ascending global indices of the DOFs not on the boundary."""
        free = np.ones(self.total, dtype=bool)
        free[self._boundary] = False
        return np.flatnonzero(free)


def dof_totals(mesh: Mesh, family: str, p: int) -> int:
    """Closed-form DOF count: V + (p-1) E + (per-element interior) F."""
    per_interior = (p - 1) ** 2 if family == TENSOR else serendipity_interior_count(p)
    return mesh.n_vertices + (p - 1) * mesh.n_edges + per_interior * mesh.n_elements


def build_dof_map(mesh: Mesh, family: str, p: int) -> DofMap:
    """Number the global DOFs of the family/order on the given mesh."""
    if p < 1:
        raise ValueError("order must be >= 1")
    local_slots = sorted(slot_factors(family, p))
    classified = [(slot, classify_slot(slot, p)) for slot in local_slots]

    n_vert = mesh.n_vertices
    edge_base = n_vert
    n_edge_dofs = (p - 1) * mesh.n_edges
    interior_base = edge_base + n_edge_dofs
    interior_slots = [slot for slot, kind in classified if kind.kind == INTERIOR]
    n_int = len(interior_slots)
    interior_ordinal = {slot: a for a, slot in enumerate(interior_slots)}

    element_dofs: list[list[int]] = []
    for element in mesh.elements:
        dofs = []
        for slot, kind in classified:
            if kind.kind == VERTEX:
                dofs.append(element.vertices[kind.corner])
            elif kind.kind == EDGE:
                edge_id = element.edges[kind.side]
                dofs.append(edge_base + edge_id * (p - 1) + kind.k)
            else:
                dofs.append(
                    interior_base + element.index * n_int + interior_ordinal[slot]
                )
        element_dofs.append(dofs)

    total = interior_base + n_int * mesh.n_elements
    assert total == dof_totals(mesh, family, p)

    boundary = [v for v in range(n_vert) if mesh.boundary_vertices[v]]
    for e in range(mesh.n_edges):
        if mesh.boundary_edges[e]:
            boundary.extend(edge_base + e * (p - 1) + k for k in range(p - 1))
    return DofMap(
        family,
        p,
        total,
        local_slots,
        element_dofs,
        np.array(sorted(boundary), dtype=np.int64),
    )


def dump_mesh_text(mesh: Mesh) -> str:
    """Plain-text entity listing with coordinates and boundary flags."""
    lines = [
        f"domain {mesh.domain}  N {mesh.N}  h {mesh.h}",
        f"vertices {mesh.n_vertices}  edges {mesh.n_edges}  elements {mesh.n_elements}",
        "# vertices: id x y boundary",
    ]
    for v, (x, y) in enumerate(mesh.vertices):
        lines.append(f"vertex {v} {x} {y} {int(mesh.boundary_vertices[v])}")
    lines.append("# edges: id v0 v1 orientation boundary")
    for e, edge in enumerate(mesh.edges):
        lines.append(
            f"edge {e} {edge.v0} {edge.v1} {edge.orientation} {int(mesh.boundary_edges[e])}"
        )
    lines.append("# elements: id cx cy x0 y0 h")
    for element in mesh.elements:
        x0, y0 = element.origin
        lines.append(
            f"element {element.index} {element.cell[0]} {element.cell[1]} {x0} {y0} {mesh.h}"
        )
    return "\n".join(lines) + "\n"
