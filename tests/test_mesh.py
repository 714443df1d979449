"""Mesh construction, entity counts, boundary detection, and DOF numbering."""

import hashlib

import numpy as np
import pytest

from srdpeig.mesh import (
    CORNERS,
    SIDES,
    build_dof_map,
    build_mesh,
    dof_totals,
    dump_mesh_text,
    slot_rule,
)


# SHA-256 of `dump_mesh_text` per (domain, N)
DUMP_SHA256 = {
    ("square", 1): "dafc59e18b3c5e2b910a16f3e5e969e5201bfa30a0b9d80f3d0ee14b5a858a67",
    ("square", 2): "a19793c1ece39789e1da2727e481d46e66dd123e5e66a82ee6b7de72bcfea6c5",
    ("square", 3): "cee9f1650fbf4d9fab6cc859790f603f61eb9d822beb380fdff03b5169ff92df",
    ("square", 4): "b58543d294b7bf48432bca2a0729df230c495c0b875f3f6fb01b3c40cc45ceef",
    ("square", 5): "4494b35bec94c7aaa69823dc636efbb2aa3f242488f8e0b0c6c70754a3c34a83",
    ("lshape", 1): "993b3ce6f55db783217a4d11aa82e6ae1878f98c258dbc1ee394eedbe4405b8b",
    ("lshape", 2): "ccec1ea991949a9e8c5d3d6430f8071344098d93b8e61164a79eda98a6074ddc",
    ("lshape", 3): "baefe8021e19ef8e9cf0a7708acc3d740c1a492321439e317c4a0c5cd03e7565",
    ("lshape", 4): "0c061186d761852019757af9f2a4a3302034511a4ade57b0c9882b778b92222a",
    ("lshape", 5): "21ecce9e032b9963c1495e5e142c3a0eb852e61833b4475aeaa7963e3eb0eee0",
}

# SHA-256 per (domain, family) of the numbering for p = 1..8, N = 1..5 in
# that order: for each map, the little-endian int64 bytes of (total,
# elements, local), then of `element_dofs`, then of the boundary indices
NUMBERING_SHA256 = {
    ("square", "tensor"): "c2d3f94c43237ee5af15a504c8c9eda128b3fdabba1d6f8969d01f6bfd5d894e",
    ("square", "serendipity"): "6d48207a50533d29fb157523d77e6518d839d93ac5dbf552166982142df0ef39",
    ("lshape", "tensor"): "102460994193c992dd881c77913cb9cff657a2546fb541fd45e9446605fccd16",
    ("lshape", "serendipity"): "77af20570f8a05f4dee3a5c329c4213ffc9dfdcc61c1b89fa69d31cbbf9275a3",
}


class TestPinned:
    """The mesh listing and the DOF numbering, byte for byte."""

    @pytest.mark.parametrize("domain, N", sorted(DUMP_SHA256))
    def test_dump_bytes(self, domain, N):
        text = dump_mesh_text(build_mesh(domain, N))
        assert hashlib.sha256(text.encode()).hexdigest() == DUMP_SHA256[domain, N]

    @pytest.mark.parametrize("domain, family", sorted(NUMBERING_SHA256))
    def test_numbering(self, domain, family):
        digest = hashlib.sha256()
        for p in range(1, 9):
            for N in range(1, 6):
                dm = build_dof_map(build_mesh(domain, N), family, p)
                dofs = np.asarray(dm.element_dofs, dtype="<i8")
                boundary = np.setdiff1d(np.arange(dm.total), dm.free_dofs())
                digest.update(np.array([dm.total, *dofs.shape], dtype="<i8").tobytes())
                digest.update(dofs.tobytes())
                digest.update(boundary.astype("<i8").tobytes())
        assert digest.hexdigest() == NUMBERING_SHA256[domain, family]


class TestEntityCounts:
    def test_square_n2(self):
        mesh = build_mesh("square", 2)
        assert (mesh.n_vertices, mesh.n_edges, mesh.n_elements) == (9, 12, 4)

    def test_lshape_n1(self):
        mesh = build_mesh("lshape", 1)
        assert (mesh.n_vertices, mesh.n_edges, mesh.n_elements) == (8, 10, 3)

    @pytest.mark.parametrize("N", range(1, 6))
    def test_lshape_closed_forms(self, N):
        mesh = build_mesh("lshape", N)
        assert mesh.n_vertices == 3 * N * N + 4 * N + 1
        assert mesh.n_edges == 6 * N * N + 4 * N
        assert mesh.n_elements == 3 * N * N

    @pytest.mark.parametrize("domain", ["square", "lshape"])
    @pytest.mark.parametrize("N", range(1, 6))
    def test_euler_relation(self, domain, N):
        mesh = build_mesh(domain, N)
        assert mesh.n_vertices - mesh.n_edges + mesh.n_elements == 1

    def test_unknown_domain(self):
        with pytest.raises(ValueError):
            build_mesh("triangle", 2)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            build_mesh("square", 0)


class TestDeduplication:
    @pytest.mark.parametrize("domain", ["square", "lshape"])
    def test_unique_entities(self, domain):
        mesh = build_mesh(domain, 3)
        assert len(set(map(tuple, mesh.vertices.tolist()))) == mesh.n_vertices
        pairs = set(map(tuple, mesh.edges.tolist()))
        assert len(pairs) == mesh.n_edges

    def test_canonical_orientation(self):
        mesh = build_mesh("lshape", 2)
        for (v0, v1), vertical in zip(mesh.edges, mesh.vertical):
            x0, y0 = mesh.vertices[v0]
            x1, y1 = mesh.vertices[v1]
            if not vertical:
                assert x1 == x0 + 1 and y1 == y0
            else:
                assert y1 == y0 + 1 and x1 == x0

    @pytest.mark.parametrize("domain", ["square", "lshape"])
    def test_elements_match_their_grid_cell(self, domain):
        # corners in CORNERS order, sides in SIDES order, and each side's
        # edge runs between its two corners
        mesh = build_mesh(domain, 3)
        ends = {"left": [0, 2], "right": [1, 3], "bottom": [0, 1], "top": [2, 3]}
        for cell, vertex_ids, edge_ids in zip(
            mesh.cells, mesh.element_vertices, mesh.element_edges
        ):
            corners = cell + (np.array(CORNERS) + 1) // 2
            assert np.array_equal(mesh.vertices[vertex_ids], corners)
            for side, e in zip(SIDES, edge_ids):
                assert np.array_equal(mesh.edges[e], vertex_ids[ends[side]])
                assert mesh.vertical[e] == (side in ("left", "right"))


class TestBoundary:
    def test_square_n1_all_vertices_boundary(self):
        mesh = build_mesh("square", 1)
        assert all(mesh.boundary_vertices)

    def test_square_n2_center_interior(self):
        mesh = build_mesh("square", 2)
        assert sum(mesh.boundary_vertices) == 8

    def test_lshape_reentrant_corner_is_boundary(self):
        mesh = build_mesh("lshape", 2)
        corner = [
            v
            for v, (ix, iy) in enumerate(mesh.vertices.tolist())
            if ix * mesh.h == 1 and iy * mesh.h == 1
        ]
        assert len(corner) == 1
        assert mesh.boundary_vertices[corner[0]]

    @pytest.mark.parametrize("domain", ["square", "lshape"])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_boundary_edges_have_one_element(self, domain, N):
        mesh = build_mesh(domain, N)
        incidence = np.bincount(mesh.element_edges.ravel(), minlength=mesh.n_edges)
        assert set(incidence.tolist()) <= {1, 2}
        assert np.array_equal(mesh.boundary_edges, incidence == 1)
        ends = np.zeros(mesh.n_vertices, dtype=bool)
        ends[mesh.edges[mesh.boundary_edges]] = True
        assert np.array_equal(mesh.boundary_vertices, ends)

    def test_square_n2_p3_boundary_dof_count(self):
        mesh = build_mesh("square", 2)
        dm = build_dof_map(mesh, "tensor", 3)
        assert dm.total == 9 + 2 * 12 + 4 * 4 == 49
        assert dm.total - len(dm.free_dofs()) == 8 + 8 * 2
        assert len(dm.free_dofs()) == 25


class TestDofMap:
    @pytest.mark.parametrize("domain", ["square", "lshape"])
    @pytest.mark.parametrize("family", ["tensor", "serendipity"])
    def test_free_dofs_are_the_set_difference(self, domain, family):
        for N in range(1, 6):
            mesh = build_mesh(domain, N)
            for p in range(1, 9):
                dm = build_dof_map(mesh, family, p)
                expected = np.setdiff1d(np.arange(dm.total), dm._boundary)
                free = dm.free_dofs()
                assert free.dtype == expected.dtype
                assert np.array_equal(free, expected)

    def test_total_examples(self):
        assert dof_totals(build_mesh("square", 2), "tensor", 2) == 25
        assert dof_totals(build_mesh("square", 2), "serendipity", 2) == 21
        assert dof_totals(build_mesh("lshape", 1), "serendipity", 4) == 41
        # the count comes from the slot rule, which knows only the families
        # and orders >= 1
        for family, p in [("tensr", 3), ("tensor", 0)]:
            with pytest.raises(ValueError):
                dof_totals(build_mesh("square", 2), family, p)

    @pytest.mark.parametrize("domain", ["square", "lshape"])
    @pytest.mark.parametrize("family", ["tensor", "serendipity"])
    @pytest.mark.parametrize("p", range(1, 7))
    def test_totals_match_formula(self, domain, family, p):
        for N in (1, 2, 3, 16):
            mesh = build_mesh(domain, N)
            dm = build_dof_map(mesh, family, p)
            assert np.unique(dm.element_dofs).size == dm.total == dof_totals(mesh, family, p)

    def test_every_dof_referenced(self):
        for domain in ("square", "lshape"):
            for N in (2, 16):
                mesh = build_mesh(domain, N)
                for family in ("tensor", "serendipity"):
                    dm = build_dof_map(mesh, family, 4)
                    seen = np.unique(dm.element_dofs)
                    assert np.array_equal(seen, np.arange(dm.total))

    def test_shared_edge_dofs_seen_twice_at_most(self):
        mesh = build_mesh("square", 2)
        dm = build_dof_map(mesh, "tensor", 3)
        counts = np.zeros(dm.total, dtype=int)
        for dofs in dm.element_dofs:
            for g in set(dofs):
                counts[g] += 1
        edge_dofs = range(mesh.n_vertices, mesh.n_vertices + 2 * mesh.n_edges)
        for g in edge_dofs:
            assert counts[g] in (1, 2)
        interior_dofs = range(mesh.n_vertices + 2 * mesh.n_edges, dm.total)
        for g in interior_dofs:
            assert counts[g] == 1

    def test_shared_edge_identification_consistent(self):
        # two horizontally adjacent elements must agree on their shared
        # vertical edge's global DOFs and orientation
        mesh = build_mesh("square", 2)
        dm = build_dof_map(mesh, "tensor", 3)
        left, right = (dict(zip(SIDES, edges)) for edges in mesh.element_edges[:2].tolist())
        assert left["right"] == right["left"]
        p = 3
        shared = left["right"]
        base = mesh.n_vertices + shared * (p - 1)
        expected = [base + k for k in range(p - 1)]
        slots = slot_rule("tensor", p)[0]
        left_slots = {slot: g for slot, g in zip(slots, dm.element_dofs[0])}
        right_slots = {slot: g for slot, g in zip(slots, dm.element_dofs[1])}
        assert [left_slots[(p + 1, j)] for j in range(2, p + 1)] == expected
        assert [right_slots[(1, j)] for j in range(2, p + 1)] == expected


def test_dump_text_roundtrip_counts():
    mesh = build_mesh("lshape", 1)
    text = dump_mesh_text(mesh)
    assert "vertices 8  edges 10  elements 3" in text
    assert text.count("\nvertex ") == 8
    assert text.count("\nedge ") == 10
    assert text.count("\nelement ") == 3
