"""Mesh construction, entity counts, boundary detection, and DOF numbering."""

import numpy as np
import pytest

from srdpeig.mesh import build_dof_map, build_mesh, dof_totals, dump_mesh_text


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
        assert len(set(mesh.vertices)) == mesh.n_vertices
        pairs = {(e.v0, e.v1) for e in mesh.edges}
        assert len(pairs) == mesh.n_edges

    def test_canonical_orientation(self):
        mesh = build_mesh("lshape", 2)
        for edge in mesh.edges:
            x0, y0 = mesh.vertices[edge.v0]
            x1, y1 = mesh.vertices[edge.v1]
            if edge.orientation == "h":
                assert x1 > x0 and y1 == y0
            else:
                assert y1 > y0 and x1 == x0


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
            for v, (x, y) in enumerate(mesh.vertices)
            if float(x) == 1.0 and float(y) == 1.0
        ]
        assert len(corner) == 1
        assert mesh.boundary_vertices[corner[0]]

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

    @pytest.mark.parametrize("domain", ["square", "lshape"])
    @pytest.mark.parametrize("family", ["tensor", "serendipity"])
    @pytest.mark.parametrize("p", range(1, 7))
    def test_totals_match_formula(self, domain, family, p):
        for N in range(1, 4):
            mesh = build_mesh(domain, N)
            dm = build_dof_map(mesh, family, p)
            assert dm.total == dof_totals(mesh, family, p)

    def test_every_dof_referenced(self):
        mesh = build_mesh("lshape", 2)
        dm = build_dof_map(mesh, "serendipity", 4)
        seen = sorted({g for dofs in dm.element_dofs for g in dofs})
        assert seen == list(range(dm.total))

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
        left, right = mesh.elements[0], mesh.elements[1]
        assert left.edges["right"] == right.edges["left"]
        p = 3
        shared = left.edges["right"]
        base = mesh.n_vertices + shared * (p - 1)
        expected = [base + k for k in range(p - 1)]
        left_slots = {slot: g for slot, g in zip(dm.local_slots, dm.element_dofs[0])}
        right_slots = {slot: g for slot, g in zip(dm.local_slots, dm.element_dofs[1])}
        assert [left_slots[(p + 1, j)] for j in range(2, p + 1)] == expected
        assert [right_slots[(1, j)] for j in range(2, p + 1)] == expected


def test_dump_text_roundtrip_counts():
    mesh = build_mesh("lshape", 1)
    text = dump_mesh_text(mesh)
    assert "vertices 8  edges 10  elements 3" in text
    assert text.count("\nvertex ") == 8
    assert text.count("\nedge ") == 10
    assert text.count("\nelement ") == 3
