"""Reference matrices, scaling, global assembly, and conformity checks."""

from fractions import Fraction

import numpy as np
import pytest

from oracles import exact_gram, gauss_box_integral
from srdpeig.assembly import (
    EmptySystem,
    assemble,
    constant_coefficient_vector,
    reference_matrices,
    scale_to_element,
    write_matrix_coo,
)
from srdpeig.basis2d import coordinates_in_basis
from srdpeig.mesh import build_dof_map, build_mesh, reference_basis
from srdpeig.polynomial import ONE, Polynomial

H = Fraction(1, 2)


class TestLocalMatrices:
    def test_bilinear_mass_entries(self):
        lm = reference_matrices("tensor", 1)
        slots = {slot: a for a, slot in enumerate(lm.slots)}
        d = slots[(1, 1)]
        adj = slots[(1, 2)]  # shares the x = -1 edge with (1,1)
        opp = slots[(2, 2)]
        assert lm.mass_ref[d][d] == Fraction(4, 9)
        assert lm.mass_ref[d][adj] == Fraction(2, 9)
        assert lm.mass_ref[d][opp] == Fraction(1, 9)

    def test_bilinear_stiffness_entries(self):
        lm = reference_matrices("tensor", 1)
        slots = {slot: a for a, slot in enumerate(lm.slots)}
        d = slots[(1, 1)]
        adj = slots[(1, 2)]
        opp = slots[(2, 2)]
        assert lm.stiffness_ref[d][d] == Fraction(2, 3)
        assert lm.stiffness_ref[d][adj] == Fraction(-1, 6)
        assert lm.stiffness_ref[d][opp] == Fraction(-1, 3)

    @pytest.mark.parametrize("family", ["tensor", "serendipity"])
    @pytest.mark.parametrize("p", range(1, 7))
    def test_stiffness_row_sums_vanish(self, family, p):
        # gradients annihilate constants, and 1 lies in every family's span
        lm = reference_matrices(family, p)
        basis = reference_basis(family, p)
        coords = coordinates_in_basis(basis, ONE)
        assert coords is not None
        for row in lm.stiffness_ref:
            assert sum(c * v for c, v in zip(coords, row)) == 0

    @pytest.mark.parametrize("family", ["tensor", "serendipity"])
    @pytest.mark.parametrize("p", range(1, 7))
    def test_separable_path_matches_exact_gram(self, family, p):
        lm = reference_matrices(family, p)
        basis = reference_basis(family, p)
        assert lm.slots == tuple(basis.nonzero_slots())
        mass, stiffness = exact_gram(basis.functions())
        assert [list(r) for r in lm.mass_ref] == mass
        assert [list(r) for r in lm.stiffness_ref] == stiffness

    @pytest.mark.parametrize("family", ["tensor", "serendipity"])
    @pytest.mark.parametrize("p", range(1, 4))
    def test_matches_quadrature(self, family, p):
        lm = reference_matrices(family, p)
        basis = reference_basis(family, p)
        funcs = basis.functions()
        for a in range(lm.n):
            for b in range(a, lm.n):
                exact = float(lm.mass_ref[a][b])
                assert abs(exact - gauss_box_integral(funcs[a] * funcs[b])) < 1e-12
                gax, gay = funcs[a].derivative("x"), funcs[a].derivative("y")
                gbx, gby = funcs[b].derivative("x"), funcs[b].derivative("y")
                exact_s = float(lm.stiffness_ref[a][b])
                quad = gauss_box_integral(gax * gbx + gay * gby)
                assert abs(exact_s - quad) < 1e-11

    @pytest.mark.parametrize("family", ["tensor", "serendipity"])
    @pytest.mark.parametrize("p", [1, 3])
    def test_mass_positive_definite(self, family, p):
        mass, _ = scale_to_element(reference_matrices(family, p), Fraction(2))
        np.linalg.cholesky(mass)  # raises if not PD


@pytest.mark.parametrize("family", ["tensor", "serendipity"])
@pytest.mark.parametrize("p", range(1, 7))
def test_study_slots_are_nonzero_slots(family, p):
    """Reference matrices and DOF maps number the basis array's nonzero
    slots, in grid order."""
    slots = reference_basis(family, p).nonzero_slots()
    assert list(reference_matrices(family, p).slots) == slots
    assert build_dof_map(build_mesh("lshape", 1), family, p).local_slots == slots


class TestScaling:
    def test_reference_side_is_two(self):
        lm = reference_matrices("tensor", 1)
        mass, stiff = scale_to_element(lm, Fraction(2))
        assert mass[0, 0] == float(Fraction(4, 9))
        assert stiff[0, 0] == float(Fraction(2, 3))

    def test_half_side_mass(self):
        lm = reference_matrices("tensor", 1)
        mass, _ = scale_to_element(lm, Fraction(1, 2))
        assert mass[0, 0] == float(Fraction(1, 36))

    def test_stiffness_is_scale_invariant(self):
        lm = reference_matrices("serendipity", 3)
        _, s1 = scale_to_element(lm, Fraction(2))
        _, s2 = scale_to_element(lm, Fraction(1, 5))
        assert np.array_equal(s1, s2)

    def test_rejects_nonpositive_side(self):
        with pytest.raises(ValueError):
            scale_to_element(reference_matrices("tensor", 1), 0)


class TestAssemble:
    def test_micro_dirichlet_system(self):
        mesh = build_mesh("square", 2)
        dm = build_dof_map(mesh, "tensor", 1)
        system = assemble(mesh, dm, reference_matrices("tensor", 1), "dirichlet")
        assert system.dimension == 1
        assert system.L.toarray()[0, 0] == pytest.approx(8 / 3, abs=1e-15)
        assert system.M.toarray()[0, 0] == pytest.approx(1 / 9, abs=1e-16)

    def test_single_element_neumann_equals_scaled_local(self):
        mesh = build_mesh("square", 1)
        dm = build_dof_map(mesh, "tensor", 1)
        lm = reference_matrices("tensor", 1)
        system = assemble(mesh, dm, lm, "neumann")
        mass_el, stiff_el = scale_to_element(lm, mesh.h)
        M = system.M.toarray()
        L = system.L.toarray()
        gdofs = dm.element_dofs[0]
        for a, ga in enumerate(gdofs):
            for b, gb in enumerate(gdofs):
                assert M[ga, gb] == mass_el[a, b]
                assert L[ga, gb] == stiff_el[a, b]

    @pytest.mark.parametrize("family", ["tensor", "serendipity"])
    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_exact_symmetry(self, family, bc):
        mesh = build_mesh("lshape", 2)
        dm = build_dof_map(mesh, family, 3)
        system = assemble(mesh, dm, reference_matrices(family, 3), bc)
        dM = (system.M - system.M.T)
        dL = (system.L - system.L.T)
        assert dM.nnz == 0 or np.abs(dM.data).max() == 0.0
        assert dL.nnz == 0 or np.abs(dL.data).max() == 0.0

    def test_empty_dirichlet_system_raises(self):
        mesh = build_mesh("square", 1)
        dm = build_dof_map(mesh, "tensor", 1)
        with pytest.raises(EmptySystem):
            assemble(mesh, dm, reference_matrices("tensor", 1), "dirichlet")

    def test_family_mismatch_rejected(self):
        mesh = build_mesh("square", 1)
        dm = build_dof_map(mesh, "tensor", 2)
        with pytest.raises(ValueError):
            assemble(mesh, dm, reference_matrices("serendipity", 2), "neumann")

    @pytest.mark.parametrize("family", ["tensor", "serendipity"])
    @pytest.mark.parametrize("domain", ["square", "lshape"])
    def test_neumann_kernel(self, family, domain):
        mesh = build_mesh(domain, 2)
        dm = build_dof_map(mesh, family, 4)
        system = assemble(mesh, dm, reference_matrices(family, 4), "neumann")
        c = constant_coefficient_vector(system)
        residual = np.abs(system.L @ c).max()
        scale = np.abs(system.L.data).max()
        assert residual <= 1e-12 * scale


@pytest.mark.parametrize("family", ["tensor", "serendipity"])
@pytest.mark.parametrize("p", range(1, 5))
def test_interelement_trace_continuity(family, p):
    """For every shared edge, the traces of each global basis function from
    the two incident elements agree exactly at 7 rational points (functions
    absent from one side must trace to zero there)."""
    mesh = build_mesh("square", 2)
    dm = build_dof_map(mesh, family, p)
    basis = reference_basis(family, p)

    def trace(elem_idx: int, g: int, x: Fraction, y: Fraction) -> Fraction:
        element = mesh.elements[elem_idx]
        x0, y0 = element.origin
        xi = 2 * (x - x0) / mesh.h - 1
        eta = 2 * (y - y0) / mesh.h - 1
        total = Fraction(0)
        for slot, gd in zip(dm.local_slots, dm.element_dofs[elem_idx]):
            if gd == g:
                total += basis.entry(*slot)(xi, eta)
        return total

    incident: dict[int, list[int]] = {}
    for element in mesh.elements:
        for edge_id in element.edges.values():
            incident.setdefault(edge_id, []).append(element.index)
    shared = {e: els for e, els in incident.items() if len(els) == 2}
    assert shared  # N=2 has interior edges
    for edge_id, (ea, eb) in shared.items():
        edge = mesh.edges[edge_id]
        xa, ya = mesh.vertices[edge.v0]
        xb, yb = mesh.vertices[edge.v1]
        dofs = set(dm.element_dofs[ea]) | set(dm.element_dofs[eb])
        for k in range(7):
            t = Fraction(k, 6)
            x = xa + t * (xb - xa)
            y = ya + t * (yb - ya)
            for g in dofs:
                assert trace(ea, g, x, y) == trace(eb, g, x, y)


@pytest.mark.parametrize("family", ["tensor", "serendipity"])
@pytest.mark.parametrize("p", range(1, 6))
def test_constant_reconstruction(family, p):
    basis = reference_basis(family, p)
    coords = coordinates_in_basis(basis, ONE)
    assert coords is not None
    combo = Polynomial.zero()
    for c, f in zip(coords, basis.functions()):
        combo = combo + c * f
    assert combo == ONE


def test_write_matrix_coo(tmp_path):
    mesh = build_mesh("square", 1)
    dm = build_dof_map(mesh, "tensor", 1)
    system = assemble(mesh, dm, reference_matrices("tensor", 1), "neumann")
    path = tmp_path / "mass.txt"
    write_matrix_coo(system.M, path)
    entries = {}
    for line in path.read_text().splitlines():
        r, c, v = line.split()
        entries[(int(r), int(c))] = float(v)
    dense = system.M.toarray()
    for (r, c), v in entries.items():
        assert v == dense[r, c]
    assert len(entries) == system.M.nnz
