"""Reference matrices, scaling, global assembly, and conformity checks."""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from oracles import (
    ONE,
    Poly,
    basis_functions,
    coordinates,
    dirichlet_p1_eigenvalues_1d,
    exact_gram,
    gauss_box_integral,
    matrix_digest,
)
from srdpeig.assembly import (
    EmptySystem,
    _line_grams,
    assemble,
    reference_matrices,
    scale_to_element,
    write_matrix_coo,
)
from srdpeig.mesh import build_dof_map, build_mesh, reference_basis, slot_rule

H = Fraction(1, 2)

#: Digests of the exact matrices at p = 1..6, written when the benchmark
#: reference was made.
REFERENCE_DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "reference.json").read_text(
        encoding="utf-8"
    )
)["digests"]
#: Digests at p = 7, 8, computed by the rational-sum build that preceded
#: the integer one.
HIGH_ORDER_DIGESTS = {
    "tensor/p7": "e62711c850d0e0eab07909491653677419e1f1c75ffa10d83320bad40aa43bb7",
    "tensor/p8": "d6df2493d95a2289946fef38da303d59b8d77d98ce2c391d480242e34fb76de4",
    "serendipity/p7": "799b0c0ac04a88e5fbd5c87efd0cb2ff6cfa1d0030f155c7a52fcb943f403030",
    "serendipity/p8": "1c079e5fd1546b7a8b06901498d94f06becceaf87e97f8c1a1480ac35e188402",
}


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
    @pytest.mark.parametrize("p", range(1, 9))
    def test_exact_digest(self, family, p):
        key = f"{family}/p{p}"
        want = REFERENCE_DIGESTS[key] if p <= 6 else HIGH_ORDER_DIGESTS[key]
        assert matrix_digest(reference_matrices(family, p)) == want

    @pytest.mark.parametrize("family", ["tensor", "serendipity"])
    @pytest.mark.parametrize("p", range(1, 7))
    def test_stiffness_row_sums_vanish(self, family, p):
        # gradients annihilate constants, and 1 lies in every family's span
        lm = reference_matrices(family, p)
        coords = coordinates(basis_functions(reference_basis(family, p)), ONE)
        assert coords is not None
        for row in lm.stiffness_ref:
            assert sum(c * v for c, v in zip(coords, row)) == 0

    @pytest.mark.parametrize("family", ["tensor", "serendipity"])
    @pytest.mark.parametrize("p", range(1, 7))
    def test_separable_path_matches_exact_gram(self, family, p):
        lm = reference_matrices(family, p)
        basis = reference_basis(family, p)
        mass, stiffness = exact_gram(basis_functions(basis))
        assert [list(r) for r in lm.mass_ref] == mass
        assert [list(r) for r in lm.stiffness_ref] == stiffness

    @pytest.mark.parametrize("family", ["tensor", "serendipity"])
    @pytest.mark.parametrize("p", range(1, 4))
    def test_matches_quadrature(self, family, p):
        lm = reference_matrices(family, p)
        basis = reference_basis(family, p)
        funcs = basis_functions(basis)
        grads = [(f.derivative("x"), f.derivative("y")) for f in funcs]
        for a in range(lm.n):
            for b in range(a, lm.n):
                exact = float(lm.mass_ref[a][b])
                assert abs(exact - gauss_box_integral(funcs[a] * funcs[b])) < 1e-12
                (gax, gay), (gbx, gby) = grads[a], grads[b]
                exact_s = float(lm.stiffness_ref[a][b])
                quad = gauss_box_integral(gax * gbx + gay * gby)
                assert abs(exact_s - quad) < 1e-11

    @pytest.mark.parametrize("p", range(1, 9))
    def test_tensor_matrices_are_kronecker_products_of_line_tables(self, p):
        lm = reference_matrices("tensor", p)
        _, G, S, D = _line_grams({p})
        assert len(G) == len(S) == p + 1
        for (i, j), row_m, row_s in zip(lm.slots, lm.mass_ref, lm.stiffness_ref):
            for (k, l), m, s in zip(lm.slots, row_m, row_s):
                g_x, g_y = G[i - 1][k - 1], G[j - 1][l - 1]
                assert m == Fraction(g_x * g_y, D * D)
                assert s == Fraction(S[i - 1][k - 1] * g_y + g_x * S[j - 1][l - 1], D * D)

    @pytest.mark.parametrize("p", range(1, 9))
    def test_serendipity_has_no_line_tables(self, p):
        mesh = build_mesh("square", 1)
        dofmap = build_dof_map(mesh, "serendipity", p)
        system = assemble(mesh, dofmap, reference_matrices("serendipity", p), "neumann")
        assert system.factor is None

    @pytest.mark.parametrize("family", ["tensor", "serendipity"])
    @pytest.mark.parametrize("p", [1, 3])
    def test_mass_positive_definite(self, family, p):
        mass, _ = scale_to_element(reference_matrices(family, p), Fraction(2))
        np.linalg.cholesky(mass)  # raises if not PD


@pytest.mark.parametrize("family", ["tensor", "serendipity"])
@pytest.mark.parametrize("p", range(1, 7))
def test_study_slots_are_nonzero_slots(family, p):
    """Reference matrices number the basis's nonzero slots, in grid order."""
    slots = list(reference_basis(family, p).functions)
    assert list(reference_matrices(family, p).slots) == slots


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

    @pytest.mark.parametrize("family", ["tensor", "serendipity"])
    @pytest.mark.parametrize("p", range(1, 9))
    @pytest.mark.parametrize("N", [1, 2, 3, 5, 7, 16])
    def test_matches_fraction_oracle_bitwise(self, family, p, N):
        # at N = 3, 5, 7 the factor (h/2)^2 is not a power of two, so
        # multiplying already-rounded floats would round twice
        lm = reference_matrices(family, p)
        factor = (Fraction(1, N) / 2) ** 2
        mass, stiff = scale_to_element(lm, Fraction(1, N))
        want_mass = np.array([[float(v * factor) for v in row] for row in lm.mass_ref])
        want_stiff = np.array([[float(v) for v in row] for row in lm.stiffness_ref])
        assert mass.dtype == stiff.dtype == np.float64
        assert np.array_equal(mass, want_mass)
        assert np.array_equal(stiff, want_stiff)

    def test_stiffness_is_shared_and_read_only(self):
        lm = reference_matrices("tensor", 2)
        _, s1 = scale_to_element(lm, Fraction(1, 3))
        _, s2 = scale_to_element(lm, Fraction(1, 7))
        assert s1 is s2
        with pytest.raises(ValueError):
            s1[0, 0] = 0.0

    def test_assembled_pencil_is_read_only(self):
        # M and L share their index arrays, so an in-place change to one
        # would corrupt the other; it raises instead
        mesh = build_mesh("lshape", 2)
        system = assemble(
            mesh, build_dof_map(mesh, "tensor", 2), reference_matrices("tensor", 2), "dirichlet"
        )
        with pytest.raises(ValueError):
            system.M.eliminate_zeros()
        with pytest.raises(ValueError):
            system.L.data[0] = 0.0
        mesh = build_mesh("square", 2)
        line = assemble(
            mesh, build_dof_map(mesh, "tensor", 2), reference_matrices("tensor", 2), "neumann"
        ).factor
        assert not any(a.flags.writeable for a in (line.mass, line.stiffness, line.ix, line.iy))


def two_conversion_assembly(mesh, dofmap, lm, bc):
    """(M, L) by one COO to CSR conversion each over all DOFs, with the
    Dirichlet rows and columns sliced away afterwards."""
    mass_el, stiff_el = scale_to_element(lm, mesh.h)
    rows = np.concatenate([np.repeat(dofs, lm.n) for dofs in dofmap.element_dofs])
    cols = np.concatenate([np.tile(dofs, lm.n) for dofs in dofmap.element_dofs])
    shape = (dofmap.total, dofmap.total)
    matrices = []
    for local in (mass_el, stiff_el):
        data = np.tile(local.ravel(), mesh.n_elements)
        A = sp.coo_matrix((data, (rows, cols)), shape=shape).tocsr()
        if bc == "dirichlet":
            free = dofmap.free_dofs()
            A = A[free][:, free]
        matrices.append(A)
    return matrices


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

    @pytest.mark.parametrize("p", [1, 3, 6])
    @pytest.mark.parametrize("family", ["tensor", "serendipity"])
    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("domain", ["square", "lshape"])
    def test_matches_two_conversion_reference(self, domain, bc, family, p):
        # the shared-pattern assembly sums each entry in the order of one
        # real conversion per matrix, so pattern and values agree bit for bit
        mesh = build_mesh(domain, 3)
        dm = build_dof_map(mesh, family, p)
        lm = reference_matrices(family, p)
        system = assemble(mesh, dm, lm, bc)
        reference = two_conversion_assembly(mesh, dm, lm, bc)
        for ours, theirs in zip((system.M, system.L), reference):
            assert ours.shape == theirs.shape
            assert np.array_equal(ours.indptr, theirs.indptr)
            assert np.array_equal(ours.indices, theirs.indices)
            assert np.array_equal(ours.data, theirs.data)

    @pytest.mark.parametrize("family", ["tensor", "serendipity"])
    @pytest.mark.parametrize("domain", ["square", "lshape"])
    def test_neumann_kernel(self, family, domain):
        mesh = build_mesh(domain, 2)
        dm = build_dof_map(mesh, family, 4)
        system = assemble(mesh, dm, reference_matrices(family, 4), "neumann")
        # the exact coordinates of 1 in the reference basis, on every element
        coords = coordinates(basis_functions(reference_basis(family, 4)), ONE)
        c = np.zeros(dm.total)
        for gdofs in dm.element_dofs:
            c[gdofs] = [float(v) for v in coords]
        residual = np.abs(system.L @ c).max()
        scale = np.abs(system.L.data).max()
        assert residual <= 1e-12 * scale


class TestLineFactor:
    """The 1D pencil a tensor system on the square carries: its Kronecker
    square is the assembled pencil, up to the DOF permutation (ix, iy)."""

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("p", range(1, 9))
    def test_kronecker_square_is_the_assembled_pencil(self, bc, p):
        for N in range(1, 6):
            if (bc, p, N) == ("dirichlet", 1, 1):
                continue  # no free DOF
            mesh = build_mesh("square", N)
            system = assemble(
                mesh, build_dof_map(mesh, "tensor", p), reference_matrices("tensor", p), bc
            )
            line = system.factor
            size = N * p + 1 - (2 if bc == "dirichlet" else 0)
            assert line.mass.shape == line.stiffness.shape == (size, size)
            assert system.dimension == size * size
            # every pair of free 1D DOFs is exactly one free 2D DOF
            pairs = line.ix * size + line.iy
            assert np.array_equal(np.sort(pairs), np.arange(size * size))
            x, y = np.ix_(line.ix, line.ix), np.ix_(line.iy, line.iy)
            mx, my, sx, sy = line.mass[x], line.mass[y], line.stiffness[x], line.stiffness[y]
            # each side rounds a few exact products once: agreement to
            # rounding of the largest entry
            for ours, kron in ((system.M, mx * my), (system.L, sx * my + mx * sy)):
                assert np.abs(ours.toarray() - kron).max() <= 1e-15 * np.abs(kron).max()

    @pytest.mark.parametrize("N", range(2, 6))
    def test_bilinear_dirichlet_line_spectrum(self, N):
        mesh = build_mesh("square", N)
        system = assemble(
            mesh, build_dof_map(mesh, "tensor", 1), reference_matrices("tensor", 1), "dirichlet"
        )
        mu = scipy.linalg.eigh(system.factor.stiffness, system.factor.mass, eigvals_only=True)
        assert mu == pytest.approx(dirichlet_p1_eigenvalues_1d(N), rel=1e-13)

    @pytest.mark.parametrize(
        "domain, family", [("square", "serendipity"), ("lshape", "tensor")]
    )
    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_only_tensor_on_square_is_separable(self, domain, family, bc):
        mesh = build_mesh(domain, 2)
        system = assemble(
            mesh, build_dof_map(mesh, family, 3), reference_matrices(family, 3), bc
        )
        assert system.factor is None


@pytest.mark.parametrize("family", ["tensor", "serendipity"])
@pytest.mark.parametrize("p", range(1, 5))
def test_interelement_trace_continuity(family, p):
    """For every shared edge, the traces of each global basis function from
    the two incident elements agree exactly at 7 rational points (functions
    absent from one side must trace to zero there)."""
    mesh = build_mesh("square", 2)
    dm = build_dof_map(mesh, family, p)
    basis = reference_basis(family, p)
    slots = slot_rule(family, p)[0]

    def trace(elem_idx: int, g: int, x: Fraction, y: Fraction) -> Fraction:
        x0, y0 = (c * mesh.h for c in mesh.cells[elem_idx].tolist())
        xi = 2 * (x - x0) / mesh.h - 1
        eta = 2 * (y - y0) / mesh.h - 1
        total = Fraction(0)
        for slot, gd in zip(slots, dm.element_dofs[elem_idx]):
            if gd == g:
                total += Poly.of(basis.functions[slot])(xi, eta)
        return total

    incident: dict[int, list[int]] = {}
    for elem_idx, edge_ids in enumerate(mesh.element_edges.tolist()):
        for edge_id in edge_ids:
            incident.setdefault(edge_id, []).append(elem_idx)
    shared = {e: els for e, els in incident.items() if len(els) == 2}
    assert shared  # N=2 has interior edges
    for edge_id, (ea, eb) in shared.items():
        v0, v1 = mesh.edges[edge_id].tolist()
        xa, ya = (c * mesh.h for c in mesh.vertices[v0].tolist())
        xb, yb = (c * mesh.h for c in mesh.vertices[v1].tolist())
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
    coords = coordinates(basis_functions(basis), ONE)
    assert coords is not None
    combo = Poly.zero()
    for c, f in zip(coords, basis_functions(basis)):
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
