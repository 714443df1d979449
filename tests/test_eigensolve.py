"""Generalized eigensolver: dense and targeted paths, selection and its
accuracy gate, spectrum errors, and independent cross-checks."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence

from oracles import (
    bruteforce_square_spectrum,
    dirichlet_p1_eigenvalues_2d,
    sturm_generalized_eigenvalues,
)
from srdpeig.assembly import GlobalSystem, assemble, reference_matrices
import srdpeig.eigensolve as eigensolve
from srdpeig.eigensolve import (
    BACKWARD_ERROR_TOL,
    K,
    EigenResult,
    InsufficientSpectrum,
    MassNotPD,
    SingularShift,
    SolveNotConverged,
    select_near,
    solve_generalized,
)
from srdpeig.mesh import build_dof_map, build_mesh
from srdpeig.studies import TARGET_PRESETS, exact_square_spectrum, solve_configuration

TWO_PI_SQ = 2 * math.pi**2
FIVE_PI_SQ = 5 * math.pi**2


def synthetic_system(L: np.ndarray, M: np.ndarray) -> GlobalSystem:
    n = L.shape[0]
    return GlobalSystem(sp.csr_matrix(M), sp.csr_matrix(L), np.arange(n))


class TestSolveGeneralized:
    def test_one_by_one(self):
        result = solve_generalized(synthetic_system(np.array([[4.0]]), np.array([[2.0]])))
        # LAPACK reduces the pencil with the Cholesky factor fl(sqrt 2) of M
        # and divides 4 by its square: three rounded operations, each within
        # eps/2 relative, so the exact 2 is allowed a 2 eps relative error.
        assert result.eigenvalues.shape == (1,)
        assert result.eigenvalues[0] == pytest.approx(2.0, rel=2 * np.finfo(float).eps, abs=0)

    def test_micro_pipeline_value(self):
        result = solve_configuration("square", "dirichlet", "tensor", 1, 2)
        assert len(result) == 1
        assert abs(result.eigenvalues[0] - 24.0) < 1e-12

    def test_neumann_zero_mode(self):
        result = solve_configuration("square", "neumann", "serendipity", 2, 3)
        assert abs(result.eigenvalues[0]) < 1e-9

    def test_empty_system_passthrough(self):
        system = synthetic_system(np.zeros((0, 0)), np.zeros((0, 0)))
        assert len(solve_generalized(system)) == 0

    def test_mass_not_pd(self):
        L = np.eye(2)
        M = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(MassNotPD):
            solve_generalized(synthetic_system(L, M))

    def test_vectors_satisfy_pencil(self):
        result_sys = None
        mesh = build_mesh("square", 2)
        dm = build_dof_map(mesh, "tensor", 2)
        result_sys = assemble(mesh, dm, reference_matrices("tensor", 2), "dirichlet")
        result = solve_generalized(result_sys, with_vectors=True)
        L = result_sys.L.toarray()
        M = result_sys.M.toarray()
        for k in (0, len(result) - 1):
            v = result.eigenvectors[:, k]
            residual = L @ v - result.eigenvalues[k] * (M @ v)
            assert np.abs(residual).max() < 1e-8 * max(1.0, abs(result.eigenvalues[k]))


class TestTargetedSolve:
    @pytest.mark.parametrize("family", ["tensor", "serendipity"])
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("N", [2, 3])
    def test_lshape_neumann_agrees_with_dense(self, family, p, N):
        # the window of K = 3 about 1.4756 holds the lambda = 0 constant mode,
        # so errors are relative to max(|lambda|, target)
        target = TARGET_PRESETS["lshape_neumann_1"]
        window = solve_configuration("lshape", "neumann", family, p, N, target=target)
        dense = solve_configuration("lshape", "neumann", family, p, N)
        assert window.target == target and dense.target is None
        assert len(window) == K and window.ndofs == dense.ndofs
        expected = np.array(select_near(dense, target, multiplicity=K))
        scale = np.maximum(np.abs(expected), target)
        assert (np.abs(window.eigenvalues - expected) <= 1e-10 * scale).all()

    @pytest.mark.parametrize("family", ["tensor", "serendipity"])
    def test_double_eigenvalue_both_copies(self, family):
        window = solve_configuration("square", "dirichlet", family, 3, 3, target=FIVE_PI_SQ)
        dense = solve_configuration("square", "dirichlet", family, 3, 3)
        ours = select_near(window, FIVE_PI_SQ, multiplicity=2)
        theirs = select_near(dense, FIVE_PI_SQ, multiplicity=2)
        assert ours == pytest.approx(theirs, rel=1e-10, abs=0)
        assert abs(ours[1] - ours[0]) < 1e-9 * ours[0]

    def test_vectors_satisfy_pencil(self):
        mesh = build_mesh("square", 2)
        dm = build_dof_map(mesh, "tensor", 2)
        system = assemble(mesh, dm, reference_matrices("tensor", 2), "dirichlet")
        result = solve_generalized(system, with_vectors=True, target=TWO_PI_SQ)
        assert result.eigenvectors.shape == (system.dimension, K)
        V = result.eigenvectors
        residual = system.L @ V - (system.M @ V) * result.eigenvalues
        assert np.abs(residual).max() < 1e-8 * result.eigenvalues.max()

    def test_small_system_takes_full_spectrum(self):
        result = solve_configuration("square", "dirichlet", "tensor", 1, 2, target=TWO_PI_SQ)
        assert result.target is None
        assert result.eigenvalues.tolist() == pytest.approx([24.0], rel=1e-12)

    def test_indefinite_mass_raises(self):
        # ARPACK's shift-invert mode assumes M > 0; here it returned 2.40,
        # 2.44 and 2.57 without complaint
        mass = np.ones(50)
        mass[10] = -1.0
        system = synthetic_system(np.diag(np.arange(1.0, 51.0)), np.diag(mass))
        with pytest.raises(MassNotPD):
            solve_generalized(system, target=2.5)

    def test_inaccurate_pairs_raise(self, monkeypatch):
        real = eigensolve.eigsh

        def perturbed(*args, **kwargs):
            w, V = real(*args, **kwargs)
            return w * (1 + 1e-4), V

        monkeypatch.setattr(eigensolve, "eigsh", perturbed)
        result = solve_configuration("square", "dirichlet", "tensor", 2, 3, target=TWO_PI_SQ)
        with pytest.raises(SolveNotConverged, match="backward error"):
            select_near(result, TWO_PI_SQ)

    @pytest.mark.parametrize(
        "pick, selected", [(np.argmin, True), (np.argmax, False)], ids=["nearest", "farthest"]
    )
    def test_gate_covers_selected_pairs_only(self, monkeypatch, pick, selected):
        # perturb one pair of the window: the one nearest the target (which
        # select_near returns) or the farthest (which it does not)
        real = eigensolve.eigsh

        def perturbed(*args, **kwargs):
            w, V = real(*args, **kwargs)
            w = w.copy()
            w[pick(np.abs(w - kwargs["sigma"]))] *= 1 + 1e-4
            return w, V

        monkeypatch.setattr(eigensolve, "eigsh", perturbed)
        window = solve_configuration("square", "dirichlet", "tensor", 2, 3, target=TWO_PI_SQ)
        assert (window.backward_error > BACKWARD_ERROR_TOL).sum() == 1
        if selected:
            with pytest.raises(SolveNotConverged, match="backward error"):
                select_near(window, TWO_PI_SQ)
        else:
            dense = solve_configuration("square", "dirichlet", "tensor", 2, 3)
            ours = select_near(window, TWO_PI_SQ)
            assert ours == pytest.approx(select_near(dense, TWO_PI_SQ), rel=1e-10, abs=0)

    # on both systems scipy's onenormest underestimated a 1-norm, of M by
    # 6.3% and of L by 14%
    @pytest.mark.parametrize(
        "domain, bc, family, p, N, target",
        [
            ("lshape", "neumann", "serendipity", 4, 2, TARGET_PRESETS["lshape_neumann_1"]),
            ("square", "dirichlet", "serendipity", 2, 4, TWO_PI_SQ),
        ],
    )
    def test_backward_error_uses_exact_norms(self, domain, bc, family, p, N, target):
        mesh = build_mesh(domain, N)
        dm = build_dof_map(mesh, family, p)
        system = assemble(mesh, dm, reference_matrices(family, p), bc)
        result = solve_generalized(system, with_vectors=True, target=target)
        V, w = result.eigenvectors, result.eigenvalues
        # the residual sits at rounding level, so it is formed as the solver
        # forms it; only the norms are recomputed, densely
        residual = np.abs(system.L @ V - (system.M @ V) * w).sum(axis=0)
        norm_L = np.abs(system.L.toarray()).sum(axis=0).max()
        norm_M = np.abs(system.M.toarray()).sum(axis=0).max()
        expected = residual / ((norm_L + np.abs(w) * norm_M) * np.abs(V).sum(axis=0))
        assert result.backward_error == pytest.approx(expected, rel=1e-12, abs=0)

    def test_singular_shift_raises(self):
        # L - 0 M has a zero pivot, so SuperLU cannot factor it
        system = synthetic_system(np.diag(np.arange(10.0)), np.eye(10))
        with pytest.raises(SingularShift, match=r"about 0\.0 .*dimension 10"):
            solve_generalized(system, target=0.0)

    def test_zero_shifted_diagonal(self):
        # L - 2 I = tridiag(-1, 0, -1) is nonsingular with a zero diagonal:
        # the balancing leaves every row unscaled and the LU pivots off the
        # diagonal
        n = 10
        L = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        system = synthetic_system(L, np.eye(n))
        window = solve_generalized(system, with_vectors=True, target=2.0)
        dense = solve_generalized(system)
        expected = np.array(select_near(dense, 2.0, multiplicity=K))
        assert window.eigenvalues == pytest.approx(expected, rel=1e-12, abs=0)
        V = window.eigenvectors
        residual = L @ V - V * window.eigenvalues
        assert np.abs(residual).max() < 1e-12
        assert (window.backward_error <= BACKWARD_ERROR_TOL).all()

    def test_high_order_agrees_with_dense(self):
        # tensor p = 8 has cond(M_ref) ~ 4.5e21 from its unscaled
        # midpoint-derivative DOFs; the balanced pencil keeps the targeted
        # eigenvalue at the dense solve's accuracy
        target = TARGET_PRESETS["lshape_neumann_1"]
        window = solve_configuration("lshape", "neumann", "tensor", 8, 2, target=target)
        dense = solve_configuration("lshape", "neumann", "tensor", 8, 2)
        ours, theirs = select_near(window, target)[0], select_near(dense, target)[0]
        assert abs(ours - theirs) <= 1e-11 * theirs

    def test_no_convergence_raises(self, monkeypatch):
        def stalled(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(eigensolve, "eigsh", stalled)
        with pytest.raises(SolveNotConverged):
            solve_configuration("square", "dirichlet", "tensor", 2, 3, target=TWO_PI_SQ)


class TestSelectNear:
    def test_nearest(self):
        result = EigenResult(np.array([0.0, 9.9, 19.8, 19.9]))
        assert select_near(result, TWO_PI_SQ) == [19.8]

    def test_single_candidate(self):
        result = solve_configuration("square", "dirichlet", "tensor", 1, 2)
        assert select_near(result, TWO_PI_SQ) == [24.0]

    def test_multiplicity_and_ascending(self):
        result = EigenResult(np.array([1.0, 5.0, 9.0, 9.5]))
        assert select_near(result, 9.2, multiplicity=2) == [9.0, 9.5]

    def test_tie_breaks_to_smaller(self):
        result = EigenResult(np.array([1.0, 3.0]))
        assert select_near(result, 2.0) == [1.0]

    def test_insufficient(self):
        with pytest.raises(InsufficientSpectrum):
            select_near(EigenResult(np.array([1.0])), 1.0, multiplicity=2)

    def test_lshape_benchmark_nearest_improves(self):
        target = 1.4756218450
        errors = []
        for N in (1, 2, 3):
            result = solve_configuration("lshape", "neumann", "serendipity", 2, N)
            errors.append(abs(select_near(result, target)[0] - target))
        assert errors[2] < errors[1] < errors[0]


class TestSpectrumProfile:
    def test_errors_grow_with_index(self):
        result = solve_configuration("square", "neumann", "tensor", 2, 3)
        errors = result.eigenvalues[:20] - exact_square_spectrum("neumann", 20)
        early = errors[1:6].sum()
        late = errors[15:20].sum()
        assert late > early >= 0

    def test_multiplicity_two_pair(self):
        result = solve_configuration("square", "neumann", "tensor", 2, 3)
        lam1, lam2 = result.eigenvalues[1], result.eigenvalues[2]
        assert abs(lam1 - lam2) < 1e-9 * lam1
        assert abs(lam1 - math.pi**2) < 0.05


class TestCrossChecks:
    def test_sturm_bisection_agreement(self):
        mesh = build_mesh("square", 3)
        dm = build_dof_map(mesh, "tensor", 2)
        system = assemble(mesh, dm, reference_matrices("tensor", 2), "dirichlet")
        assert system.dimension <= 50
        ours = solve_generalized(system).eigenvalues
        theirs = sturm_generalized_eigenvalues(system.L.toarray(), system.M.toarray())
        assert np.abs((ours - theirs) / ours).max() < 1e-10

    def test_separation_of_variables_oracle(self):
        for N in (2, 3, 4, 5):
            result = solve_configuration("square", "dirichlet", "tensor", 1, N)
            oracle = dirichlet_p1_eigenvalues_2d(N)
            assert np.abs((result.eigenvalues - oracle) / oracle).max() < 1e-9

    @pytest.mark.parametrize("family,p", [("tensor", 2), ("serendipity", 3)])
    def test_bruteforce_space_oracle(self, family, p):
        ours = solve_configuration("square", "dirichlet", family, p, 2).eigenvalues
        theirs = bruteforce_square_spectrum(family, p, 2, "dirichlet")
        assert len(ours) == len(theirs)
        assert np.abs(ours - theirs).max() < 1e-9 * max(1.0, theirs.max())

    def test_conforming_upper_bound_spot(self):
        result = solve_configuration("square", "neumann", "serendipity", 2, 3)
        exact = exact_square_spectrum("neumann", len(result))
        assert (result.eigenvalues - exact).min() >= -1e-9


class TestInvariances:
    def test_spectrum_invariant_under_dof_permutation(self):
        mesh = build_mesh("square", 2)
        dm = build_dof_map(mesh, "serendipity", 3)
        system = assemble(mesh, dm, reference_matrices("serendipity", 3), "dirichlet")
        base = solve_generalized(system).eigenvalues
        rng = np.random.default_rng(0)
        perm = rng.permutation(system.dimension)
        P = sp.coo_matrix(
            (np.ones(len(perm)), (np.arange(len(perm)), perm))
        ).tocsr()
        permuted = GlobalSystem(
            P @ system.M @ P.T, P @ system.L @ P.T, system.free
        )
        other = solve_generalized(permuted).eigenvalues
        assert np.abs((base - other) / np.maximum(np.abs(base), 1.0)).max() < 1e-10

    def test_spectrum_invariant_under_dof_rescaling(self):
        # congruence by a positive diagonal leaves pencil eigenvalues alone,
        # so the unscaled-derivative-DOF convention cannot affect spectra
        mesh = build_mesh("square", 2)
        dm = build_dof_map(mesh, "tensor", 3)
        system = assemble(mesh, dm, reference_matrices("tensor", 3), "dirichlet")
        base = solve_generalized(system).eigenvalues
        rng = np.random.default_rng(1)
        scale = sp.diags(np.exp(rng.uniform(-2, 2, system.dimension)))
        scaled = GlobalSystem(
            scale @ system.M @ scale, scale @ system.L @ scale, system.free
        )
        other = solve_generalized(scaled).eigenvalues
        assert np.abs((base - other) / np.maximum(np.abs(base), 1.0)).max() < 1e-9

    def test_nonnegative_spectrum(self):
        result = solve_configuration("square", "neumann", "tensor", 3, 2)
        scale = result.eigenvalues.max()
        assert result.eigenvalues.min() >= -1e-9 * scale
