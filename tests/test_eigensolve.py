"""Generalized eigensolver: dense and targeted paths, selection and its
accuracy gate, spectrum errors, and independent cross-checks."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
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
    check_backward_error,
    select_near,
    solve_generalized,
)
from srdpeig.mesh import build_dof_map, build_mesh
from srdpeig.studies import (
    N_RANGE,
    P_RANGE,
    TARGET_PRESETS,
    exact_square_spectrum,
    solve_configuration,
)

TWO_PI_SQ = 2 * math.pi**2
FIVE_PI_SQ = 5 * math.pi**2


def synthetic_system(L: np.ndarray, M: np.ndarray) -> GlobalSystem:
    return GlobalSystem(sp.csr_matrix(M), sp.csr_matrix(L))


def assembled(domain: str, bc: str, family: str, p: int, N: int) -> GlobalSystem:
    mesh = build_mesh(domain, N)
    return assemble(mesh, build_dof_map(mesh, family, p), reference_matrices(family, p), bc)


def general(domain: str, bc: str, family: str, p: int, N: int) -> GlobalSystem:
    """The assembled system without its `LineFactor`: a tensor system on
    the square then takes the dense or shift-invert path, as any other."""
    return dataclasses.replace(assembled(domain, bc, family, p, N), factor=None)


@pytest.fixture
def shift_invert(monkeypatch):
    """Send every targeted solve of more than K DOFs that has no
    `LineFactor` to shift-invert.  Tests that reach this path with a tensor
    system on the square solve it without its factor (`general`)."""
    monkeypatch.setattr(eigensolve, "DENSE_MAX_DOFS", 0)


def nearest(result: EigenResult, target: float, count: int = K) -> np.ndarray:
    """Ascending indices of the `count` eigenvalues of a result nearest the
    target, whose pairs must pass the accuracy gate; ties in distance go to
    the smaller eigenvalue."""
    distance = np.abs(result.eigenvalues - target)
    chosen = np.sort(np.argsort(distance, kind="stable")[:count])
    check_backward_error(result, chosen)
    return chosen


def values_result(values, backward_error=None) -> EigenResult:
    """A result with the given eigenvalues, unit vectors and, unless given,
    zero backward errors."""
    w = np.array(values, dtype=float)
    eta = np.zeros(w.size) if backward_error is None else np.array(backward_error)
    return EigenResult(w, np.eye(w.size), eta, None)


def spoil(V: np.ndarray, column: int | slice = slice(None)) -> np.ndarray:
    """V with every other entry of the given columns moved by 1e-4 relative:
    the Rayleigh quotient moves at second order, the residual at first."""
    V = V.copy()
    V[::2, column] *= 1 + 1e-4
    return V


def exact_rayleigh_quotient(system: GlobalSystem, v: np.ndarray) -> Fraction:
    """v^T L v / v^T M v in exact arithmetic over the float entries."""
    x = [Fraction(float(a)) for a in v]

    def form(A) -> Fraction:
        A = A.tocoo()
        return sum(Fraction(float(a)) * x[i] * x[j] for i, j, a in zip(A.row, A.col, A.data))

    return form(system.L) / form(system.M)


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
        result = solve_generalized(system)
        assert len(result) == result.ndofs == 0
        assert result.eigenvectors.shape == (0, 0) and result.backward_error.shape == (0,)

    def test_mass_not_pd(self):
        L = np.eye(2)
        M = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(MassNotPD):
            solve_generalized(synthetic_system(L, M))

    def test_full_spectrum_carries_checked_vectors(self):
        # untargeted solves take the dense path, even with a LineFactor
        system = assembled("square", "dirichlet", "tensor", 2, 2)
        assert system.factor is not None
        result = solve_generalized(system)
        n = system.dimension
        assert len(result) == result.ndofs == n and result.target is None
        assert result.eigenvectors.shape == (n, n)
        V = result.eigenvectors
        residual = system.L @ V - (system.M @ V) * result.eigenvalues
        assert np.abs(residual).max() < 1e-8 * result.eigenvalues.max()
        assert (result.backward_error <= BACKWARD_ERROR_TOL).all()

    def test_vectors_satisfy_pencil(self):
        system = assembled("square", "dirichlet", "tensor", 2, 2)
        result = solve_generalized(system, target=TWO_PI_SQ)
        L = system.L.toarray()
        M = system.M.toarray()
        for k in (0, len(result) - 1):
            v = result.eigenvectors[:, k]
            residual = L @ v - result.eigenvalues[k] * (M @ v)
            assert np.abs(residual).max() < 1e-8 * max(1.0, abs(result.eigenvalues[k]))

    @pytest.mark.parametrize(
        "path, bc, p, N",
        [
            ("separable", "neumann", 4, 3),
            ("dense", "neumann", 4, 3),
            ("shift-invert", "neumann", 4, 3),
            ("separable", "dirichlet", 1, 2),
            ("dense", "dirichlet", 1, 2),
        ],
        ids=["separable", "dense", "shift-invert", "separable-one-dof", "dense-one-dof"],
    )
    def test_targeted_result_carries_checked_vectors(self, request, path, bc, p, N):
        # all n vectors on the dense path, else K, or all n when n <= K; in
        # the order of the eigenvalues
        if path == "shift-invert":
            request.getfixturevalue("shift_invert")
        build = assembled if path == "separable" else general
        system = build("square", bc, "tensor", p, N)
        result = solve_generalized(system, target=FIVE_PI_SQ)
        n = system.dimension
        V = result.eigenvectors
        assert V.shape == (n, n if path == "dense" else min(K, n))
        residual = system.L @ V - (system.M @ V) * result.eigenvalues
        assert np.abs(residual).max() < 1e-8 * result.eigenvalues.max()
        assert (result.backward_error <= BACKWARD_ERROR_TOL).all()


@pytest.mark.usefixtures("shift_invert")
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
        expected = dense.eigenvalues[nearest(dense, target)]
        scale = np.maximum(np.abs(expected), target)
        assert (np.abs(window.eigenvalues - expected) <= 1e-10 * scale).all()

    @pytest.mark.parametrize("family", ["tensor", "serendipity"])
    def test_double_eigenvalue_both_copies(self, family):
        system = general("square", "dirichlet", family, 3, 3)
        window = solve_generalized(system, target=FIVE_PI_SQ)
        dense = solve_generalized(system)
        ours = window.eigenvalues[nearest(window, FIVE_PI_SQ, 2)]
        theirs = dense.eigenvalues[nearest(dense, FIVE_PI_SQ, 2)]
        assert ours == pytest.approx(theirs, rel=1e-10, abs=0)
        assert abs(ours[1] - ours[0]) < 1e-9 * ours[0]

    def test_double_eigenvalue_on_assembled_lshape(self):
        # 532 DOFs, past DENSE_MAX_DOFS: the window about pi^2 holds both
        # copies of the double eigenvalue and lambda_5 = 11.3895..., the two
        # pi^2 vectors span its eigenspace, and every pair passes the gate
        system = assembled("lshape", "neumann", "serendipity", 6, 3)
        assert system.dimension == 532
        target = TARGET_PRESETS["lshape_neumann_3"]
        window = solve_generalized(system, target=target)
        dense = solve_generalized(system)
        expected = dense.eigenvalues[nearest(dense, target)]
        assert expected[:2] == pytest.approx([math.pi**2] * 2, rel=1e-10)
        assert window.eigenvalues == pytest.approx(expected, rel=1e-10, abs=0)
        V = window.eigenvectors[:, :2]
        gram = V.T @ (system.M @ V)
        assert np.linalg.det(gram) > 0.5 * gram[0, 0] * gram[1, 1]
        check_backward_error(window, slice(None))

    def test_vectors_satisfy_pencil(self):
        system = general("square", "dirichlet", "tensor", 2, 2)
        result = solve_generalized(system, target=TWO_PI_SQ)
        assert result.eigenvectors.shape == (system.dimension, K)
        V = result.eigenvectors
        residual = system.L @ V - (system.M @ V) * result.eigenvalues
        assert np.abs(residual).max() < 1e-8 * result.eigenvalues.max()

    @pytest.mark.parametrize("p", P_RANGE)
    def test_target_near_double_eigenvalue(self, p):
        # at p = 6, N = 2 the target lies about 1e-7 from the computed double
        # 5 pi^2, so the far pair of the window (2 pi^2) is resolved less
        # accurately than the selected ones; only those are gated
        system = general("square", "dirichlet", "tensor", p, 2)
        window = solve_generalized(system, target=FIVE_PI_SQ)
        expected = select_near(solve_generalized(system), FIVE_PI_SQ)[0]
        assert abs(select_near(window, FIVE_PI_SQ)[0] - expected) <= 1e-10 * expected

    @staticmethod
    def indefinite_mass_system() -> GlobalSystem:
        mass = np.ones(50)
        mass[10] = -1.0
        return synthetic_system(np.diag(np.arange(1.0, 51.0)), np.diag(mass))

    def test_indefinite_mass_raises(self):
        # ARPACK's shift-invert mode assumes M > 0; here it returned 2.40,
        # 2.44 and 2.57 without complaint
        with pytest.raises(MassNotPD):
            solve_generalized(self.indefinite_mass_system(), target=2.5)

    @pytest.mark.parametrize("ncv, tol", [(10, 1e-10), (11, 0)])
    def test_indefinite_mass_raises_whatever_the_subspace(self, monkeypatch, ncv, tol):
        # with these Lanczos settings ARPACK's vectors miss the negative
        # direction (windows 2, 3, 63.97 and 1.695, 2, 3): only the check of
        # M's diagonal before the factorization catches it
        real = eigensolve.eigsh
        monkeypatch.setattr(
            eigensolve, "eigsh", lambda *args, **kw: real(*args, **kw, ncv=ncv, tol=tol)
        )
        with pytest.raises(MassNotPD, match="diagonal"):
            solve_generalized(self.indefinite_mass_system(), target=2.5)

    def test_indefinite_mass_with_positive_diagonal_raises(self):
        # M's diagonal passes; the 2 x 2 block [[1, 2], [2, 1]] is indefinite,
        # and the returned vectors catch it through v^T M v <= 0
        mass = np.eye(50)
        mass[10, 11] = mass[11, 10] = 2.0
        system = synthetic_system(np.diag(np.arange(1.0, 51.0)), mass)
        with pytest.raises(MassNotPD, match="not positive definite"):
            solve_generalized(system, target=3.5)

    def test_inaccurate_pairs_raise(self, monkeypatch):
        real = eigensolve.eigsh

        def perturbed(*args, **kwargs):
            w, V = real(*args, **kwargs)
            return w, spoil(V)

        monkeypatch.setattr(eigensolve, "eigsh", perturbed)
        system = general("square", "dirichlet", "tensor", 2, 3)
        result = solve_generalized(system, target=TWO_PI_SQ)
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
            return w, spoil(V, pick(np.abs(w - kwargs["sigma"])))

        monkeypatch.setattr(eigensolve, "eigsh", perturbed)
        system = general("square", "dirichlet", "tensor", 2, 3)
        window = solve_generalized(system, target=TWO_PI_SQ)
        assert (window.backward_error > BACKWARD_ERROR_TOL).sum() == 1
        if selected:
            with pytest.raises(SolveNotConverged, match="backward error"):
                select_near(window, TWO_PI_SQ)
        else:
            dense = solve_generalized(system)
            ours = select_near(window, TWO_PI_SQ)
            assert ours == pytest.approx(select_near(dense, TWO_PI_SQ), rel=1e-10, abs=0)

    # on both systems scipy's onenormest underestimated a 1-norm, of M by
    # 6.3% and of L by 14%
    @pytest.mark.parametrize(
        "domain, bc, family, p, N, preset",
        [
            ("lshape", "neumann", "serendipity", 4, 2, "lshape_neumann_1"),
            ("square", "dirichlet", "serendipity", 2, 4, "two_pi_sq"),
        ],
    )
    def test_backward_error_uses_exact_norms(self, domain, bc, family, p, N, preset):
        target = TARGET_PRESETS[preset]
        mesh = build_mesh(domain, N)
        dm = build_dof_map(mesh, family, p)
        system = assemble(mesh, dm, reference_matrices(family, p), bc)
        result = solve_generalized(system, target=target)
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
        window = solve_generalized(system, target=2.0)
        dense = solve_generalized(system)
        # the spectrum 2 - 2 cos(k pi / 11), k = 1..10, is symmetric about the
        # target, so its third-nearest member is an exact tie (k = 4 and 7)
        # that rounding breaks either way
        w = dense.eigenvalues
        windows = (w[3 : 3 + K], w[4 : 4 + K])
        assert any(window.eigenvalues == pytest.approx(x, rel=1e-12, abs=0) for x in windows)
        V = window.eigenvectors
        residual = L @ V - V * window.eigenvalues
        assert np.abs(residual).max() < 1e-12
        assert (window.backward_error <= BACKWARD_ERROR_TOL).all()

    @pytest.mark.parametrize("family", ["tensor", "serendipity"])
    def test_explicit_zeros_do_not_change_window(self, family):
        # the assembled M and L share one pattern with exact zeros in it.
        # Dropping them from M alone gives M and L different patterns; so
        # does dropping them from each separately for serendipity, whose L
        # has zeros where M has none
        mesh = build_mesh("lshape", 2)
        system = assemble(
            mesh, build_dof_map(mesh, family, 4), reference_matrices(family, 4), "neumann"
        )
        M, L = system.M.copy(), system.L.copy()
        M.eliminate_zeros()
        L.eliminate_zeros()
        assert M.nnz < system.M.nnz and L.nnz < system.L.nnz
        target = TARGET_PRESETS["lshape_neumann_1"]
        expected = solve_generalized(system, target=target)
        for pencil in (GlobalSystem(M, system.L), GlobalSystem(M, L)):
            window = solve_generalized(pencil, target=target)
            assert np.array_equal(window.eigenvalues, expected.eigenvalues)
            assert np.array_equal(window.backward_error, expected.backward_error)

    def test_pencil_drops_exact_zeros(self, monkeypatch):
        # tensor p = 6 on the L-shape at N = 5: 75,840 of the 173,761 stored
        # entries of M and L are exactly zero in both
        seen = {}
        real_splu, real_eigsh = eigensolve.splu, eigensolve.eigsh

        def splu(A, **kwargs):
            seen["shifted"] = A.nnz
            return real_splu(A, **kwargs)

        def eigsh(*args, **kwargs):
            seen["mass"] = kwargs["M"].nnz
            return real_eigsh(*args, **kwargs)

        monkeypatch.setattr(eigensolve, "splu", splu)
        monkeypatch.setattr(eigensolve, "eigsh", eigsh)
        mesh = build_mesh("lshape", 5)
        dm = build_dof_map(mesh, "tensor", 6)
        system = assemble(mesh, dm, reference_matrices("tensor", 6), "neumann")
        assert system.M.nnz == system.L.nnz == 173_761
        solve_generalized(system, target=TARGET_PRESETS["lshape_neumann_1"])
        assert seen == {"shifted": 97_921, "mass": 97_921}

    def test_solve_leaves_the_system_unchanged(self):
        # M and L share one index structure, so a solver that scaled or
        # pruned either on that structure would change both; a second solve
        # would then see another pencil
        system = assembled("lshape", "neumann", "tensor", 4, 3)
        assert system.factor is None and system.dimension > eigensolve.DENSE_MAX_DOFS

        def stored():
            arrays = ("data", "indices", "indptr")
            return [getattr(A, a).tobytes() for A in (system.M, system.L) for a in arrays]

        before = stored()
        target = TARGET_PRESETS["lshape_neumann_1"]
        first = solve_generalized(system, target=target)
        assert stored() == before
        second = solve_generalized(system, target=target)
        for field in ("eigenvalues", "eigenvectors", "backward_error"):
            assert getattr(first, field).tobytes() == getattr(second, field).tobytes()

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
        system = general("square", "dirichlet", "tensor", 2, 3)
        with pytest.raises(SolveNotConverged):
            solve_generalized(system, target=TWO_PI_SQ)


DENSE_CASES = pytest.mark.parametrize(
    "domain, bc, family, p, N, preset",
    [
        ("square", "dirichlet", "tensor", 3, 3, "five_pi_sq"),
        ("square", "dirichlet", "serendipity", 3, 3, "five_pi_sq"),
        ("square", "dirichlet", "serendipity", 6, 2, "two_pi_sq"),
        ("lshape", "neumann", "tensor", 3, 2, "lshape_neumann_1"),
        ("lshape", "neumann", "serendipity", 5, 1, "lshape_neumann_4"),
    ],
)


class TestDenseWindow:
    """Targeted solves of at most DENSE_MAX_DOFS DOFs: one LAPACK call whose
    every pair is finished and checked, as the full spectrum's are."""

    @DENSE_CASES
    def test_matches_shift_invert(self, monkeypatch, domain, bc, family, p, N, preset):
        # the shift-invert window against the K nearest pairs of the dense result
        target = TARGET_PRESETS[preset]
        system = general(domain, bc, family, p, N)
        dense = solve_generalized(system, target=target)
        assert K < len(dense) == dense.ndofs <= eigensolve.DENSE_MAX_DOFS
        monkeypatch.setattr(eigensolve, "DENSE_MAX_DOFS", 0)
        forced = solve_generalized(system, target=target)
        assert dense.target == forced.target == target
        expected = dense.eigenvalues[nearest(dense, target)]
        scale = np.maximum(np.abs(forced.eigenvalues), target)
        assert (np.abs(expected - forced.eigenvalues) <= 1e-10 * scale).all()
        assert (dense.backward_error <= BACKWARD_ERROR_TOL).all()

    @DENSE_CASES
    def test_targeted_equals_untargeted(self, domain, bc, family, p, N, preset):
        # the target only labels a dense result; select_near on it picks,
        # bit for bit, what a K-pair window of the same eigh call gives
        target = TARGET_PRESETS[preset]
        system = general(domain, bc, family, p, N)
        targeted, full = solve_generalized(system, target=target), solve_generalized(system)
        for field in ("eigenvalues", "eigenvectors", "backward_error"):
            assert np.array_equal(getattr(targeted, field), getattr(full, field))
        w, V = scipy.linalg.eigh(system.L.toarray(), system.M.toarray())
        window_columns = np.lexsort((w, np.abs(w - target)))[:K]
        window = eigensolve._finish(system, target, V[:, window_columns])
        assert select_near(targeted, target) == select_near(window, target)

    def test_gate_fires_when_eigh_is_perturbed(self, monkeypatch):
        real = eigensolve.eigh

        def perturbed(*args, **kwargs):
            w, V = real(*args, **kwargs)
            return w, spoil(V)

        monkeypatch.setattr(eigensolve, "eigh", perturbed)
        system = general("square", "dirichlet", "tensor", 2, 3)
        result = solve_generalized(system, target=TWO_PI_SQ)
        assert result.ndofs <= eigensolve.DENSE_MAX_DOFS
        with pytest.raises(SolveNotConverged, match="backward error"):
            select_near(result, TWO_PI_SQ)

    def test_small_system_returns_all_pairs(self):
        # one free DOF: the window is the whole spectrum, still checked
        system = general("square", "dirichlet", "tensor", 1, 2)
        result = solve_generalized(system, target=TWO_PI_SQ)
        assert result.target == TWO_PI_SQ
        assert result.eigenvalues.tolist() == pytest.approx([24.0], rel=1e-12)
        assert (result.backward_error <= BACKWARD_ERROR_TOL).all()

    def test_neumann_target_zero_returns_constant_mode(self, monkeypatch):
        # L is singular: the dense path returns its constant mode, where
        # shift-invert about 0 cannot factor L - 0 M
        system = general("square", "neumann", "tensor", 1, 1)
        result = solve_generalized(system, target=0.0)
        assert result.ndofs == 4
        assert abs(select_near(result, 0.0)[0]) < 1e-12
        monkeypatch.setattr(eigensolve, "DENSE_MAX_DOFS", 0)
        with pytest.raises(SingularShift):
            solve_generalized(system, target=0.0)


class TestSeparable:
    """Targeted solves of tensor systems on the square: eigenpairs from the
    1D pencil, finished and gated on the assembled one."""

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("p", [*P_RANGE, 7, 8])
    def test_agrees_with_general_path(self, bc, p):
        # only the selected members are compared: the far member of a window
        # can be a near-tie (Dirichlet p = 6, N = 5 about 5 pi^2 keeps 2 pi^2
        # on one path and 8 pi^2 on the other)
        for N in N_RANGE:
            if (bc, p, N) == ("dirichlet", 1, 1):
                continue  # no free DOF
            system = assembled("square", bc, "tensor", p, N)
            assert system.factor is not None
            without = dataclasses.replace(system, factor=None)
            for target in TARGET_PRESETS.values():
                # select_near raises if a selected backward error is outside the gate
                lam = select_near(solve_generalized(system, target=target), target)[0]
                expected = select_near(solve_generalized(without, target=target), target)[0]
                assert abs(lam - expected) <= 1e-12 * max(abs(expected), target)

    def test_both_copies_of_five_pi_sq(self, monkeypatch):
        # the separable path ignores DENSE_MAX_DOFS
        monkeypatch.setattr(eigensolve, "DENSE_MAX_DOFS", 0)
        system = assembled("square", "dirichlet", "tensor", 3, 3)
        window = solve_generalized(system, target=FIVE_PI_SQ)
        dense = solve_generalized(system)
        ours = window.eigenvalues[nearest(window, FIVE_PI_SQ, 2)]
        theirs = dense.eigenvalues[nearest(dense, FIVE_PI_SQ, 2)]
        assert ours == pytest.approx(theirs, rel=1e-10, abs=0)
        assert abs(ours[1] - ours[0]) < 1e-9 * ours[0]

    def test_small_system_returns_all_pairs(self):
        # one free DOF: the 1D pencil has one free DOF too
        system = assembled("square", "dirichlet", "tensor", 1, 2)
        assert system.factor.mass.shape == (1, 1)
        result = solve_generalized(system, target=TWO_PI_SQ)
        assert result.eigenvalues.tolist() == pytest.approx([24.0], rel=1e-12)
        assert (result.backward_error <= BACKWARD_ERROR_TOL).all()

    def test_gate_fires_when_line_vectors_are_spoiled(self, monkeypatch):
        real, shapes = eigensolve.eigh, []

        def perturbed(*args, **kwargs):
            shapes.append(args[0].shape)
            w, V = real(*args, **kwargs)
            return w, spoil(V)

        monkeypatch.setattr(eigensolve, "eigh", perturbed)
        system = assembled("square", "dirichlet", "tensor", 2, 3)
        result = solve_generalized(system, target=TWO_PI_SQ)
        assert shapes == [(5, 5)]  # one eigh, of the free 1D pencil
        with pytest.raises(SolveNotConverged, match="backward error"):
            select_near(result, TWO_PI_SQ)

    def test_indefinite_line_mass_raises(self):
        system = assembled("square", "dirichlet", "tensor", 2, 3)
        mass = system.factor.mass.copy()
        mass[2, 2] = -mass[2, 2]
        broken = dataclasses.replace(system, factor=dataclasses.replace(system.factor, mass=mass))
        with pytest.raises(MassNotPD):
            solve_generalized(broken, target=TWO_PI_SQ)

    @pytest.mark.parametrize("p, N", [(1, 1), (3, 2)])
    def test_neumann_target_zero_returns_constant_mode(self, monkeypatch, p, N):
        # no factorization of L - 0 M, so no SingularShift at any size
        monkeypatch.setattr(eigensolve, "DENSE_MAX_DOFS", 0)
        system = assembled("square", "neumann", "tensor", p, N)
        result = solve_generalized(system, target=0.0)
        assert abs(select_near(result, 0.0)[0]) < 1e-12
        v = result.eigenvectors[:, 0]
        # the constant mode takes one value at every vertex
        mesh = build_mesh("square", N)
        vertex_values = v[: mesh.n_vertices]
        assert np.ptp(vertex_values) < 1e-12 * np.abs(vertex_values).max()


class TestRayleighQuotient:
    # L-shape Neumann tensor p = 5, N = 1 (96 DOFs) at lambda_1: LAPACK's
    # eigenvalue is about 1.5e-13 relative from the Rayleigh quotient of its
    # own vector
    @pytest.mark.parametrize(
        "threshold", [eigensolve.DENSE_MAX_DOFS, 0], ids=["dense", "shift-invert"]
    )
    def test_returns_rayleigh_quotient(self, monkeypatch, threshold):
        monkeypatch.setattr(eigensolve, "DENSE_MAX_DOFS", threshold)
        target = TARGET_PRESETS["lshape_neumann_1"]
        mesh = build_mesh("lshape", 1)
        dm = build_dof_map(mesh, "tensor", 5)
        system = assemble(mesh, dm, reference_matrices("tensor", 5), "neumann")
        result = solve_generalized(system, target=target)
        for k in nearest(result, target):
            exact = exact_rayleigh_quotient(system, result.eigenvectors[:, k])
            assert abs(result.eigenvalues[k] - exact) <= 1e-14 * max(abs(exact), target)
        if threshold:
            lapack = scipy.linalg.eigh(system.L.toarray(), system.M.toarray())[0]
            k = nearest(result, target, 1)[0]
            exact = exact_rayleigh_quotient(system, result.eigenvectors[:, k])
            lapack_nearest = lapack[np.argmin(np.abs(lapack - target))]
            assert abs(lapack_nearest - exact) > 1e-14 * exact


class TestSelectNear:
    def test_nearest(self):
        result = values_result([0.0, 9.9, 19.8, 19.9])
        assert select_near(result, TWO_PI_SQ) == [19.8]

    def test_single_candidate(self):
        result = solve_configuration("square", "dirichlet", "tensor", 1, 2)
        assert select_near(result, TWO_PI_SQ) == [24.0]

    def test_gate_reads_the_selected_pair_only(self):
        result = values_result([1.0, 5.0, 9.0, 9.5], [np.nan, 1e-7, 0.0, 0.0])
        assert select_near(result, 9.2) == [9.0]
        for target in (1.0, 5.0):
            with pytest.raises(SolveNotConverged, match="backward error"):
                select_near(result, target)

    def test_tie_breaks_to_smaller(self):
        result = values_result([1.0, 3.0])
        assert select_near(result, 2.0) == [1.0]

    def test_insufficient(self):
        with pytest.raises(InsufficientSpectrum):
            select_near(values_result([]), 1.0)

    def test_lshape_benchmark_nearest_improves(self):
        target = 1.4756218239
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
        permuted = GlobalSystem(P @ system.M @ P.T, P @ system.L @ P.T)
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
        scaled = GlobalSystem(scale @ system.M @ scale, scale @ system.L @ scale)
        other = solve_generalized(scaled).eigenvalues
        assert np.abs((base - other) / np.maximum(np.abs(base), 1.0)).max() < 1e-9

    def test_nonnegative_spectrum(self):
        result = solve_configuration("square", "neumann", "tensor", 3, 2)
        scale = result.eigenvalues.max()
        assert result.eigenvalues.min() >= -1e-9 * scale
