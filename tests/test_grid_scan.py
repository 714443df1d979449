"""Grid scan of the study configurations: every domain, boundary condition,
family, order p = 1..6 and mesh N = 1..5, at every target preset, is
solved to one pair, and that pair passes the accuracy gate.

2 domains x 2 BCs x 7 targets x 2 families x 6 orders x 5 meshes = 1,680
configurations (exact pi^2 is the preset `lshape_neumann_3`).  42 of them
are empty Dirichlet systems (`EMPTY_DIRICHLET`, at every target), so the
scan makes 1,638 targeted solves.  Tensor systems on the square take the
separable path; the others lie on both sides of `DENSE_MAX_DOFS`, so all
three targeted paths are scanned.  It takes about 5 s on 2 cores.
"""

from collections import Counter

import numpy as np
import pytest

import srdpeig.eigensolve as eigensolve
from srdpeig.assembly import EmptySystem, assemble, reference_matrices
from srdpeig.basis2d import FAMILIES
from srdpeig.eigensolve import (
    DENSE_MAX_DOFS,
    InsufficientSpectrum,
    MassNotPD,
    SingularShift,
    SolveNotConverged,
    select_near,
    solve_generalized,
)
from srdpeig.mesh import build_dof_map, build_mesh
from srdpeig.studies import N_RANGE, P_RANGE, TARGET_PRESETS

#: (family, p, N) whose Dirichlet elimination leaves no DOF: one element on
#: the square, three on the L-shape, and no interior or free edge DOF.
EMPTY_DIRICHLET = {
    "square": {
        ("tensor", 1, 1),
        ("serendipity", 1, 1),
        ("serendipity", 2, 1),
        ("serendipity", 3, 1),
    },
    "lshape": {("tensor", 1, 1), ("serendipity", 1, 1)},
}


#: The targeted paths of `solve_generalized`, by the private function that
#: runs each.
PATHS = ("_solve_separable", "_solve_dense", "_solve_near")


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("domain", ["square", "lshape"])
def test_every_configuration_solves(monkeypatch, domain, bc):
    paths = Counter()
    for name in PATHS:

        def counted(*args, _real=getattr(eigensolve, name), _name=name):
            paths[_name] += 1
            return _real(*args)

        monkeypatch.setattr(eigensolve, name, counted)
    failures, empty, sizes = [], set(), set()
    for N in N_RANGE:
        mesh = build_mesh(domain, N)
        for family in FAMILIES:
            for p in P_RANGE:
                dofmap = build_dof_map(mesh, family, p)
                try:
                    system = assemble(mesh, dofmap, reference_matrices(family, p), bc)
                except EmptySystem:
                    empty.add((family, p, N))
                    continue
                sizes.add(system.dimension)
                for target in TARGET_PRESETS.values():
                    try:
                        result = solve_generalized(system, target=target)
                        assert len(result) == 1
                        lam = select_near(result, target)[0]
                    except (
                        SolveNotConverged,
                        MassNotPD,
                        SingularShift,
                        InsufficientSpectrum,
                    ) as exc:
                        failures.append((family, p, N, target, repr(exc)))
                        continue
                    assert np.isfinite(lam)
    assert failures == []
    assert empty == (EMPTY_DIRICHLET[domain] if bc == "dirichlet" else set())
    assert min(sizes) <= DENSE_MAX_DOFS < max(sizes)
    # the square's tensor systems are separable; every other path is taken too
    assert set(paths) == (set(PATHS) if domain == "square" else set(PATHS[1:]))
