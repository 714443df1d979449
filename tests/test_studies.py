"""Study driver: sweeps, CSV output, SVG plots, and spectrum tables."""

import dataclasses
import functools
import logging
import math
import os
import re
import resource
import subprocess
import sys
import textwrap
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from oracles import LShapeParticularSolutions, line_neumann_mu_1
import srdpeig.studies as studies
from srdpeig.assembly import assemble, reference_matrices
from srdpeig.eigensolve import InsufficientSpectrum, select_near, solve_generalized
from srdpeig.mesh import build_dof_map, build_mesh, dof_totals
from srdpeig.studies import (
    CSV_HEADER,
    P_RANGE,
    StudyRow,
    StudySpec,
    TARGET_PRESETS,
    exact_square_spectrum,
    plot_convergence,
    read_csv,
    resolve_target,
    run_study,
    spectrum_report,
    write_csv,
)

TWO_PI_SQ = 2 * math.pi**2
#: pi to 50 digits, so that PI**2 is exact far past every difference below
PI = Fraction("3.14159265358979323846264338327950288419716939937510")


class TestTargets:
    def test_presets(self):
        assert resolve_target("two_pi_sq") == TWO_PI_SQ
        assert resolve_target("lshape_neumann_1") == 1.47562182397
        assert resolve_target("lshape_neumann_2") == 3.53403136679
        assert resolve_target("lshape_neumann_3") == math.pi**2
        assert resolve_target("lshape_neumann_4") == 11.3894793979
        assert resolve_target("lshape_dirichlet_1") == 9.63972384402

    def test_float_literal(self):
        assert resolve_target("19.5") == 19.5
        assert resolve_target(7) == 7.0

    def test_unknown(self):
        with pytest.raises(ValueError):
            resolve_target("first_eigenvalue")

    def test_lshape_presets_match_extrapolation(self):
        """Re-derive the L-shape Neumann presets from tensor p = 8 solves at
        N = 2, 4, 8 by fitting lambda + c1 h^a + c2 h^b, with the corner's
        exponents (a, b) = (4/3, 8/3) for the first eigenvalue and (8/3, 16/3)
        for the second and fifth.  The fits give 1.475621822896,
        3.534031366786 and 11.389479397981."""
        fits = {
            "lshape_neumann_1": ((4 / 3, 8 / 3), 2e-9),
            "lshape_neumann_2": ((8 / 3, 16 / 3), 2e-10),
            "lshape_neumann_4": ((8 / 3, 16 / 3), 1e-10),
        }
        Ns = (2, 4, 8)
        computed = {name: [] for name in fits}
        for N in Ns:
            mesh = build_mesh("lshape", N)
            dofmap = build_dof_map(mesh, "tensor", 8)
            system = assemble(mesh, dofmap, reference_matrices("tensor", 8), "neumann")
            for name in fits:
                target = TARGET_PRESETS[name]
                result = solve_generalized(system, target=target)
                computed[name].append(select_near(result, target)[0])
        h = 1 / np.array(Ns, dtype=float)
        for name, ((a, b), tol) in fits.items():
            design = np.column_stack([np.ones(3), h**a, h**b])
            extrapolated = np.linalg.solve(design, computed[name])[0]
            assert abs(extrapolated - TARGET_PRESETS[name]) <= tol, (name, extrapolated)


#: The L-shape presets other than pi^2: the value of the method of
#: particular solutions at 60, 80 and 100 terms, which agree to 1e-13.
PARTICULAR_SOLUTIONS = {
    "lshape_neumann_1": 1.4756218239724,
    "lshape_neumann_2": 3.5340313667881,
    "lshape_neumann_4": 11.3894793979476,
    "lshape_dirichlet_1": 9.6397238440219,
}


@functools.cache
def particular_solutions(bc: str) -> LShapeParticularSolutions:
    return LShapeParticularSolutions(bc)


class TestParticularSolutions:
    """The L-shape presets against an expansion about the re-entrant corner
    with no finite elements in it; each search starts 1e-4 away."""

    @staticmethod
    def check_preset(name: str, bc: str, start: float) -> None:
        # each preset has 12 significant digits: it must lie within half a
        # unit of the 12th of the oracle's value
        preset = TARGET_PRESETS[name]
        lam = particular_solutions(bc).eigenvalue(preset + start)
        assert abs(lam - PARTICULAR_SOLUTIONS[name]) <= 1e-12, lam
        assert abs(lam - preset) <= 0.5 * 10.0 ** (math.floor(math.log10(preset)) - 11), lam

    @pytest.mark.parametrize(
        "name, start",
        [("lshape_neumann_1", 1e-4), ("lshape_neumann_2", -1e-4), ("lshape_neumann_4", 1e-4)],
    )
    def test_neumann_preset_within_its_precision(self, name, start):
        self.check_preset(name, "neumann", start)

    def test_dirichlet_preset_within_its_precision(self):
        self.check_preset("lshape_dirichlet_1", "dirichlet", -1e-4)

    @pytest.mark.parametrize(
        "bc, exact, start",
        [("neumann", math.pi**2, -1e-4), ("dirichlet", TWO_PI_SQ, 1e-4)],
        ids=["neumann-pi_sq", "dirichlet-two_pi_sq"],
    )
    def test_exact_eigenvalue(self, bc, exact, start):
        # cos(pi x) and cos(pi y), and sin(pi x) sin(pi y): the search
        # finds the closed form from a loose start
        lam = particular_solutions(bc).eigenvalue(exact + start)
        assert abs(lam - exact) <= 1e-12 * exact, lam


class TestExactSpectrum:
    def test_neumann_head(self):
        got = exact_square_spectrum("neumann", 9) / math.pi**2
        assert np.allclose(got, [0, 1, 1, 2, 4, 4, 5, 5, 8])

    def test_dirichlet_head(self):
        got = exact_square_spectrum("dirichlet", 8) / math.pi**2
        assert np.allclose(got, [2, 5, 5, 8, 10, 10, 13, 13])

    def test_long_list_is_sorted_and_complete(self):
        got = exact_square_spectrum("dirichlet", 300)
        assert len(got) == 300
        assert (np.diff(got) >= 0).all()

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one_rejected(self, count):
        with pytest.raises(ValueError, match="count must be >= 1"):
            exact_square_spectrum("neumann", count)


class TestRunStudy:
    def test_p_sweep_cardinality(self):
        spec = StudySpec(
            domain="square",
            bc="neumann",
            families=("tensor", "serendipity"),
            target=TWO_PI_SQ,
            sweep="p",
            fixed=2,
        )
        rows = run_study(spec)
        assert len(rows) == 12
        assert [r.family for r in rows[:6]] == ["tensor"] * 6
        assert [r.p for r in rows[:6]] == [1, 2, 3, 4, 5, 6]
        assert all(r.N == 2 for r in rows)

    def test_ndofs_match_closed_form(self):
        spec = StudySpec(
            domain="lshape",
            bc="neumann",
            families=("serendipity",),
            target=TWO_PI_SQ,
            sweep="p",
            fixed=1,
        )
        for row in run_study(spec):
            mesh = build_mesh("lshape", row.N)
            assert row.ndofs == dof_totals(mesh, row.family, row.p)

    def test_serendipity_needs_fewer_dofs(self):
        spec = StudySpec(
            domain="square",
            bc="neumann",
            families=("tensor", "serendipity"),
            target=TWO_PI_SQ,
            sweep="p",
            fixed=2,
        )
        rows = run_study(spec)
        tensor = {r.p: r.ndofs for r in rows if r.family == "tensor"}
        ser = {r.p: r.ndofs for r in rows if r.family == "serendipity"}
        assert tensor[1] == ser[1]
        for p in range(2, 7):
            assert ser[p] < tensor[p]

    @pytest.mark.parametrize("sweep, fixed, meshes", [("p", 2, 1), ("h", 2, 5)])
    def test_each_mesh_built_once(self, monkeypatch, sweep, fixed, meshes):
        built = []
        real = studies.build_mesh

        def counted(domain, N):
            built.append(N)
            return real(domain, N)

        monkeypatch.setattr(studies, "build_mesh", counted)
        spec = StudySpec(
            domain="square",
            bc="neumann",
            families=("tensor", "serendipity"),
            target=TWO_PI_SQ,
            sweep=sweep,
            fixed=fixed,
        )
        rows = run_study(spec)
        assert len(built) == meshes == len(set(built))
        assert len(rows) == 2 * len(spec.points())

    def test_large_mesh_dof_ratio(self):
        # at p = 6 the per-element ratio is 30/49; globally the shared
        # entities push the ratio below 0.55 already at N = 5
        mesh = build_mesh("square", 5)
        ratio = dof_totals(mesh, "serendipity", 6) / dof_totals(mesh, "tensor", 6)
        assert ratio == 486 / 961
        assert ratio < 0.55

    def test_degenerate_dirichlet_skipped_with_notice(self, caplog):
        spec = StudySpec(
            domain="square",
            bc="dirichlet",
            families=("tensor",),
            target=TWO_PI_SQ,
            sweep="h",
            fixed=1,
        )
        with caplog.at_level(logging.WARNING, logger="srdpeig.studies"):
            rows = run_study(spec)
        assert [r.N for r in rows] == [2, 3, 4, 5]  # N = 1 has no free DOFs
        assert any("skipping degenerate case" in rec.message for rec in caplog.records)

    def test_error_column_nonnegative_and_consistent(self):
        spec = StudySpec(
            domain="square",
            bc="dirichlet",
            families=("serendipity",),
            target=TWO_PI_SQ,
            sweep="h",
            fixed=2,
        )
        for row in run_study(spec):
            assert row.error == abs(row.lambda_h - TWO_PI_SQ) >= 0.0

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            StudySpec("square", "neumann", ("tensor",), 1.0, "p", 9)
        with pytest.raises(ValueError):
            StudySpec("square", "neumann", ("tensor",), 1.0, "x", 2)
        with pytest.raises(ValueError):
            StudySpec("disc", "neumann", ("tensor",), 1.0, "p", 2)
        with pytest.raises(ValueError, match="at least one family"):
            StudySpec("square", "neumann", (), 1.0, "p", 2)
        with pytest.raises(ValueError, match="repeat a family"):
            StudySpec("square", "neumann", ("tensor", "tensor"), 1.0, "p", 2)

    @pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
    def test_non_finite_target_rejected(self, target):
        with pytest.raises(ValueError, match=f"finite, got {target}"):
            StudySpec("square", "neumann", ("tensor",), target, "p", 2)

    def test_returns_rows_and_writes_nothing(self, monkeypatch):
        def no_file(*args):
            raise AssertionError("run_study wrote a file")

        monkeypatch.setattr(studies, "write_csv", no_file)
        monkeypatch.setattr(studies, "plot_convergence", no_file)
        spec = StudySpec("square", "neumann", ("serendipity",), TWO_PI_SQ, "p", 1)
        assert len(run_study(spec)) == len(P_RANGE)
        assert len(dataclasses.fields(StudySpec)) == 6


def lshape_neumann_p_rows(target: float) -> dict[int, dict[str, StudyRow]]:
    """Rows by p = 2..6 and family of the L-shape Neumann p-sweep at N = 2."""
    spec = StudySpec(
        domain="lshape",
        bc="neumann",
        families=("tensor", "serendipity"),
        target=target,
        sweep="p",
        fixed=2,
    )
    rows: dict[int, dict[str, StudyRow]] = {}
    for row in run_study(spec):
        if row.p >= 2:
            rows.setdefault(row.p, {})[row.family] = row
    return rows


class TestSameApproximationFewerDofs:
    """A discrete Neumann eigenfunction u(x) of the order-p, N-cell interval,
    mirrored onto [0, 2], is an exact Galerkin eigenfunction u(x) * 1 of both
    families on the L-shape: each unit column sees the 1D eigenfunction, and
    the serendipity space holds every polynomial of degree <= p in x alone.
    So the pi^2 rows of both families are the 1D eigenvalue mu_1, while
    serendipity has fewer DOFs."""

    @pytest.mark.parametrize(
        "p, dofs, gap",
        [
            (2, (65, 53), "7.424e-02"),
            (3, (133, 85), "1.348e-03"),
            (4, (225, 129), "1.348e-05"),
            (5, (341, 185), "8.503e-08"),
            (6, (481, 253), "3.698e-10"),
            (7, (645, 333), "1.177e-12"),
            (8, (833, 425), "2.860e-15"),
        ],
        ids=["p2", "p3", "p4", "p5", "p6", "p7", "p8"],
    )
    def test_pi_sq_rows_are_the_exact_1d_eigenvalue(self, p, dofs, gap):
        # mu_1 of the exact 1D pencil at N = 2 lies above pi^2, as a
        # conforming method's eigenvalue must; the float rows are checked
        # against it, not against pi^2, and serendipity has fewer DOFs
        lo, hi = line_neumann_mu_1(p)
        assert lo > PI**2 and f"{float(lo - PI**2):.3e}" == gap
        assert dofs[1] < dofs[0]
        for family, ndofs in zip(("tensor", "serendipity"), dofs):
            # StudySpec sweeps p <= 6, so each point is solved by configuration
            result = studies.solve_configuration(
                "lshape", "neumann", family, p, 2, target=math.pi**2
            )
            assert result.ndofs == ndofs
            lam = Fraction(select_near(result, math.pi**2)[0])
            assert lo - Fraction(1e-13) <= lam <= hi + Fraction(1e-13), (family, float(lam - lo))

    def test_two_pi_sq_rows_differ(self):
        # cos(pi x) cos(pi y) is no function of one variable, so the
        # families approximate it differently
        for p, by_family in lshape_neumann_p_rows(TWO_PI_SQ).items():
            tensor, serendipity = (by_family[f].lambda_h for f in ("tensor", "serendipity"))
            assert abs(tensor - serendipity) > 1e-9 * tensor, p


@pytest.mark.parametrize("sweep", ["p", "h"])
def test_lshape_dirichlet_rows_are_the_ground_state(sweep):
    # by min-max every discrete eigenvalue of a conforming method lies at or
    # above lambda_1, so the eigenvalue nearest lshape_dirichlet_1 is the first
    target = TARGET_PRESETS["lshape_dirichlet_1"]
    spec = StudySpec("lshape", "dirichlet", ("tensor", "serendipity"), target, sweep, 2)
    rows = run_study(spec)
    assert len(rows) == 2 * len(spec.points())
    for row in rows:
        first = studies.solve_configuration(
            "lshape", "dirichlet", row.family, row.p, row.N
        ).eigenvalues[0]
        assert row.lambda_h == pytest.approx(first, rel=1e-10, abs=0), row
        assert row.lambda_h > target, row


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 'select the k-th eigenvalue, not the eigenvalue nearest "
    "the target': coarse rows take a pi^2-mode value",
)
@pytest.mark.parametrize("p", [1, 2])
def test_lshape_neumann_rows_are_the_sixth_eigenvalue(p):
    # lshape_neumann_4 is the sixth Neumann eigenvalue counted with
    # multiplicity, the zero mode included
    spec = StudySpec(
        domain="lshape",
        bc="neumann",
        families=("tensor", "serendipity"),
        target=resolve_target("lshape_neumann_4"),
        sweep="h",
        fixed=p,
    )
    wrong = []
    for row in run_study(spec):
        sixth = studies.solve_configuration(
            "lshape", "neumann", row.family, row.p, row.N
        ).eigenvalues[5]
        if row.lambda_h != pytest.approx(sixth, rel=1e-9):
            wrong.append((row.family, row.N, row.lambda_h, sixth))
    assert wrong == []


class TestCsv:
    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv([], path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_single_row_two_lines(self, tmp_path):
        path = tmp_path / "one.csv"
        write_csv([StudyRow("tensor", 2, 3, 49, 19.75, 0.01)], path)
        assert len(path.read_text().splitlines()) == 2

    def test_roundtrip_exact(self, tmp_path):
        rows = [
            StudyRow("tensor", 3, 4, 169, 19.739253645081587, 4.4980e-05),
            StudyRow("serendipity", 5, 4, 233, 19.739208910196313, 1.0812e-07),
        ]
        path = tmp_path / "rt.csv"
        write_csv(rows, path)
        assert read_csv(path) == rows

    @pytest.mark.parametrize(
        "line, cause",
        [
            ("serendipity,5,4,233,19.7392", "not enough values"),
            ("", "not enough values"),
            ("tensor,3,4,169,19.7x,4.5e-05", "could not convert"),
            ("tensor,3,4,169,19.7,4.5e-05,1", "too many values"),
        ],
        ids=["truncated", "blank", "number", "extra-field"],
    )
    def test_malformed_row_names_file_and_line(self, tmp_path, line, cause):
        path = tmp_path / "bad.csv"
        write_csv([StudyRow("tensor", 2, 3, 49, 19.75, 0.01)], path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 3: ") + ".*" + cause):
            read_csv(path)

    def test_byte_determinism(self, tmp_path):
        spec = StudySpec(
            domain="square",
            bc="neumann",
            families=("serendipity",),
            target=TWO_PI_SQ,
            sweep="p",
            fixed=1,
        )
        rows = run_study(spec)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(rows, a)
        write_csv(run_study(spec), b)
        assert a.read_bytes() == b.read_bytes()


def _svg_counts(path) -> tuple[int, int]:
    tree = ET.parse(path)
    ns = "{http://www.w3.org/2000/svg}"
    polylines = tree.findall(f".//{ns}polyline")
    circles = tree.findall(f".//{ns}circle")
    return len(polylines), len(circles)


class TestPlot:
    def test_two_families_structure(self, tmp_path):
        rows = [
            StudyRow("tensor", p, 2, 10 * p, 20.0, 10.0 ** (-p)) for p in range(1, 7)
        ] + [
            StudyRow("serendipity", p, 2, 8 * p, 20.0, 10.0 ** (-p)) for p in range(1, 7)
        ]
        path = tmp_path / "chart.svg"
        plot_convergence(rows, path)
        polylines, circles = _svg_counts(path)
        assert polylines == 2
        assert circles == 12

    def test_single_row_marker_only(self, tmp_path):
        path = tmp_path / "single.svg"
        plot_convergence([StudyRow("tensor", 1, 2, 9, 24.0, 4.26)], path)
        polylines, circles = _svg_counts(path)
        assert polylines == 0
        assert circles == 1

    def test_zero_error_clamped(self, tmp_path):
        path = tmp_path / "clamp.svg"
        plot_convergence(
            [
                StudyRow("tensor", 1, 2, 9, 24.0, 0.0),
                StudyRow("tensor", 2, 2, 25, 20.0, 1e-2),
            ],
            path,
        )
        text = path.read_text()
        assert "nan" not in text and "inf" not in text

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            plot_convergence([], tmp_path / "never.svg")

    def test_errors_a_few_ulps_apart(self, tmp_path):
        """Two errors whose log10 values differ by a few ulps make a tick step
        below the spacing of the floats near -3, where a tick loop that adds
        the step never ends.  The chart of plot_convergence's two points is
        drawn in a child process capped at 1 GB of address space and 60 s,
        so such a loop fails the test instead of hanging the suite; the
        child imports only `srdpeig.svgplot`, which needs nothing but math,
        so no BLAS thread pool counts against the cap."""
        code = textwrap.dedent(
            """
            import math, sys
            from srdpeig.svgplot import line_chart
            low = high = 1e-3
            while math.log10(high) == math.log10(low):
                high = math.nextafter(high, 1)
            points = [(9.0, math.log10(low)), (25.0, math.log10(high))]
            line_chart({"tensor": points}, sys.argv[1])
            """
        )
        path = tmp_path / "flat.svg"
        env = {**os.environ, "PYTHONPATH": str(Path(studies.__file__).parents[1])}
        limit = (2**30, 2**30)
        subprocess.run(
            [sys.executable, "-c", code, str(path)],
            env=env,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, limit),
            timeout=60,
            check=True,
        )
        assert _svg_counts(path) == (1, 2)

    def test_title_and_axis_labels(self, tmp_path):
        path = tmp_path / "labels.svg"
        plot_convergence([StudyRow("tensor", 1, 2, 9, 24.0, 4.26)], path)
        texts = {t.text for t in ET.parse(path).iter("{http://www.w3.org/2000/svg}text")}
        assert {
            "eigenvalue error vs degrees of freedom",
            "free degrees of freedom",
            "log10 |eigenvalue error|",
        } <= texts


class TestSpectrumReport:
    def test_neumann_low_indices(self):
        exact, computed = spectrum_report("neumann", 2, 2, 5)
        assert len(exact) == 5 and exact[0] == 0.0
        assert list(computed) == ["tensor", "serendipity"]
        for values in computed.values():
            assert len(values) == 5 and abs(values[0]) < 1e-9
        assert exact[1] == exact[2] == pytest.approx(math.pi**2)

    def test_families_nearly_equal_at_low_indices(self):
        exact, computed = spectrum_report("neumann", 3, 5, 12)
        gap = np.abs(computed["tensor"] - computed["serendipity"])
        assert (gap[1:] <= 1e-3 * exact[1:]).all()

    def test_insufficient(self):
        with pytest.raises(
            InsufficientSpectrum,
            match=re.escape("tensor p=1 N=1 (square, neumann): 4 eigenvalues computed, 10 needed"),
        ):
            spectrum_report("neumann", 1, 1, 10)

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one_rejected_before_solving(self, monkeypatch, count):
        solves = []
        monkeypatch.setattr(
            studies, "solve_generalized", lambda *args, **kw: solves.append(args)
        )
        with pytest.raises(ValueError, match="count must be >= 1"):
            spectrum_report("neumann", 6, 5, count)
        assert solves == []
