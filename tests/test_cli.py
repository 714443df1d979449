"""End-to-end checks of the srdp-eig command-line interface."""

import hashlib
import json
import math
from fractions import Fraction

import pytest

import srdpeig.eigensolve as eigensolve
import srdpeig.studies as studies
from srdpeig.basis2d import serendipity_basis
from srdpeig.cli import main
from srdpeig.eigensolve import select_near
from srdpeig.studies import TARGET_PRESETS, read_csv, solve_configuration


def test_study_writes_csv_and_plot(tmp_path, capsys):
    csv_path = tmp_path / "study.csv"
    svg_path = tmp_path / "study.svg"
    code = main(
        [
            "study",
            "--domain",
            "square",
            "--bc",
            "neumann",
            "--family",
            "both",
            "--sweep",
            "p",
            "--fixed",
            "2",
            "--target",
            "two_pi_sq",
            "--csv",
            str(csv_path),
            "--plot",
            str(svg_path),
        ]
    )
    assert code == 0
    rows = read_csv(csv_path)
    assert len(rows) == 12
    assert svg_path.exists()
    assert "wrote 12 rows" in capsys.readouterr().out


def test_study_writes_through_the_studies_module(tmp_path, monkeypatch, capsys):
    """`srdp-eig study` writes the CSV and the plot by calling
    `studies.write_csv` and `studies.plot_convergence` as module attributes,
    after `run_study` has returned its rows."""
    calls = []

    def recorder(name):
        real = getattr(studies, name)

        def record(rows, path):
            calls.append((name, len(rows), path))
            real(rows, path)

        return record

    for name in ("write_csv", "plot_convergence"):
        monkeypatch.setattr(studies, name, recorder(name))
    csv_path, svg_path = str(tmp_path / "s.csv"), str(tmp_path / "s.svg")
    argv = "study --domain square --bc neumann --family serendipity --sweep p --fixed 1"
    argv = argv.split() + ["--target", "two_pi_sq", "--csv", csv_path, "--plot", svg_path]
    assert main(argv) == 0
    assert calls == [("write_csv", 6, csv_path), ("plot_convergence", 6, svg_path)]
    assert capsys.readouterr().out == (
        f"wrote 6 rows to {csv_path}\nwrote plot to {svg_path}\n"
    )


def test_study_accepts_float_target(tmp_path):
    csv_path = tmp_path / "f.csv"
    code = main(
        [
            "study",
            "--domain",
            "square",
            "--bc",
            "dirichlet",
            "--family",
            "tensor",
            "--sweep",
            "h",
            "--fixed",
            "1",
            "--target",
            str(2 * math.pi**2),
            "--csv",
            str(csv_path),
        ]
    )
    assert code == 0
    assert len(read_csv(csv_path)) == 4  # N = 1 skipped as degenerate


def test_study_inaccurate_solve_exits_nonzero(tmp_path, monkeypatch, capsys):
    # serendipity: a tensor study on the square takes the separable path,
    # which never calls eigsh
    real = eigensolve.eigsh

    def perturbed(*args, **kwargs):
        # every other vector entry moved by 1e-4 relative: the residual grows
        # at first order, so the Rayleigh quotient cannot hide it
        w, V = real(*args, **kwargs)
        V = V.copy()
        V[::2] *= 1 + 1e-4
        return w, V

    monkeypatch.setattr(eigensolve, "DENSE_MAX_DOFS", 0)
    monkeypatch.setattr(eigensolve, "eigsh", perturbed)
    csv_path = tmp_path / "bad.csv"
    code = main(
        [
            "study",
            "--domain",
            "square",
            "--bc",
            "dirichlet",
            "--family",
            "serendipity",
            "--sweep",
            "h",
            "--fixed",
            "2",
            "--target",
            "two_pi_sq",
            "--csv",
            str(csv_path),
        ]
    )
    assert code == 1
    assert "backward error" in capsys.readouterr().err
    assert not csv_path.exists()


def test_study_target_near_eigenvalue_exits_zero(tmp_path):
    """At tensor p = 6, N = 2 the 5 pi^2 target lies about 1e-7 from the
    computed double eigenvalue.  The study takes the separable path on
    these systems; `test_eigensolve` solves the same systems by
    shift-invert, which converges one copy of the double eigenvalue."""
    csv_path = tmp_path / "five.csv"
    argv = "study --domain square --bc dirichlet --family tensor --sweep p --fixed 2"
    assert main(argv.split() + ["--target", "five_pi_sq", "--csv", str(csv_path)]) == 0
    rows = read_csv(csv_path)
    assert [r.p for r in rows] == [1, 2, 3, 4, 5, 6]
    target = TARGET_PRESETS["five_pi_sq"]
    for row in rows:
        dense = solve_configuration("square", "dirichlet", "tensor", row.p, 2)
        expected = select_near(dense, target)[0]
        assert abs(row.lambda_h - expected) <= 1e-10 * expected


@pytest.mark.parametrize(
    "sweep, fixed, allowed",
    [
        ("p", "9", "fixed N must be in (1, 2, 3, 4, 5)"),
        ("h", "7", "fixed p must be in (1, 2, 3, 4, 5, 6)"),
    ],
    ids=["p-sweep-N9", "h-sweep-p7"],
)
def test_study_fixed_out_of_range_exits_nonzero(tmp_path, capsys, sweep, fixed, allowed):
    csv_path = tmp_path / "never.csv"
    argv = ["study", "--domain", "square", "--bc", "neumann", "--family", "both"]
    argv += ["--sweep", sweep, "--fixed", fixed, "--target", "two_pi_sq", "--csv", str(csv_path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert allowed in captured.err
    assert not csv_path.exists()


def test_basis_text(capsys):
    assert main(["basis", "--family", "serendipity", "--p", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("serendipity basis, order 2, 8 functions")
    assert "[1,1]" in out and "[2,2]" not in out


def test_basis_records_reconstruct(capsys):
    assert (
        main(["basis", "--family", "serendipity", "--p", "3", "--format", "records"])
        == 0
    )
    records = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    functions = serendipity_basis(3).functions
    assert [(r["i"], r["j"]) for r in records] == list(functions)
    for record in records:
        rebuilt = {(ex, ey): Fraction(num, den) for ex, ey, num, den in record["terms"]}
        assert rebuilt == functions[record["i"], record["j"]]


#: sha256 of the `srdp-eig basis` output for p = 1..8 in turn, per family
#: and format: the catalog bytes are part of the interface.
BASIS_OUTPUT_SHA256 = {
    ("tensor", "text"): "c5dd2f78f2011a0875f28768231de438b1911490867ac71038ebab9a570fcf26",
    ("tensor", "records"): "97ac64d6ffbb80f8ccb24042303ca9e6a437e911ced78ebfe8d8f68440d46e5d",
    ("serendipity", "text"): "15cc78464344105591e113c4a8e00e1db762edb3557d20b9356b9a320bf019af",
    ("serendipity", "records"): "34d75dd537e394dae69a281390db8b287b36ca1793b671978dd08d8ffade42d5",
}


@pytest.mark.parametrize("family, fmt", sorted(BASIS_OUTPUT_SHA256))
def test_basis_output_bytes(capsys, family, fmt):
    digest = hashlib.sha256()
    for p in range(1, 9):
        assert main(["basis", "--family", family, "--p", str(p), "--format", fmt]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == BASIS_OUTPUT_SHA256[family, fmt]


def test_spectrum_table(capsys):
    assert main(["spectrum", "--p", "2", "--n", "2", "--count", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split() == ["index", "exact", "tensor", "serendipity"]
    assert len(lines) == 6


@pytest.mark.parametrize("count", ["0", "-1"])
def test_spectrum_count_below_one_exits_nonzero(capsys, count):
    assert main(["spectrum", "--p", "2", "--n", "2", "--count", count]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "count must be >= 1" in captured.err


def test_spectrum_inaccurate_pairs_exit_nonzero(monkeypatch, capsys):
    # the spectrum's dense eigh returns spoiled vectors: every other entry
    # moved by 1e-4 relative, so the printed pairs fail the backward error
    real = eigensolve.eigh

    def perturbed(*args, **kwargs):
        w, V = real(*args, **kwargs)
        V = V.copy()
        V[::2] *= 1 + 1e-4
        return w, V

    monkeypatch.setattr(eigensolve, "eigh", perturbed)
    assert main(["spectrum", "--p", "3", "--n", "3", "--count", "12", "--bc", "dirichlet"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tensor p=3 N=3 (square, dirichlet): eigenpairs have backward error" in captured.err


def test_study_failure_names_the_point(tmp_path, monkeypatch, capsys):
    # spoiled eigh vectors fail the gate at the first point of the sweep;
    # the error names that point, not only the solve's dimension and target
    real = eigensolve.eigh

    def perturbed(*args, **kwargs):
        w, V = real(*args, **kwargs)
        V = V.copy()
        V[::2] *= 1 + 1e-4
        return w, V

    monkeypatch.setattr(eigensolve, "eigh", perturbed)
    argv = ["study", "--domain", "lshape", "--bc", "neumann", "--family", "serendipity"]
    argv += ["--sweep", "p", "--fixed", "1", "--target", "lshape_neumann_1"]
    argv += ["--csv", str(tmp_path / "study.csv")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "serendipity p=1 N=1" in captured.err
    assert "backward error" in captured.err
    assert not (tmp_path / "study.csv").exists()


def test_mesh_dump(capsys):
    assert main(["mesh", "--domain", "lshape", "--n", "1"]) == 0
    out = capsys.readouterr().out
    assert "vertices 8  edges 10  elements 3" in out


def test_matrices_dump(tmp_path, capsys):
    prefix = tmp_path / "sys"
    code = main(
        [
            "matrices",
            "--domain",
            "square",
            "--bc",
            "dirichlet",
            "--family",
            "tensor",
            "--p",
            "1",
            "--n",
            "2",
            "--out",
            str(prefix),
        ]
    )
    assert code == 0
    mass = (tmp_path / "sys_mass.txt").read_text().split()
    assert mass[:2] == ["0", "0"]
    assert float(mass[2]) == 1 / 9


def test_error_exit_code(capsys):
    code = main(
        [
            "study",
            "--domain",
            "square",
            "--bc",
            "neumann",
            "--family",
            "tensor",
            "--sweep",
            "p",
            "--fixed",
            "2",
            "--target",
            "not_a_preset",
            "--csv",
            "/tmp/never.csv",
        ]
    )
    assert code == 1
    assert "error" in capsys.readouterr().err
