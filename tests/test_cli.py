"""End-to-end checks of the srdp-eig command-line interface."""

import json
import math
from fractions import Fraction

import srdpeig.eigensolve as eigensolve
from srdpeig.basis2d import serendipity_basis
from srdpeig.cli import main
from srdpeig.polynomial import Polynomial
from srdpeig.studies import read_csv


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
    real = eigensolve.eigsh

    def perturbed(*args, **kwargs):
        w, V = real(*args, **kwargs)
        return w * (1 + 1e-4), V

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
            "tensor",
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
    lines = capsys.readouterr().out.strip().splitlines()
    basis = serendipity_basis(3)
    assert len(lines) == basis.count_nonzero
    for line in lines:
        record = json.loads(line)
        rebuilt = Polynomial(
            {(ex, ey): Fraction(num, den) for ex, ey, num, den in record["terms"]}
        )
        assert rebuilt == basis.entry(record["i"], record["j"])


def test_spectrum_table(capsys):
    assert main(["spectrum", "--p", "2", "--n", "2", "--count", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split() == ["index", "exact", "tensor", "serendipity"]
    assert len(lines) == 6


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
