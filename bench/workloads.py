"""The benchmark's workloads: fixed paper configurations run through the
public API, each with the check that its outputs are correct.

A workload has ``setup()`` (the caches a user fills once per process),
``run(tmp)`` (one unit of work, the only timed part) and ``check(status,
tmp)``, which returns the number of items attempted and failed in that unit:
sweep points for a study, configurations for ``reference_cold`` and dumped
matrices for ``matrices_dump``.  Expected values come from ``reference.json``,
written by ``make_reference.py`` at the seed commit.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from srdpeig import assembly, basis1d, basis2d, cli, mesh, studies

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Relative tolerance on lambda_h.  Dense and shift-invert solves of the
#: same pencils agree to about 1e-11, so a valid solver swap passes.
LAMBDA_RTOL = 1e-8
#: Relative tolerance on the float fingerprints of dumped matrices.
FINGERPRINT_RTOL = 1e-12

FAMILIES = ("tensor", "serendipity")

# Captured at import, before a tracer replaces module attributes: the
# caches are cleared through the originals, and the output checks call
# the untraced readers and writers.
EXACT_CACHES = (basis1d.generate_phi, basis2d.serendipity_basis, assembly.reference_matrices)
READ_CSV = studies.read_csv
WRITE_CSV = studies.write_csv


@functools.cache
def _reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def _quiet_main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def point_key(domain, bc, target, family, p, N) -> str:
    return f"{domain}/{bc}/{target}/{family}/p{p}/N{N}"


def dump_key(domain, bc, family, p, N) -> str:
    return f"{domain}/{bc}/{family}/p{p}/N{N}"


def matrix_digest(lm) -> str:
    """SHA-256 of the exact Fraction entries of a LocalMatrices, row-major."""
    h = hashlib.sha256(repr(lm.slots).encode())
    for matrix in (lm.mass_ref, lm.stiffness_ref):
        for row in matrix:
            h.update(",".join(f"{v.numerator}/{v.denominator}" for v in row).encode())
            h.update(b";")
    return h.hexdigest()


def fingerprint(matrix: sp.spmatrix) -> dict:
    """Shape, nnz and float sums that identify an assembled matrix."""
    data = matrix.tocsr().data
    return {
        "dimension": int(matrix.shape[0]),
        "nnz": int(matrix.nnz),
        "abs_sum": float(np.abs(data).sum()),
        "sq_sum": float(np.square(data).sum()),
    }


def fingerprint_matches(got: dict, want: dict) -> bool:
    return (
        got["dimension"] == want["dimension"]
        and got["nnz"] == want["nnz"]
        and all(
            math.isclose(got[k], want[k], rel_tol=FINGERPRINT_RTOL)
            for k in ("abs_sum", "sq_sum")
        )
    )


class _Workload:
    name: str
    #: reference.json's content; None reads the file on first use.
    reference: dict | None = None

    def expect(self, section: str) -> dict:
        return (self.reference or _reference())[section]


class Study(_Workload):
    """One ``srdp-eig study`` run with CSV and plot written to a temp dir."""

    def __init__(self, name, domain, bc, sweep, fixed, target, ps, ns, reference=None):
        self.name = name
        self.domain, self.bc, self.sweep = domain, bc, sweep
        self.fixed, self.target = fixed, target
        self.ps, self.ns = tuple(ps), tuple(ns)
        self.reference = reference

    def points(self) -> list[tuple[str, int, int]]:
        return [(f, p, N) for f in FAMILIES for p in self.ps for N in self.ns]

    def setup(self) -> None:
        for family in FAMILIES:
            for p in self.ps:
                assembly.reference_matrices(family, p)

    def run(self, tmp: Path) -> int:
        return _quiet_main([
            "study", "--domain", self.domain, "--bc", self.bc, "--family", "both",
            "--sweep", self.sweep, "--fixed", str(self.fixed), "--target", self.target,
            "--csv", str(tmp / "study.csv"), "--plot", str(tmp / "study.svg"),
        ])

    def check(self, status: int, tmp: Path) -> tuple[int, int]:
        points = self.points()
        csv_path, svg_path = tmp / "study.csv", tmp / "study.svg"
        if status != 0 or not csv_path.is_file() or not svg_path.is_file():
            return len(points), len(points)
        if not svg_path.read_text(encoding="utf-8").lstrip().startswith("<"):
            return len(points), len(points)
        rows = READ_CSV(csv_path)
        WRITE_CSV(rows, tmp / "roundtrip.csv")
        if (tmp / "roundtrip.csv").read_bytes() != csv_path.read_bytes():
            return len(points), len(points)
        by_point = {(r.family, r.p, r.N): r for r in rows}
        # Duplicated and unexpected rows count as failures too.
        failed = len(rows) - len(by_point) + len(by_point.keys() - set(points))
        expected = self.expect("points")
        for family, p, N in points:
            row = by_point.get((family, p, N))
            want = expected[point_key(self.domain, self.bc, self.target, family, p, N)]
            if (
                row is None
                or row.ndofs != want["ndofs"]
                or not math.isclose(row.lambda_h, want["lambda_h"], rel_tol=LAMBDA_RTOL)
            ):
                failed += 1
        return len(points), min(failed, len(points))


class ReferenceCold(_Workload):
    """Exact reference matrices for both families rebuilt from empty caches."""

    def __init__(self, name, ps, reference=None):
        self.name = name
        self.ps = tuple(ps)
        self.reference = reference
        self._built: list = []

    def setup(self) -> None:
        pass  # every unit starts from empty caches

    def run(self, tmp: Path) -> int:
        self._built = []
        for cached in EXACT_CACHES:
            cached.cache_clear()
        # Looked up on the module at call time, so a tracer sees the call.
        self._built = [
            ((f, p), assembly.reference_matrices(f, p)) for f in FAMILIES for p in self.ps
        ]
        return 0

    def check(self, status: int, tmp: Path) -> tuple[int, int]:
        built = dict(self._built) if status == 0 else {}
        digests = self.expect("digests")
        failed = 0
        for f in FAMILIES:
            for p in self.ps:
                lm = built.get((f, p))
                if lm is None or matrix_digest(lm) != digests[f"{f}/p{p}"]:
                    failed += 1
        return len(FAMILIES) * len(self.ps), failed


class MatricesDump(_Workload):
    """One ``srdp-eig matrices`` run writing mass and stiffness as COO text."""

    def __init__(self, name, domain, bc, family, p, n, reference=None):
        self.name = name
        self.domain, self.bc, self.family, self.p, self.n = domain, bc, family, p, n
        self.reference = reference
        self._expected: dict | None = None
        self._verified: dict[str, bytes] = {}  # kind -> SHA-256 of a dump that passed

    def setup(self) -> None:
        assembly.reference_matrices(self.family, self.p)

    def run(self, tmp: Path) -> int:
        return _quiet_main([
            "matrices", "--domain", self.domain, "--bc", self.bc, "--family", self.family,
            "--p", str(self.p), "--n", str(self.n), "--out", str(tmp / "dump"),
        ])

    def expected(self) -> dict:
        """The assembled matrices, checked once against the seed fingerprints."""
        if self._expected is None:
            m = mesh.build_mesh(self.domain, self.n)
            dofmap = mesh.build_dof_map(m, self.family, self.p)
            system = assembly.assemble(
                m, dofmap, assembly.reference_matrices(self.family, self.p), self.bc
            )
            want = self.expect("dumps")[dump_key(self.domain, self.bc, self.family, self.p, self.n)]
            self._expected = {
                kind: matrix if fingerprint_matches(fingerprint(matrix), want[kind]) else None
                for kind, matrix in (("mass", system.M), ("stiffness", system.L))
            }
        return self._expected

    def check(self, status: int, tmp: Path) -> tuple[int, int]:
        failed = 0
        for kind, want in self.expected().items():
            path = tmp / f"dump_{kind}.txt"
            if status != 0 or want is None or not path.is_file():
                failed += 1
                continue
            text = path.read_bytes()
            digest = hashlib.sha256(text).digest()
            # Bytes identical to a dump already read back in full pass as is.
            if digest == self._verified.get(kind):
                continue
            if self._reads_back_as(text, want):
                self._verified[kind] = digest
            else:
                failed += 1
        return 2, failed

    @staticmethod
    def _reads_back_as(text: bytes, want: sp.csr_matrix) -> bool:
        """One line per nonzero, and the parsed triples equal ``want`` exactly."""
        values = np.fromstring(text, dtype=float, sep=" ")
        if text.count(b"\n") != want.nnz or values.size != 3 * want.nnz:
            return False
        triples = values.reshape(-1, 3)
        got = sp.csr_matrix(
            (triples[:, 2], (triples[:, 0].astype(np.int64), triples[:, 1].astype(np.int64))),
            shape=want.shape,
        )
        return (got != want).nnz == 0


#: Tiny ranges (p <= 2, N <= 2) for the smoke test.  The tiny study sweeps
#: need studies.P_RANGE and N_RANGE narrowed to the same ranges.
TINY_P_RANGE = (1, 2)
TINY_N_RANGE = (1, 2)


def catalog(tiny: bool = False) -> dict:
    """Fresh workload objects by name; ``tiny`` gives the smoke-test sizes."""
    if tiny:
        workloads = (
            Study("lshape_p_sweep", "lshape", "neumann", "p", 1, "lshape_neumann_1",
                  ps=TINY_P_RANGE, ns=[1]),
            Study("square_h_sweep", "square", "neumann", "h", 2, "two_pi_sq",
                  ps=[2], ns=TINY_N_RANGE),
            ReferenceCold("reference_cold", ps=TINY_P_RANGE),
            MatricesDump("matrices_dump", "lshape", "dirichlet", "tensor", 2, 2),
        )
    else:
        workloads = (
            Study("lshape_p_sweep", "lshape", "neumann", "p", 5, "lshape_neumann_1",
                  ps=range(1, 7), ns=[5]),
            Study("square_h_sweep", "square", "dirichlet", "h", 6, "two_pi_sq",
                  ps=[6], ns=range(1, 6)),
            ReferenceCold("reference_cold", ps=range(1, 7)),
            MatricesDump("matrices_dump", "lshape", "dirichlet", "tensor", 4, 16),
        )
    return {w.name: w for w in workloads}
