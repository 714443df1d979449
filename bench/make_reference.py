"""Write reference.json: the expected outputs of every benchmark workload.

Run from the repository root on a commit whose outputs are trusted:

    python3 bench/make_reference.py

It records, for the full and the tiny workloads, the ndofs and lambda_h of
each study point, a SHA-256 of the exact Fraction entries of each reference
matrix, and the fingerprint of each dumped matrix.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from srdpeig import assembly, mesh, studies  # noqa: E402
from srdpeig.eigensolve import select_near  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    out = {"commit": run.git_commit(), "points": {}, "digests": {}, "dumps": {}}
    for tiny in (False, True):
        for w in workloads.catalog(tiny).values():
            if isinstance(w, workloads.Study):
                target = studies.resolve_target(w.target)
                for family, p, N in w.points():
                    result = studies.solve_configuration(w.domain, w.bc, family, p, N)
                    key = workloads.point_key(w.domain, w.bc, w.target, family, p, N)
                    out["points"][key] = {
                        "ndofs": result.ndofs,
                        "lambda_h": select_near(result, target)[0],
                    }
            elif isinstance(w, workloads.ReferenceCold):
                for family in workloads.FAMILIES:
                    for p in w.ps:
                        lm = assembly.reference_matrices(family, p)
                        out["digests"][f"{family}/p{p}"] = workloads.matrix_digest(lm)
            else:
                m = mesh.build_mesh(w.domain, w.n)
                dofmap = mesh.build_dof_map(m, w.family, w.p)
                system = assembly.assemble(
                    m, dofmap, assembly.reference_matrices(w.family, w.p), w.bc
                )
                out["dumps"][workloads.dump_key(w.domain, w.bc, w.family, w.p, w.n)] = {
                    "mass": workloads.fingerprint(system.M),
                    "stiffness": workloads.fingerprint(system.L),
                }
    path = HERE / "reference.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
