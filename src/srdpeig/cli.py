"""Command-line interface: refinement studies, basis catalogs, spectra,
mesh and matrix dumps."""

from __future__ import annotations

import argparse
import json
import sys

from .assembly import assemble, reference_matrices, write_matrix_coo
from .basis2d import BasisArray
from .mesh import build_dof_map, build_mesh, dump_mesh_text, reference_basis
from .studies import (
    FAMILIES,
    StudySpec,
    resolve_target,
    run_study,
    spectrum_report,
)


def format_basis_text(basis: BasisArray) -> str:
    """Human-readable catalog: one factored line per nonzero slot."""
    lines = [f"{basis.family} basis, order {basis.p}, {basis.count_nonzero} functions"]
    for i, j in basis.nonzero_slots():
        content, primitive = basis.entry(i, j).content_and_primitive()
        if content == 1:
            body = str(primitive)
        else:
            body = f"({content}) * ({primitive})"
        lines.append(f"[{i},{j}] {body}")
    return "\n".join(lines) + "\n"


def format_basis_records(basis: BasisArray) -> str:
    """Machine-readable catalog: one JSON record per nonzero slot.

    Each record carries the slot indices and the exact coefficient list as
    [exp_x, exp_y, numerator, denominator] quadruples.
    """
    lines = []
    for i, j in basis.nonzero_slots():
        terms = [
            [ex, ey, c.numerator, c.denominator]
            for (ex, ey), c in sorted(basis.entry(i, j).terms.items())
        ]
        lines.append(
            json.dumps({"family": basis.family, "p": basis.p, "i": i, "j": j, "terms": terms})
        )
    return "\n".join(lines) + "\n"


def _cmd_study(args: argparse.Namespace) -> int:
    families = FAMILIES if args.family == "both" else (args.family,)
    spec = StudySpec(
        domain=args.domain,
        bc=args.bc,
        families=families,
        target=resolve_target(args.target),
        sweep=args.sweep,
        fixed=args.fixed,
        csv_path=args.csv,
        plot_path=args.plot,
    )
    rows = run_study(spec)
    print(f"wrote {len(rows)} rows to {args.csv}")
    if args.plot:
        print(f"wrote plot to {args.plot}")
    return 0


def _cmd_basis(args: argparse.Namespace) -> int:
    basis = reference_basis(args.family, args.p)
    if args.format == "records":
        sys.stdout.write(format_basis_records(basis))
    else:
        sys.stdout.write(format_basis_text(basis))
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    rows = spectrum_report("square", args.bc, args.p, args.n, args.count)
    families = list(rows[0].computed) if rows else []
    header = "index  exact" + "".join(f"  {f}" for f in families)
    print(header)
    for row in rows:
        cells = "".join(f"  {row.computed[f]:.12g}" for f in families)
        print(f"{row.index}  {row.exact:.12g}{cells}")
    return 0


def _cmd_mesh(args: argparse.Namespace) -> int:
    sys.stdout.write(dump_mesh_text(build_mesh(args.domain, args.n)))
    return 0


def _cmd_matrices(args: argparse.Namespace) -> int:
    mesh = build_mesh(args.domain, args.n)
    dofmap = build_dof_map(mesh, args.family, args.p)
    system = assemble(mesh, dofmap, reference_matrices(args.family, args.p), args.bc)
    mass_path = f"{args.out}_mass.txt"
    stiffness_path = f"{args.out}_stiffness.txt"
    write_matrix_coo(system.M, mass_path)
    write_matrix_coo(system.L, stiffness_path)
    print(f"wrote {mass_path} and {stiffness_path} (dimension {system.dimension})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srdp-eig",
        description="Laplace eigenvalue studies with tensor-product and "
        "serendipity square elements",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    study = sub.add_parser("study", help="run a refinement study")
    study.add_argument("--domain", choices=("square", "lshape"), required=True)
    study.add_argument("--bc", choices=("dirichlet", "neumann"), required=True)
    study.add_argument(
        "--family", choices=("tensor", "serendipity", "both"), required=True
    )
    study.add_argument("--sweep", choices=("p", "h"), required=True)
    study.add_argument(
        "--fixed",
        type=int,
        required=True,
        help="fixed N for a p-sweep, fixed p for an h-sweep",
    )
    study.add_argument(
        "--target", required=True, help="eigenvalue target (float or preset name)"
    )
    study.add_argument("--csv", required=True, help="output CSV path")
    study.add_argument("--plot", default=None, help="optional output SVG path")
    study.set_defaults(func=_cmd_study)

    basis = sub.add_parser("basis", help="dump a reference basis catalog")
    basis.add_argument("--family", choices=("tensor", "serendipity"), required=True)
    basis.add_argument("--p", type=int, required=True)
    basis.add_argument("--format", choices=("text", "records"), default="text")
    basis.set_defaults(func=_cmd_basis)

    spectrum = sub.add_parser(
        "spectrum", help="compare computed and exact square-domain spectra"
    )
    spectrum.add_argument("--p", type=int, required=True)
    spectrum.add_argument("--n", type=int, required=True)
    spectrum.add_argument("--count", type=int, required=True)
    spectrum.add_argument("--bc", choices=("dirichlet", "neumann"), default="neumann")
    spectrum.set_defaults(func=_cmd_spectrum)

    mesh = sub.add_parser("mesh", help="dump mesh entities as plain text")
    mesh.add_argument("--domain", choices=("square", "lshape"), required=True)
    mesh.add_argument("--n", type=int, required=True)
    mesh.set_defaults(func=_cmd_mesh)

    matrices = sub.add_parser(
        "matrices", help="dump assembled matrices in coordinate text format"
    )
    matrices.add_argument("--domain", choices=("square", "lshape"), required=True)
    matrices.add_argument("--bc", choices=("dirichlet", "neumann"), required=True)
    matrices.add_argument("--family", choices=("tensor", "serendipity"), required=True)
    matrices.add_argument("--p", type=int, required=True)
    matrices.add_argument("--n", type=int, required=True)
    matrices.add_argument("--out", required=True, help="output path prefix")
    matrices.set_defaults(func=_cmd_matrices)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except Exception as exc:  # surface diagnostics, nonzero exit
        print(f"srdp-eig: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
