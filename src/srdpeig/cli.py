"""Command-line interface: refinement studies, basis catalogs, spectra,
mesh and matrix dumps."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping

from . import studies
from .assembly import BOUNDARY_CONDITIONS, assemble, reference_matrices, write_matrix_coo
from .basis2d import FAMILIES, BasisArray
from .mesh import DOMAINS, build_dof_map, build_mesh, dump_mesh_text, reference_basis


Terms = Mapping[tuple[int, int], Fraction]


def _format_polynomial(terms: Terms) -> str:
    """Terms by descending total degree, then descending x degree, as in
    "x^2*y - 3/2*x + 1"."""
    text = ""
    for (i, j), c in sorted(terms.items(), key=lambda t: (-sum(t[0]), -t[0][0])):
        mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in (("x", i), ("y", j)) if e)
        factors = [mono] if abs(c) == 1 and mono else [str(abs(c)), mono]
        text += f" {'-' if c < 0 else '+'} " + "*".join(filter(None, factors))
    return text[3:] if text[1] == "+" else "-" + text[3:]


def _content_and_primitive(terms: Terms) -> tuple[Fraction, Terms]:
    """Split a nonzero polynomial into (scalar content, integer-coefficient
    polynomial); the content carries the sign of the leading term, so the
    primitive part leads with a positive coefficient."""
    content = Fraction(
        gcd(*(c.numerator for c in terms.values())),
        lcm(*(c.denominator for c in terms.values())),
    )
    if terms[max(terms, key=lambda e: (e[0] + e[1], e[0]))] < 0:
        content = -content
    return content, {e: c / content for e, c in terms.items()}


def format_basis_text(basis: BasisArray) -> str:
    """Human-readable catalog: one factored line per function."""
    lines = [f"{basis.family} basis, order {basis.p}, {basis.count_nonzero} functions"]
    for (i, j), terms in basis.functions.items():
        content, primitive = _content_and_primitive(terms)
        if content == 1:
            body = _format_polynomial(primitive)
        else:
            body = f"({content}) * ({_format_polynomial(primitive)})"
        lines.append(f"[{i},{j}] {body}")
    return "\n".join(lines) + "\n"


def format_basis_records(basis: BasisArray) -> str:
    """Machine-readable catalog: one JSON record per function.

    Each record carries the slot indices and the exact coefficient list as
    [exp_x, exp_y, numerator, denominator] quadruples.
    """
    lines = []
    for (i, j), poly in basis.functions.items():
        terms = [[ex, ey, c.numerator, c.denominator] for (ex, ey), c in sorted(poly.items())]
        lines.append(
            json.dumps({"family": basis.family, "p": basis.p, "i": i, "j": j, "terms": terms})
        )
    return "\n".join(lines) + "\n"


def _cmd_study(args: argparse.Namespace) -> int:
    families = FAMILIES if args.family == "both" else (args.family,)
    spec = studies.StudySpec(
        domain=args.domain,
        bc=args.bc,
        families=families,
        target=studies.resolve_target(args.target),
        sweep=args.sweep,
        fixed=args.fixed,
    )
    rows = studies.run_study(spec)
    # through the module, so that a tracer that rebinds these attributes
    # of `studies` (bench/tracing.py) sees the writes
    studies.write_csv(rows, args.csv)
    print(f"wrote {len(rows)} rows to {args.csv}")
    if args.plot:
        studies.plot_convergence(rows, args.plot)
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
    exact, computed = studies.spectrum_report(args.bc, args.p, args.n, args.count)
    print("index  exact" + "".join(f"  {f}" for f in computed))
    for k, value in enumerate(exact):
        cells = "".join(f"  {values[k]:.12g}" for values in computed.values())
        print(f"{k}  {value:.12g}{cells}")
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
    study.add_argument("--domain", choices=DOMAINS, required=True)
    study.add_argument("--bc", choices=BOUNDARY_CONDITIONS, required=True)
    study.add_argument("--family", choices=FAMILIES + ("both",), required=True)
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
    basis.add_argument("--family", choices=FAMILIES, required=True)
    basis.add_argument("--p", type=int, required=True)
    basis.add_argument("--format", choices=("text", "records"), default="text")
    basis.set_defaults(func=_cmd_basis)

    spectrum = sub.add_parser(
        "spectrum", help="compare computed and exact square-domain spectra"
    )
    spectrum.add_argument("--p", type=int, required=True)
    spectrum.add_argument("--n", type=int, required=True)
    spectrum.add_argument("--count", type=int, required=True)
    spectrum.add_argument("--bc", choices=BOUNDARY_CONDITIONS, default="neumann")
    spectrum.set_defaults(func=_cmd_spectrum)

    mesh = sub.add_parser("mesh", help="dump mesh entities as plain text")
    mesh.add_argument("--domain", choices=DOMAINS, required=True)
    mesh.add_argument("--n", type=int, required=True)
    mesh.set_defaults(func=_cmd_mesh)

    matrices = sub.add_parser(
        "matrices",
        help="dump assembled matrices in coordinate text format, one line per "
        "stored entry, exact zeros included",
    )
    matrices.add_argument("--domain", choices=DOMAINS, required=True)
    matrices.add_argument("--bc", choices=BOUNDARY_CONDITIONS, required=True)
    matrices.add_argument("--family", choices=FAMILIES, required=True)
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
