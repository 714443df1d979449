"""Square finite elements (tensor-product and serendipity) for Laplace
eigenvalue computation.

The pipeline: exact rational polynomials -> univariate interpolation bases
-> 2D basis arrays -> exact reference matrices -> sparse assembly on square
or L-shaped meshes -> generalized eigensolve (the eigenvalues nearest a
target, or the full spectrum) -> refinement studies.
"""

from .polynomial import (
    ONE,
    Polynomial,
    SingularSystem,
    X,
    Y,
    solve_rational_system,
    try_solve_rational_system,
)
from .basis1d import (
    InvalidIndex,
    Phi1D,
    generate_phi,
    interpolating_conditions,
)
from .basis2d import (
    BasisArray,
    DofKind,
    SpanReport,
    classify_dofs,
    coordinates_in_basis,
    serendipity_basis,
    span_check,
    tensor_basis,
)
from .mesh import (
    DofMap,
    Mesh,
    build_dof_map,
    build_mesh,
    dof_totals,
    dump_mesh_text,
)
from .assembly import (
    EmptySystem,
    GlobalSystem,
    LocalMatrices,
    assemble,
    constant_coefficient_vector,
    reference_matrices,
    scale_to_element,
    write_matrix_coo,
)
from .eigensolve import (
    EigenResult,
    InsufficientSpectrum,
    MassNotPD,
    SolveNotConverged,
    select_near,
    solve_generalized,
    spectrum_error_profile,
)
from .studies import (
    StudyRow,
    StudySpec,
    TARGET_PRESETS,
    exact_square_spectrum,
    plot_convergence,
    read_csv,
    resolve_target,
    run_study,
    solve_configuration,
    spectrum_report,
    write_csv,
)

__version__ = "0.1.0"
