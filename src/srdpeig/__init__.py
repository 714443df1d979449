"""Square finite elements (tensor-product and serendipity) for Laplace
eigenvalue computation.

The pipeline: closed-form univariate bases in exact rationals -> exact
reference matrices, summed in integers from the 1D coefficient tables and the
signed 1D x 1D product rule of each family -> sparse assembly on square or
L-shaped meshes -> generalized eigensolve (checked eigenpairs: one pair per
targeted solve, the one nearest the target, from one 1D pencil for a tensor
system on the square, from shift-invert for a large system, else from one
dense call; every pair for a spectrum, from one dense call) -> refinement
studies.  The 2D bases are expanded into exact coefficient maps only for the
`srdp-eig basis` catalog and the tests.
"""

__version__ = "0.1.0"
