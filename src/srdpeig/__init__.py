"""Square finite elements (tensor-product and serendipity) for Laplace
eigenvalue computation.

The pipeline: exact rational polynomials -> univariate interpolation bases
-> 2D basis arrays -> exact reference matrices -> sparse assembly on square
or L-shaped meshes -> generalized eigensolve (the eigenvalues nearest a
target, or the full spectrum) -> refinement studies.
"""

__version__ = "0.1.0"
