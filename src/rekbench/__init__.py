"""Randomized extended Kaczmarz solvers for least-squares problems.

The package provides one- and two-dimensional row/column action solvers
(REK, greedy, semi-randomized, and simple-random-sampling variants), the
matrix constants and contraction-rate bounds that govern their convergence,
problem generators (Gaussian, controlled-inconsistency, parallel-beam
tomography), Matrix Market I/O, and a benchmark CLI.
"""

from .linalg import (
    DenseMatrix,
    DualSparseMatrix,
    NormCache,
    build_norm_cache,
    direct_least_squares,
    gram_extreme_eigenvalues,
)
from .problems import (
    LsProblem,
    gen_gaussian,
    gen_parallel_beam,
    make_inconsistent_problem,
    read_matrix_market,
    shepp_logan,
    write_matrix_market,
)
from .solvers import RunRecord, SolverKind, SolverState, StopConfig, rse, solve, step
from .theory import (
    BoundRates,
    TheoryConstants,
    compute_constants,
    empirical_contraction,
    rates_all,
)

__all__ = [
    "DenseMatrix",
    "DualSparseMatrix",
    "NormCache",
    "build_norm_cache",
    "direct_least_squares",
    "gram_extreme_eigenvalues",
    "LsProblem",
    "gen_gaussian",
    "gen_parallel_beam",
    "make_inconsistent_problem",
    "read_matrix_market",
    "write_matrix_market",
    "shepp_logan",
    "SolverKind",
    "SolverState",
    "StopConfig",
    "RunRecord",
    "solve",
    "step",
    "rse",
    "TheoryConstants",
    "BoundRates",
    "compute_constants",
    "rates_all",
    "empirical_contraction",
]
