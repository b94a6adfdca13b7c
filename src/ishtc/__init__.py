"""Sparse recovery via iterative soft/hard thresholding with continuation.

The package solves y = Psi x + eta for a sparse x by running the thresholded
Landweber iteration along a geometrically decreasing regularization path
(ISTC for the l1 penalty, IHTC for the l0 penalty), with warm starts between
path points. It also ships the supporting pieces needed to study the solver:
sensing-operator abstractions (dense and partial-FFT/Haar), coherence
diagnostics, seeded problem generators, BIC model selection over the path,
reconstruction metrics, and a reproducible experiment harness.
"""

from ishtc.linop import (
    CoherenceReport,
    SensingOperator,
    dense_operator,
    make_partial_fft_haar,
    mutual_coherence,
    normalize_columns,
)
from ishtc.metrics import Metrics, psnr, reconstruction_metrics
from ishtc.modelselect import BicScore, bic_score, run_full_path, select_bic
from ishtc.probgen import (
    Problem,
    gen_bernoulli_matrix,
    gen_correlated_gaussian,
    gen_gaussian_matrix,
    gen_problem,
    gen_sparse_signal,
)
from ishtc.solver import (
    DivergenceError,
    PathResult,
    SolverConfig,
    TheoryParams,
    baseline_solve,
    continuation_solve,
    gamma_lower_bound,
    inner_iterate,
    lambda_star,
    theoretical_error_bound,
)
from ishtc.thresholding import Penalty, hard_threshold, soft_threshold, threshold_vector

__version__ = "0.1.0"

__all__ = [
    "BicScore",
    "CoherenceReport",
    "DivergenceError",
    "Metrics",
    "PathResult",
    "Penalty",
    "Problem",
    "SensingOperator",
    "SolverConfig",
    "TheoryParams",
    "baseline_solve",
    "bic_score",
    "continuation_solve",
    "dense_operator",
    "gamma_lower_bound",
    "gen_bernoulli_matrix",
    "gen_correlated_gaussian",
    "gen_gaussian_matrix",
    "gen_problem",
    "gen_sparse_signal",
    "hard_threshold",
    "inner_iterate",
    "lambda_star",
    "make_partial_fft_haar",
    "mutual_coherence",
    "normalize_columns",
    "psnr",
    "reconstruction_metrics",
    "run_full_path",
    "select_bic",
    "soft_threshold",
    "theoretical_error_bound",
    "threshold_vector",
]
