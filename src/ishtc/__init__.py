"""Sparse recovery via iterative soft/hard thresholding with continuation.

The package solves y = Psi x + eta for a sparse x by running the thresholded
Landweber iteration along a geometrically decreasing regularization path
(ISTC for the l1 penalty, IHTC for the l0 penalty), with warm starts between
path points. It also ships the supporting pieces needed to study the solver:
sensing-operator abstractions (dense and partial-FFT/Haar), coherence
diagnostics, seeded problem generators, BIC model selection over the path,
reconstruction metrics, and a reproducible experiment harness.

The top level re-exports what a first solve needs; everything else is
imported from its own module (``ishtc.linop``, ``ishtc.modelselect``, ...).
"""

from ishtc.probgen import gen_problem
from ishtc.solver import SolverConfig, continuation_solve
from ishtc.thresholding import Penalty

__version__ = "0.1.0"

__all__ = ["Penalty", "SolverConfig", "continuation_solve", "gen_problem"]
