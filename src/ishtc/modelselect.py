"""Full-path runs with information-criterion selection of the stopping level.

When the noise norm is unknown there is no principled stopping level, so the
workflow is: run the continuation over at most a fixed number of levels
(ending where the support saturates), then score every recorded solution by
fit plus complexity and keep the best. The score is the extended
(high-dimensional) information criterion
``n * ln(RSS/n) + support_size * (ln(n) + 2*ln(p))``: with many more
candidate columns than samples, the classical ``ln(n)``-only complexity
charge demonstrably admits noise-fitting entries (measured on 500x1000
instances it never recovers the exact support), while the ``2*ln(p)`` term
prices the column-subset search. The formula is isolated here for easy
substitution; variants in the literature also differ by a noise-variance
factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple, Union

import numpy as np

from .solver import (
    DEFAULT_GAMMA,
    DEFAULT_KMAX,
    DEFAULT_PATH_LEN,
    PathResult,
    SolverConfig,
    continuation_solve,
    saturated,
)
from .linop import SensingOperator
from .storage import write_csv
from .thresholding import Penalty

#: Residual floor so a perfect fit scores finitely instead of log(0).
RSS_FLOOR = 1e-300

#: Scores within this fraction of the best one's magnitude (at least 1) count
#: as tied, so roundoff on a converged plateau does not decide the pick.
BIC_TIE_RTOL = 1e-9


@dataclass(frozen=True)
class BicScore:
    """Score record for one path entry (lower is better)."""

    lam: float
    score: float
    support_size: int
    residual_sq: float


def run_full_path(
    op: SensingOperator,
    y: np.ndarray,
    penalty: Penalty,
    gamma: float = DEFAULT_GAMMA,
    kmax: int = DEFAULT_KMAX,
    N: int = DEFAULT_PATH_LEN,
) -> PathResult:
    """Run at most ``N`` levels past the auto starting level (at most N+1
    records); the path ends at its first level with a saturated support."""
    config = SolverConfig(penalty=penalty, gamma=gamma, kmax=kmax, path_len_N=N)
    _, path = continuation_solve(op, y, config)
    return path


def bic_score(x: np.ndarray, residual_sq: float, n: int) -> float:
    """``n * ln(RSS/n) + ||x||_0 * (ln(n) + 2*ln(p))`` with ``p = len(x)``.

    +inf for a :func:`~ishtc.solver.saturated` support (larger than
    ``min(n, p)``): it can interpolate the data, so such models are excluded
    outright.
    """
    if residual_sq < 0:
        raise ValueError(f"squared residual must be >= 0, got {residual_sq}")
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    support_size = int(np.count_nonzero(x))
    if saturated(support_size, n, x.size):
        return math.inf
    rss = max(residual_sq, RSS_FLOOR)
    return n * math.log(rss / n) + support_size * (math.log(n) + 2.0 * math.log(x.size))


def select_bic(path: PathResult, y: np.ndarray) -> Tuple[float, np.ndarray, List[BicScore]]:
    """Score every path entry and return the minimizer.

    Scores within ``BIC_TIE_RTOL * max(1, |best|)`` of the best tie, and the
    largest level among them (the sparser side) wins, independent of path
    ordering. Residuals come from the path's per-level diagnostics.
    """
    if len(path) == 0:
        raise ValueError("empty path")
    n = int(np.asarray(y).shape[0])
    scores: List[BicScore] = []
    for lam, x, rnorm in zip(path.lambdas, path.solutions, path.residual_norms):
        residual_sq = float(rnorm) ** 2
        scores.append(BicScore(float(lam), bic_score(x, residual_sq, n),
                               int(np.count_nonzero(x)), residual_sq))
    top = min(r.score for r in scores)
    cutoff = top + BIC_TIE_RTOL * max(1.0, abs(top))
    best = max((i for i, r in enumerate(scores) if r.score <= cutoff), key=lambda i: scores[i].lam)
    return scores[best].lam, path.solutions[best].copy(), scores


def scores_to_csv(scores: List[BicScore], path: Union[str, Path]) -> None:
    """One row per path entry: level, support size, squared residual, score."""
    write_csv(path, "lambda,support_size,residual_sq,score",
              ((r.lam, r.support_size, r.residual_sq, r.score) for r in scores))
