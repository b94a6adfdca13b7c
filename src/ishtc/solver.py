"""Thresholded Landweber iterations on a geometric regularization path.

The main entry point is :func:`continuation_solve`: starting from ``x = 0``
at a large penalty level ``lambda0``, it repeatedly shrinks the level by a
factor ``gamma``, runs ``kmax`` fixed-stepsize thresholded gradient steps
warm-started from the previous level's solution, and records every per-level
estimate. Stopping is either at an explicit target level (such as the
noise-calibrated :func:`lambda_star` of :class:`TheoryParams`), or after at
most a fixed number of levels ("path" mode, for model selection afterwards).
A path-mode solve also ends at the first level whose support is
:func:`saturated`: model selection scores it +inf, and the later levels,
at smaller penalties, have been seen to stay saturated.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple, Union

import numpy as np

from .linop import SensingOperator
from .storage import write_csv
from .thresholding import Penalty, threshold_vector

#: Path defaults: per-level inner iterations, shrink factor, path length.
DEFAULT_KMAX = 5
DEFAULT_GAMMA = 0.8
DEFAULT_PATH_LEN = 100

#: Most inner steps (``kmax`` x levels) one solve may plan; a config past it
#: is refused before the first level instead of running without end.
MAX_INNER_STEPS = 10**6


class DivergenceError(RuntimeError):
    """Raised when a level ends with a residual norm that is not finite.

    With stepsize fixed at 1 the iteration is not guaranteed to descend, so
    outside the coherence regime it can blow up; the error names the penalty
    level and the inner step the check followed so experiment drivers can
    record the failure.
    """

    def __init__(self, lam: float, level: int, inner_k: int):
        super().__init__(
            f"non-finite residual norm at path level {level} (lambda={lam:.6g}), "
            f"after inner step {inner_k}"
        )
        self.lam = lam
        self.level = level
        self.inner_k = inner_k


@dataclass(frozen=True)
class SolverConfig:
    """Continuation parameters.

    ``lambda0`` is the starting level, or ``"auto"`` for the largest level at
    which 0 is still the exact minimizer (costs one adjoint matvec).
    ``lambda_star`` is the stopping level (e.g. from :func:`lambda_star`), or
    ``"path"`` to run at most ``path_len_N`` levels and leave the choice to
    model selection; the path ends earlier at its first :func:`saturated`
    level. Numeric levels must be finite and positive; ``kmax`` and
    ``path_len_N`` must be integers (not bools).
    """

    penalty: Penalty
    lambda0: Union[float, str] = "auto"
    gamma: float = DEFAULT_GAMMA
    kmax: int = DEFAULT_KMAX
    lambda_star: Union[float, str] = "path"
    path_len_N: int = DEFAULT_PATH_LEN

    def __post_init__(self) -> None:
        object.__setattr__(self, "penalty", Penalty(self.penalty))
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"shrink factor must lie in (0, 1), got {self.gamma}")
        for name in ("kmax", "path_len_N"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.kmax < 1:
            raise ValueError(f"inner iteration count must be >= 1, got {self.kmax}")
        if self.path_len_N < 0:
            raise ValueError(f"path length must be >= 0, got {self.path_len_N}")
        for name, word in (("lambda0", "auto"), ("lambda_star", "path")):
            value = getattr(self, name)
            if value != word if isinstance(value, str) else not 0 < value < math.inf:
                raise ValueError(f"{name} must be a finite positive number or {word!r}, "
                                 f"got {value!r}")
        if (
            not isinstance(self.lambda0, str)
            and not isinstance(self.lambda_star, str)
            and not self.lambda0 > self.lambda_star
        ):
            raise ValueError(
                f"lambda0 ({self.lambda0}) must exceed lambda_star ({self.lambda_star})"
            )


@dataclass(frozen=True)
class TheoryParams:
    """Coherence/noise constants behind the stopping level and error bound.

    ``mu`` is the operator's mutual coherence, ``s`` the true sparsity,
    ``c`` the stopping-rule constant, read as a level, ``epsilon`` the noise
    norm; building the params checks the coherence regime, and
    :meth:`validate` checks ``c``. Every rule below is one formula in the
    constant's cut ``t = penalty.threshold(c)`` (``c`` soft, ``sqrt(2c)``
    hard), because both thresholds obey the stability bound ``|y| + t``.
    """

    mu: float
    s: int
    c: float
    epsilon: float

    @property
    def mu_s(self) -> float:
        return self.mu * self.s

    def __post_init__(self) -> None:
        if self.mu < 0:
            raise ValueError(f"coherence must be >= 0, got {self.mu}")
        if self.s < 1:
            raise ValueError(f"sparsity must be >= 1, got {self.s}")
        if self.epsilon < 0:
            raise ValueError(f"noise norm must be >= 0, got {self.epsilon}")
        if not self.mu_s < 0.5:
            raise ValueError(f"guarantees need mu*s < 1/2, got mu*s = {self.mu_s:.6g}")

    def validate(self, penalty: Penalty) -> None:
        """Check that the constant's cut exceeds ``1/(1-2*mu*s)``."""
        lo = 1.0 / (1.0 - 2.0 * self.mu_s)
        t = penalty.threshold(self.c)
        if not t > lo:
            raise ValueError(f"{penalty.value} constant c = {self.c} cuts at {t:.6g}, which "
                             f"must exceed 1/(1-2*mu*s) = {lo:.6g}")


def lambda_star(theory: TheoryParams, penalty: Penalty) -> float:
    """Stopping level from the noise norm: the level that cuts at ``t * epsilon``,
    ``c * epsilon`` for the soft penalty and ``c * epsilon**2`` for the hard."""
    theory.validate(penalty)
    return penalty.level(penalty.threshold(theory.c) * theory.epsilon)


def gamma_lower_bound(theory: TheoryParams, penalty: Penalty) -> float:
    """Smallest admissible shrink factor under the recovery guarantee.

    Callers claiming the guarantee must configure ``gamma`` at or above this
    value (and below 1). It is the smallest per-level ratio of cuts,
    ``g = 2*mu*s/(1-1/t)``, read as a ratio of levels.
    """
    theory.validate(penalty)
    g = 2.0 * theory.mu_s / (1.0 - 1.0 / penalty.threshold(theory.c))
    return penalty.level(g) / penalty.level(1.0)


def theoretical_error_bound(theory: TheoryParams, penalty: Penalty) -> float:
    """Guaranteed sup-norm error of the returned solution.

    ``(t-1)*epsilon/(mu*s)`` for the constant's cut ``t``: ``c`` for the soft
    penalty, ``sqrt(2c)`` for the hard. This is a pure substitution, so
    boundary constants evaluate too (only ``t >= 1`` is required); only the
    helpers that claim the guarantee (``lambda_star``, ``gamma_lower_bound``)
    enforce the strict constant constraint.
    """
    ms = theory.mu_s
    if ms == 0:
        raise ValueError("bound undefined at zero coherence")
    t = penalty.threshold(theory.c)
    if t < 1.0:
        raise ValueError(f"{penalty.value} constant c = {theory.c} cuts at {t:.6g}, "
                         f"which must be >= 1")
    return (t - 1.0) * theory.epsilon / ms


def saturated(support_size: int, n: int, p: int) -> bool:
    """Whether a support is larger than ``min(n, p)``. Such a model can
    interpolate the data: BIC scores it +inf, and a path-mode solve ends at
    the first level that reaches it."""
    return support_size > min(n, p)


@dataclass
class PathResult:
    """Per-level record of one continuation run.

    Index 0 is the starting level (solution identically 0); every executed
    level appends one entry. ``matvec_cumulative`` counts the operator
    applications spent up to each level: 2 per inner iteration plus 1
    adjoint when ``lambda0`` was auto-derived, worked out from the planned
    levels, cut where the run stopped, rather than counted at run time. The
    residual norm of a level is that of the residual its last inner step
    carried, so it costs none.
    ``stop_reason`` says why the solve ended: ``"path_len"`` (a path-mode
    solve ran all its planned levels), ``"saturated"`` (a path-mode solve
    reached a :func:`saturated` support) or ``"lambda_star"`` (the next
    level would fall below a numeric stopping level).
    """

    lambdas: np.ndarray
    solutions: List[np.ndarray]
    residual_norms: np.ndarray
    objective_values: np.ndarray
    matvec_cumulative: np.ndarray
    stop_reason: str

    @property
    def supports(self) -> List[np.ndarray]:
        return [np.flatnonzero(x) for x in self.solutions]

    @property
    def n_matvec(self) -> int:
        return int(self.matvec_cumulative[-1])

    def __len__(self) -> int:
        return len(self.solutions)

    def to_csv(self, path: Union[str, Path]) -> None:
        """One row per level: level value, support size, residual norm,
        objective, cumulative matvec count."""
        write_csv(path, "lambda,support_size,residual_norm,objective,n_matvec_cumulative",
                  zip(self.lambdas, map(np.count_nonzero, self.solutions), self.residual_norms,
                      self.objective_values, self.matvec_cumulative))


def inner_iterate(
    op: SensingOperator,
    y: np.ndarray,
    x: np.ndarray,
    r: np.ndarray,
    lam: float,
    penalty: Penalty,
) -> Tuple[np.ndarray, np.ndarray]:
    """One thresholded gradient step at unit stepsize from ``x`` and its residual
    ``r = y - Psi x``; returns the new iterate and residual. Exactly 2 matvecs."""
    x_next = threshold_vector(x + op.apply_adjoint(r), lam, penalty)
    return x_next, y - op.apply(x_next)


def _plan(lam0: float, config: SolverConfig) -> List[float]:
    """Levels ``lam0, gamma*lam0, ...`` of one solve: ``path_len_N`` below ``lam0``
    in path mode, else every one still at or above the stop. A plan of more
    than :data:`MAX_INNER_STEPS` inner steps is refused with a ValueError."""
    cap = MAX_INNER_STEPS // config.kmax
    lambdas = [lam0]
    if config.lambda_star == "path":
        # Auto rule on all-zero data gives level 0; nothing to shrink toward.
        n_levels = config.path_len_N if lam0 > 0.0 else 0
        if n_levels <= cap:  # a longer path is refused before it is built
            for _ in range(n_levels):
                lambdas.append(config.gamma * lambdas[-1])
    else:
        # Every level at or above the stop, but at most one past the cap.
        lam_stop = float(config.lambda_star)
        while len(lambdas) <= cap + 1 and config.gamma * lambdas[-1] >= lam_stop:
            lambdas.append(config.gamma * lambdas[-1])
        n_levels = len(lambdas) - 1
    if n_levels > cap:
        raise ValueError(
            f"the solve would run more than {cap} levels of {config.kmax} inner steps, "
            f"over MAX_INNER_STEPS = {MAX_INNER_STEPS}"
        )
    return lambdas


def continuation_solve(
    op: SensingOperator,
    y: np.ndarray,
    config: SolverConfig,
) -> Tuple[np.ndarray, PathResult]:
    """Run the full continuation loop.

    Returns the final estimate and the per-level path. With a numeric
    stopping level the final estimate is the solution at the last level whose
    value is still >= the stopping level; in "path" mode it is the solution
    at the last of at most ``path_len_N`` levels, or, when the path ends at a
    :func:`saturated` level, at the level before it, the last one BIC can
    score (use BIC selection afterwards).

    Raises :class:`ValueError` on data whose norm is not finite or when the
    solve would plan more than :data:`MAX_INNER_STEPS` inner steps, and
    :class:`DivergenceError` when a level's residual norm is not finite.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (op.n,):
        raise ValueError(f"expected data of length {op.n}, got shape {y.shape}")
    # Refuses NaN, infinite and overflowing (above about 1e154) entries, warning-free.
    with np.errstate(over="ignore", invalid="ignore"):
        y_norm = float(np.linalg.norm(y))
    if not math.isfinite(y_norm):
        raise ValueError(f"data norm is {y_norm}: NaN, infinite or overflowing entries")

    auto = config.lambda0 == "auto"
    if auto:
        # Largest level at which thresholding Psi^t y yields exactly 0, so the
        # zero start is the true minimizer there.
        lam0 = config.penalty.level(float(np.max(np.abs(op.apply_adjoint(y)))))
    else:
        lam0 = float(config.lambda0)
    lambdas = _plan(lam0, config)

    path_mode = config.lambda_star == "path"
    stop_reason = "path_len" if path_mode else "lambda_star"
    x, r = np.zeros(op.p), y
    solutions = [x]
    residual_norms = [y_norm]
    objective_values = [0.5 * residual_norms[0] ** 2]
    for level, lam in enumerate(lambdas[1:], 1):
        # Overflow surfaces as the explicit divergence error below, so
        # numpy's own warnings are suppressed. A non-finite iterate makes the
        # carried residual non-finite, so one check of its norm covers both.
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(config.kmax):
                x, r = inner_iterate(op, y, x, r, lam, config.penalty)
            rnorm = float(np.linalg.norm(r))
        if not math.isfinite(rnorm):
            raise DivergenceError(lam, level, config.kmax)
        solutions.append(x)
        residual_norms.append(rnorm)
        objective_values.append(0.5 * rnorm ** 2 + lam * config.penalty.term(x))
        if path_mode and saturated(int(np.count_nonzero(x)), op.n, op.p):
            stop_reason = "saturated"
            break
    del lambdas[len(solutions):]  # the plan ends where the run stopped

    path = PathResult(
        lambdas=np.array(lambdas),
        solutions=solutions,
        residual_norms=np.array(residual_norms),
        objective_values=np.array(objective_values),
        matvec_cumulative=int(auto) + 2 * config.kmax * np.arange(len(lambdas), dtype=np.int64),
        stop_reason=stop_reason,
    )
    return solutions[-2 if stop_reason == "saturated" else -1].copy(), path

