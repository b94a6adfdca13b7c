"""Thresholded Landweber iterations on a geometric regularization path.

The main entry point is :func:`continuation_solve`: starting from ``x = 0``
at a large penalty level ``lambda0``, it repeatedly shrinks the level by a
factor ``gamma``, runs ``kmax`` fixed-stepsize thresholded gradient steps
warm-started from the previous level's solution, and records every per-level
estimate. Stopping is either at an explicit target level (such as the
noise-calibrated :func:`lambda_star` of :class:`TheoryParams`), or after at
most a fixed number of levels ("path" mode, for model selection afterwards).
Every solve also ends at the first level whose support is :func:`saturated`:
model selection scores it +inf, and the later levels have been seen to stay
saturated or blow up.

Every step is :func:`inner_iterate`, and each level forms one residual
``y - Psi x`` at its last iterate, for the divergence check, the path record
and the next level's first step. How a step forms its gradient is the
operator's route rule (:meth:`ishtc.linop.SensingOperator.cached_route`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, List, Optional, Tuple, Union

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


def _check_count(name: str, value: Any, floor: int) -> None:
    """Refuse a count that is a bool, not an integer, or below ``floor``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < floor:
        raise ValueError(f"{name} must be >= {floor}, got {value}")


@dataclass(frozen=True)
class SolverConfig:
    """Continuation parameters.

    ``lambda0`` is the starting level, or ``"auto"`` for the largest level at
    which 0 is still the exact minimizer (costs one adjoint matvec).
    ``lambda_star`` is the stopping level (e.g. from :func:`lambda_star`), or
    ``"path"`` to run at most ``path_len_N`` levels and leave the choice to
    model selection (a numeric stop ignores it); either solve ends earlier at
    its first :func:`saturated` level. Numeric levels must be finite and
    positive; ``kmax`` and ``path_len_N`` must be integers (not bools), and a
    path's ``kmax * path_len_N`` at most :data:`MAX_INNER_STEPS`.
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
        _check_count("inner iteration count", self.kmax, 1)
        _check_count("path length", self.path_len_N, 0)
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
        if self.lambda_star == "path" and self.kmax * self.path_len_N > MAX_INNER_STEPS:
            raise ValueError(f"kmax * path_len_N is over MAX_INNER_STEPS = {MAX_INNER_STEPS}")


@dataclass(frozen=True)
class TheoryParams:
    """Coherence/noise constants behind the stopping level and error bound.

    ``mu_s`` is the coherence-sparsity product, the only way the guarantee
    reads either; ``c`` the stopping-rule constant, read as a level;
    ``epsilon`` the noise norm. Building the params checks ``0 <= mu_s < 1/2``
    and a finite ``epsilon >= 0``, and :meth:`validate` checks ``c``. Every
    rule below is one formula in the constant's cut ``t = penalty.threshold(c)``
    (``c`` soft, ``sqrt(2c)`` hard), because both thresholds obey the
    stability bound ``|y| + t``.
    """

    mu_s: float
    c: float
    epsilon: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.mu_s < 0.5:  # also rejects NaN
            raise ValueError(f"guarantees need 0 <= mu*s < 1/2, got mu*s = {self.mu_s:.6g}")
        if not 0.0 <= self.epsilon < math.inf:
            raise ValueError(f"noise norm must be finite and >= 0, got {self.epsilon:.6g}")

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
    interpolate the data: BIC scores it +inf, and a solve ends at the first
    level that reaches it."""
    return support_size > min(n, p)


@dataclass
class PathResult:
    """Per-level record of one continuation run.

    Index 0 is the starting level (solution identically 0); every executed
    level appends one entry. A level is held sparse: ``supports[i]`` is the
    index array ``np.flatnonzero`` of its solution and ``values[i]`` the
    solution's entries there, of a vector of length ``p``. A level whose
    support equals the previous level's holds that level's index array
    itself. :meth:`solution` builds the dense vector of one level; it writes
    +0.0 off the support, also where the iterate held -0.0.
    ``matvec_cumulative`` is the paper's logical count of operator
    applications up to each level: 2 per inner iteration plus 1 adjoint when
    ``lambda0`` was auto-derived, worked out from the planned levels, cut
    where the run stopped, rather than counted at run time. Every solve
    takes one adjoint for ``c = Psi^t y``, which the count holds only when
    ``lambda0`` was auto-derived. Past that, a dense solve below the Gram-row
    floor calls ``apply`` and ``apply_adjoint`` as often as the count says,
    and the cached routes of :mod:`ishtc.linop` less often: a Gram-row step
    calls neither, and a partial-FFT-Haar level calls each once, running its
    other steps' transforms in one private product. The residual norm of a
    level is that of ``y - Psi x`` at its last iterate.
    ``stop_reason`` says why the solve ended: ``"path_len"`` (a path-mode
    solve ran all its planned levels), ``"saturated"`` (the solve, in either
    mode, reached a :func:`saturated` support) or ``"lambda_star"`` (the
    next level would fall below a numeric stopping level).
    """

    lambdas: np.ndarray
    supports: List[np.ndarray]
    values: List[np.ndarray]
    p: int
    residual_norms: np.ndarray
    objective_values: np.ndarray
    matvec_cumulative: np.ndarray
    stop_reason: str

    def solution(self, i: int) -> np.ndarray:
        """Dense solution of level ``i`` (a new array)."""
        x = np.zeros(self.p)
        x[self.supports[i]] = self.values[i]
        return x

    @property
    def solutions(self) -> List[np.ndarray]:
        """Dense solutions of every level, built on each read."""
        return [self.solution(i) for i in range(len(self))]

    @property
    def n_matvec(self) -> int:
        return int(self.matvec_cumulative[-1])

    def __len__(self) -> int:
        return len(self.supports)

    def to_csv(self, path: Union[str, Path]) -> None:
        """One row per level: level value, support size, residual norm,
        objective, cumulative matvec count."""
        write_csv(path, "lambda,support_size,residual_norm,objective,n_matvec_cumulative",
                  zip(self.lambdas, (s.size for s in self.supports), self.residual_norms,
                      self.objective_values, self.matvec_cumulative))


def inner_iterate(
    x: np.ndarray,
    r: Optional[np.ndarray],
    lam: float,
    penalty: Penalty,
    step: Callable,
) -> np.ndarray:
    """One thresholded gradient step at unit stepsize from ``x``; returns the
    new iterate. ``step`` is the gradient step of the operator's route
    (:meth:`ishtc.linop.SensingOperator.cached_route`), and ``r`` the
    residual ``y - Psi x`` when the caller carries it, else None."""
    return threshold_vector(step(x, r), lam, penalty)


def _plan(lam0: float, config: SolverConfig) -> List[float]:
    """Levels ``lam0, gamma*lam0, ...`` of one solve: at most ``path_len_N``
    below ``lam0`` and no floor in path mode, else every one at or above the
    stop, but at most one past the cap, which is then refused (ValueError)."""
    cap = MAX_INNER_STEPS // config.kmax
    if config.lambda_star == "path":
        # Auto rule on all-zero data gives level 0; nothing to shrink toward.
        most, floor = (config.path_len_N if lam0 > 0.0 else 0), -math.inf
    else:
        most, floor = cap + 1, float(config.lambda_star)
    lambdas = [lam0]
    while len(lambdas) <= most and config.gamma * lambdas[-1] >= floor:
        lambdas.append(config.gamma * lambdas[-1])
    if len(lambdas) - 1 > cap:
        raise ValueError(f"the solve would run more than {cap} levels of {config.kmax} inner "
                         f"steps, over MAX_INNER_STEPS = {MAX_INNER_STEPS}")
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
    at the last of at most ``path_len_N`` levels (use BIC selection
    afterwards). A solve that reaches a :func:`saturated` level ends there
    and answers with the level before it, the last one BIC can score.

    Raises :class:`ValueError` on data whose norm is not finite or when a
    numeric stop would plan more than :data:`MAX_INNER_STEPS` inner steps, and
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
    c, step = op.cached_route(y)
    # Largest level at which thresholding Psi^t y yields exactly 0, so the
    # zero start is the true minimizer there.
    lam0 = config.penalty.level(float(np.max(np.abs(c)))) if auto else float(config.lambda0)
    lambdas = _plan(lam0, config)

    stop_reason = "path_len" if config.lambda_star == "path" else "lambda_star"
    # r is the residual y - Psi x of the level's first iterate.
    x, r = np.zeros(op.p), y
    supports, values = [np.flatnonzero(x != 0)], [np.zeros(0)]
    residual_norms = [y_norm]
    objective_values = [0.5 * residual_norms[0] ** 2]
    for level, lam in enumerate(lambdas[1:], 1):
        # Overflow surfaces as the explicit divergence error below, so
        # numpy's own warnings are suppressed. A non-finite iterate makes the
        # residual non-finite, so one check of its norm covers both.
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(config.kmax):
                x = inner_iterate(x, r if k == 0 else None, lam, config.penalty, step)
            r = y - op.apply(x)
            rnorm = float(np.linalg.norm(r))
        if not math.isfinite(rnorm):
            raise DivergenceError(lam, level, config.kmax)
        support = np.flatnonzero(x != 0)
        if np.array_equal(support, supports[-1]):
            support = supports[-1]
        supports.append(support)
        values.append(x[support])
        residual_norms.append(rnorm)
        objective_values.append(0.5 * rnorm ** 2 + lam * config.penalty.term(x))
        if saturated(support.size, op.n, op.p):
            stop_reason = "saturated"
            break
    del lambdas[len(supports):]  # the plan ends where the run stopped

    path = PathResult(
        lambdas=np.array(lambdas),
        supports=supports,
        values=values,
        p=op.p,
        residual_norms=np.array(residual_norms),
        objective_values=np.array(objective_values),
        matvec_cumulative=int(auto) + 2 * config.kmax * np.arange(len(lambdas), dtype=np.int64),
        stop_reason=stop_reason,
    )
    return path.solution(-2 if stop_reason == "saturated" else -1), path
