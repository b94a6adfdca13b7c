"""Thresholded Landweber iterations on a geometric regularization path.

The main entry point is :func:`continuation_solve`: starting from ``x = 0``
at a large penalty level ``lambda0``, it repeatedly shrinks the level by a
factor ``gamma``, runs ``kmax`` fixed-stepsize thresholded gradient steps
warm-started from the previous level's solution, and records every per-level
estimate. Stopping is either at an explicit target level (such as the
noise-calibrated :func:`lambda_star` of :class:`TheoryParams`), or after a
fixed number of levels ("path" mode, for model selection afterwards).
"""

from __future__ import annotations

import dataclasses
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
    """Raised when an iterate picks up a non-finite entry.

    With stepsize fixed at 1 the iteration is not guaranteed to descend, so
    outside the coherence regime it can blow up; the error names the penalty
    level and inner step so experiment drivers can record the failure.
    """

    def __init__(self, lam: float, level: int, inner_k: int):
        super().__init__(
            f"non-finite iterate at path level {level} (lambda={lam:.6g}), "
            f"inner step {inner_k}"
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
    ``"path"`` to run exactly ``path_len_N`` levels and leave the choice to
    model selection. Numeric levels must be finite and positive; ``kmax`` and
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

    def to_json_dict(self) -> dict:
        return {**dataclasses.asdict(self), "penalty": self.penalty.value}


@dataclass(frozen=True)
class TheoryParams:
    """Coherence/noise constants behind the stopping level and error bound.

    ``mu`` is the operator's mutual coherence, ``s`` the true sparsity,
    ``c`` the stopping-rule constant (one constant; its admissible range
    depends on the penalty), ``epsilon`` the noise norm.
    """

    mu: float
    s: int
    c: float
    epsilon: float

    @property
    def mu_s(self) -> float:
        return self.mu * self.s

    def validate_basic(self) -> None:
        """Check the coherence regime without the constant's lower bound."""
        if self.mu < 0:
            raise ValueError(f"coherence must be >= 0, got {self.mu}")
        if self.s < 1:
            raise ValueError(f"sparsity must be >= 1, got {self.s}")
        if self.epsilon < 0:
            raise ValueError(f"noise norm must be >= 0, got {self.epsilon}")
        ms = self.mu_s
        if not ms < 0.5:
            raise ValueError(
                f"guarantees need mu*s < 1/2, got mu*s = {ms:.6g}"
            )

    def validate(self, penalty: Penalty) -> None:
        """Check the coherence regime and the constant's lower bound."""
        self.validate_basic()
        ms = self.mu_s
        if penalty is Penalty.L1:
            kind, rule, lo = "soft", "1/(1-2*mu*s)", 1.0 / (1.0 - 2.0 * ms)
        else:
            kind, rule, lo = "hard", "1/(2*(1-2*mu*s)^2)", 1.0 / (2.0 * (1.0 - 2.0 * ms) ** 2)
        if not self.c > lo:
            raise ValueError(f"{kind}-penalty constant must exceed {rule} = {lo:.6g}, got {self.c}")


def lambda_star(theory: TheoryParams, penalty: Penalty) -> float:
    """Stopping level from the noise norm: ``c * epsilon`` for the soft
    penalty, ``c * epsilon**2`` for the hard penalty."""
    theory.validate(penalty)
    if penalty is Penalty.L1:
        return theory.c * theory.epsilon
    return theory.c * theory.epsilon ** 2


def gamma_lower_bound(theory: TheoryParams, penalty: Penalty) -> float:
    """Smallest admissible shrink factor under the recovery guarantee.

    Callers claiming the guarantee must configure ``gamma`` at or above this
    value (and below 1).
    """
    theory.validate(penalty)
    ms = theory.mu_s
    if penalty is Penalty.L1:
        return 2.0 * ms / (1.0 - 1.0 / theory.c)
    return (2.0 * ms / (1.0 - 1.0 / math.sqrt(2.0 * theory.c))) ** 2


def theoretical_error_bound(theory: TheoryParams, penalty: Penalty) -> float:
    """Guaranteed sup-norm error of the returned solution.

    ``(c-1)*epsilon/(mu*s)`` for the soft penalty,
    ``(sqrt(2c)-1)*epsilon/(mu*s)`` for the hard penalty. This is a pure
    substitution, so boundary constants evaluate too; only the helpers that
    claim the guarantee (``lambda_star``, ``gamma_lower_bound``) enforce the
    strict constant constraint.
    """
    theory.validate_basic()
    ms = theory.mu_s
    if ms == 0:
        raise ValueError("bound undefined at zero coherence")
    if penalty is Penalty.L1:
        if theory.c < 1.0:
            raise ValueError(f"soft-penalty constant must be >= 1, got {theory.c}")
        return (theory.c - 1.0) * theory.epsilon / ms
    if theory.c < 0.5:
        raise ValueError(f"hard-penalty constant must be >= 1/2, got {theory.c}")
    return (math.sqrt(2.0 * theory.c) - 1.0) * theory.epsilon / ms


@dataclass
class PathResult:
    """Per-level record of one continuation run.

    Index 0 is the starting level (solution identically 0); every executed
    level appends one entry. ``matvec_cumulative`` counts the operator
    applications spent up to each level: 2 per inner iteration plus 1
    adjoint when ``lambda0`` was auto-derived, worked out from the planned
    levels rather than counted at run time. The residual norm of a level
    is that of the residual its last inner step carried, so it costs none.
    """

    lambdas: np.ndarray
    solutions: List[np.ndarray]
    residual_norms: np.ndarray
    objective_values: np.ndarray
    matvec_cumulative: np.ndarray

    @property
    def supports(self) -> List[np.ndarray]:
        return [np.flatnonzero(x) for x in self.solutions]

    @property
    def n_matvec(self) -> int:
        return int(self.matvec_cumulative[-1])

    @property
    def x_star(self) -> np.ndarray:
        return self.solutions[-1]

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


def _penalty_term(x: np.ndarray, penalty: Penalty) -> float:
    if penalty is Penalty.L1:
        return float(np.sum(np.abs(x)))
    return float(np.count_nonzero(x))


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
    at the last of the ``path_len_N`` levels (use BIC selection afterwards).

    Raises :class:`ValueError` on non-finite data or when the solve would
    plan more than :data:`MAX_INNER_STEPS` inner steps, and
    :class:`DivergenceError` on a non-finite iterate.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (op.n,):
        raise ValueError(f"expected data of length {op.n}, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("data contains NaN or infinite entries")

    auto = config.lambda0 == "auto"
    if auto:
        # Largest level at which thresholding Psi^t y yields exactly 0, so the
        # zero start is the true minimizer there.
        z_inf = float(np.max(np.abs(op.apply_adjoint(y))))
        lam0 = z_inf if config.penalty is Penalty.L1 else z_inf ** 2 / 2.0
    else:
        lam0 = float(config.lambda0)
    lambdas = _plan(lam0, config)

    x, r = np.zeros(op.p), y
    solutions = [x]
    residual_norms = [float(np.linalg.norm(y))]
    objective_values = [0.5 * residual_norms[0] ** 2]
    for level, lam in enumerate(lambdas[1:], 1):
        # Overflow surfaces as the explicit divergence error below, so
        # numpy's own warnings are suppressed.
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, config.kmax + 1):
                x, r = inner_iterate(op, y, x, r, lam, config.penalty)
                if not np.all(np.isfinite(x)):
                    raise DivergenceError(lam, level, k)
            rnorm = float(np.linalg.norm(r))
            objective = 0.5 * rnorm ** 2 + lam * _penalty_term(x, config.penalty)
        solutions.append(x)
        residual_norms.append(rnorm)
        objective_values.append(objective)

    path = PathResult(
        lambdas=np.array(lambdas),
        solutions=solutions,
        residual_norms=np.array(residual_norms),
        objective_values=np.array(objective_values),
        matvec_cumulative=int(auto) + 2 * config.kmax * np.arange(len(lambdas), dtype=np.int64),
    )
    return path.x_star.copy(), path

