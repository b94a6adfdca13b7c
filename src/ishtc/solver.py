"""Thresholded Landweber iterations on a geometric regularization path.

The main entry point is :func:`continuation_solve`: starting from ``x = 0``
at a large penalty level ``lambda0``, it repeatedly shrinks the level by a
factor ``gamma``, runs ``kmax`` fixed-stepsize thresholded gradient steps
warm-started from the previous level's solution, and records every per-level
estimate. Stopping is either at an explicit target level, at a level derived
from coherence/noise constants (:class:`TheoryParams`), or after a fixed
number of levels ("path" mode, for model selection afterwards).

:func:`baseline_solve` is the plain single-level iteration with a
configurable stepsize, kept as a reference point; it has no continuation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from .linop import MatvecCounter, SensingOperator
from .storage import write_csv
from .thresholding import Penalty, threshold_vector

#: Path defaults: per-level inner iterations, shrink factor, path length.
DEFAULT_KMAX = 5
DEFAULT_GAMMA = 0.8
DEFAULT_PATH_LEN = 100


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
    ``lambda_star`` is the stopping level, or ``"auto"`` to derive it from
    :class:`TheoryParams`, or ``"path"`` to run exactly ``path_len_N`` levels
    and leave the choice to model selection. Numeric levels must be finite
    and positive; ``kmax`` and ``path_len_N`` must be integers (not bools).
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
        if isinstance(self.lambda0, str):
            if self.lambda0 != "auto":
                raise ValueError(f"lambda0 must be a positive number or 'auto', got {self.lambda0!r}")
        elif not 0 < self.lambda0 < math.inf:
            raise ValueError(f"lambda0 must be finite and > 0, got {self.lambda0}")
        if isinstance(self.lambda_star, str):
            if self.lambda_star not in ("auto", "path"):
                raise ValueError(
                    f"lambda_star must be a positive number, 'auto', or 'path', got {self.lambda_star!r}"
                )
        elif not 0 < self.lambda_star < math.inf:
            raise ValueError(f"lambda_star must be finite and > 0, got {self.lambda_star}")
        if (
            not isinstance(self.lambda0, str)
            and not isinstance(self.lambda_star, str)
            and not self.lambda0 > self.lambda_star
        ):
            raise ValueError(
                f"lambda0 ({self.lambda0}) must exceed lambda_star ({self.lambda_star})"
            )

    def to_json_dict(self) -> dict:
        return {
            "penalty": self.penalty.value,
            "lambda0": self.lambda0,
            "gamma": self.gamma,
            "kmax": self.kmax,
            "lambda_star": self.lambda_star,
            "path_len_N": self.path_len_N,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SolverConfig":
        known = {"penalty", "lambda0", "gamma", "kmax", "lambda_star", "path_len_N"}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown solver config keys: {sorted(unknown)}")
        if "penalty" not in d:
            raise ValueError("solver config needs a 'penalty' key ('l1' or 'l0')")
        return cls(**d)


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
            lo = 1.0 / (1.0 - 2.0 * ms)
            if not self.c > lo:
                raise ValueError(
                    f"soft-penalty constant must exceed 1/(1-2*mu*s) = {lo:.6g}, got {self.c}"
                )
        else:
            lo = 1.0 / (2.0 * (1.0 - 2.0 * ms) ** 2)
            if not self.c > lo:
                raise ValueError(
                    f"hard-penalty constant must exceed 1/(2*(1-2*mu*s)^2) = {lo:.6g}, got {self.c}"
                )


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
    adjoint when ``lambda0`` was auto-derived. The residual norm of a level
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
    counter: Optional[MatvecCounter] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """One thresholded gradient step at unit stepsize from ``x`` and its residual
    ``r = y - Psi x``; returns the new iterate and residual. Exactly 2 matvecs."""
    x_next = threshold_vector(x + op.apply_adjoint(r, counter), lam, penalty)
    return x_next, y - op.apply(x_next, counter)


def _penalty_term(x: np.ndarray, penalty: Penalty) -> float:
    if penalty is Penalty.L1:
        return float(np.sum(np.abs(x)))
    return float(np.count_nonzero(x))


def _auto_lambda0(z_inf: float, penalty: Penalty) -> float:
    # Largest level at which thresholding Psi^t y yields exactly 0, so the
    # zero start is the true minimizer there.
    if penalty is Penalty.L1:
        return z_inf
    return z_inf ** 2 / 2.0


def continuation_solve(
    op: SensingOperator,
    y: np.ndarray,
    config: SolverConfig,
    theory: Optional[TheoryParams] = None,
) -> Tuple[np.ndarray, PathResult]:
    """Run the full continuation loop.

    Returns the final estimate and the per-level path. In "auto"/explicit
    stopping mode the final estimate is the solution at the last level whose
    value is still >= the stopping level; in "path" mode it is the solution
    at the last of the ``path_len_N`` levels (use BIC selection afterwards).

    Raises :class:`ValueError` on non-finite data and
    :class:`DivergenceError` on a non-finite iterate.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (op.n,):
        raise ValueError(f"expected data of length {op.n}, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("data contains NaN or infinite entries")

    counter = MatvecCounter()
    if config.lambda0 == "auto":
        lam0 = _auto_lambda0(float(np.max(np.abs(op.apply_adjoint(y, counter)))), config.penalty)
    else:
        lam0 = float(config.lambda0)

    if config.lambda_star == "auto":
        if theory is None:
            raise ValueError("lambda_star='auto' needs theory parameters")
        lam_stop: Optional[float] = lambda_star(theory, config.penalty)
        if lam_stop <= 0:
            raise ValueError(
                "derived stopping level is not positive; with zero noise run "
                "the full path and select a level afterwards"
            )
    elif config.lambda_star == "path":
        lam_stop = None
    else:
        lam_stop = float(config.lambda_star)

    x, r = np.zeros(op.p), y
    lambdas = [lam0]
    solutions = [x]
    residual_norms = [float(np.linalg.norm(y))]
    objective_values = [0.5 * residual_norms[0] ** 2]
    matvec_cum = [counter.count]

    # Auto rule on all-zero data gives level 0; nothing to shrink toward.
    if lam0 > 0.0:
        lam = lam0
        level = 0
        while True:
            level += 1
            lam = config.gamma * lam
            if lam_stop is not None:
                if lam < lam_stop:
                    break
            elif level > config.path_len_N:
                break
            # Overflow surfaces as the explicit divergence error below, so
            # numpy's own warnings are suppressed.
            with np.errstate(over="ignore", invalid="ignore"):
                for k in range(1, config.kmax + 1):
                    x, r = inner_iterate(op, y, x, r, lam, config.penalty, counter)
                    if not np.all(np.isfinite(x)):
                        raise DivergenceError(lam, level, k)
                rnorm = float(np.linalg.norm(r))
                objective = 0.5 * rnorm ** 2 + lam * _penalty_term(x, config.penalty)
            lambdas.append(lam)
            solutions.append(x)
            residual_norms.append(rnorm)
            objective_values.append(objective)
            matvec_cum.append(counter.count)

    path = PathResult(
        lambdas=np.array(lambdas),
        solutions=solutions,
        residual_norms=np.array(residual_norms),
        objective_values=np.array(objective_values),
        matvec_cumulative=np.array(matvec_cum, dtype=np.int64),
    )
    return path.x_star.copy(), path


def operator_norm_sq(op: SensingOperator, iters: int = 100) -> float:
    """Power-iteration estimate of the squared spectral norm (from below)."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal(op.p)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(iters):
        w = op.apply_adjoint(op.apply(v))
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0
        est = nw  # ||Psi^t Psi v|| -> largest eigenvalue of Psi^t Psi
        v = w / nw
    return est


def baseline_solve(
    op: SensingOperator,
    y: np.ndarray,
    lam: float,
    tau: float,
    penalty: Penalty,
    max_iter: int = 1000,
    tol: float = 1e-10,
) -> np.ndarray:
    """Single-level thresholded gradient iteration with stepsize ``tau``.

    Iterates ``x <- T_{tau*lam}(x + tau * Psi^t (y - Psi x))`` from 0 until
    the sup-norm step falls below ``tol`` or ``max_iter`` is hit. ``tau``
    must lie in ``(0, 2/||Psi||^2)`` (spectral norm estimated by power
    iteration), the classical convergence range.
    """
    y = np.asarray(y, dtype=np.float64)
    if lam < 0:
        raise ValueError(f"penalty level must be >= 0, got {lam}")
    norm_sq = operator_norm_sq(op)
    if not 0.0 < tau < 2.0 / norm_sq:
        raise ValueError(
            f"stepsize {tau} outside (0, {2.0 / norm_sq:.6g}) = (0, 2/||Psi||^2)"
        )
    x = np.zeros(op.p)
    for k in range(1, max_iter + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            r = y - op.apply(x)
            x_next = threshold_vector(x + tau * op.apply_adjoint(r), tau * lam, penalty)
        if not np.all(np.isfinite(x_next)):
            raise DivergenceError(lam, 0, k)
        step = float(np.max(np.abs(x_next - x))) if x_next.size else 0.0
        x = x_next
        if step <= tol:
            break
    return x
