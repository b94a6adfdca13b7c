"""Experiment drivers: recovery-probability sweeps, phase-transition grids
with fitted 90%-success curves, benchmark tables, and the 1D partial-FFT
reconstruction study.

Every driver is a pure function of its spec and base seed. Replication
seeds are derived from the base seed with stable integer keys, tasks are
independent, and aggregation follows task submission order, so results are
identical for any worker count. Within a sweep the same replication index
reuses the same master seed across the varied axis (common instances), which
sharpens trend comparisons without biasing per-point estimates.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .linop import haar_inverse
from .metrics import reconstruction_metrics, psnr
from .modelselect import run_full_path, select_bic
from .probgen import gen_problem
from .solver import DEFAULT_GAMMA, DEFAULT_KMAX, DEFAULT_PATH_LEN, DivergenceError
from .storage import write_csv
from .thresholding import Penalty

LN9 = math.log(9.0)

#: Columns of a :func:`benchmark_table` row, in ``bench.csv`` order.
BENCH_COLUMNS = ("p", "n", "s", "time_s", "n_matvec", "rel_l2", "abs_linf", "diverged")


def _task_seed(base_seed: int, *key: int) -> int:
    """Stable per-task master seed from a base seed and integer indices."""
    ss = np.random.SeedSequence(base_seed, spawn_key=tuple(key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _run_ordered(fn: Callable, tasks: Sequence, workers: int) -> list:
    """Map tasks to results, preserving task order for any worker count."""
    if workers <= 1:
        return [fn(t) for t in tasks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


# ---------------------------------------------------------------------------
# Recovery-probability sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """One-axis sweep: ``varied`` ranges over ``values``, the rest is fixed.

    ``fixed`` holds the remaining generator parameters (matrix_kind, n, p,
    and whichever of s/sigma/nu are not being varied).
    """

    varied: str
    values: Tuple[float, ...]
    fixed: dict
    replications: int = 100
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.varied not in ("s", "sigma", "nu"):
            raise ValueError(f"varied must be one of s, sigma, nu; got {self.varied!r}")
        if len(self.values) == 0:
            raise ValueError("values grid is empty")
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        object.__setattr__(self, "values", tuple(self.values))


def _bic_solution(problem, penalty: Penalty, gamma: float, kmax: int, path_len: int):
    path = run_full_path(problem.op, problem.y, penalty, gamma=gamma, kmax=kmax, N=path_len)
    lam_best, x_best, _ = select_bic(path, problem.y)
    return lam_best, x_best, path


def support_probability_sweep(
    spec: SweepSpec,
    penalty: Penalty,
    workers: int = 1,
    gamma: float = DEFAULT_GAMMA,
    kmax: int = DEFAULT_KMAX,
    path_len: int = DEFAULT_PATH_LEN,
) -> List[Tuple[float, float]]:
    """Fraction of replications with exact support recovery, per grid value.

    Each replication runs the full path and scores the BIC-selected
    solution; a diverged solve counts as a failure, never an abort.
    """
    tasks = [(vi, rep) for vi in range(len(spec.values)) for rep in range(spec.replications)]

    def one(task: Tuple[int, int]) -> int:
        vi, rep = task
        params = dict(spec.fixed)
        params[spec.varied] = spec.values[vi]
        kind = params.pop("matrix_kind")
        if spec.varied == "s":
            params["s"] = int(round(params["s"]))
        problem = gen_problem(kind, seed=_task_seed(spec.base_seed, rep), **params)
        try:
            _, x_best, _ = _bic_solution(problem, penalty, gamma, kmax, path_len)
        except DivergenceError:
            return 0
        return int(reconstruction_metrics(x_best, problem.x_true).exact_support)

    flat = _run_ordered(one, tasks, workers)
    rows: List[Tuple[float, float]] = []
    for vi, value in enumerate(spec.values):
        wins = sum(flat[vi * spec.replications : (vi + 1) * spec.replications])
        rows.append((float(value), wins / spec.replications))
    return rows


def sweep_to_csv(rows: Sequence[Tuple[float, float]], path: Union[str, Path]) -> None:
    write_csv(path, "value,success_probability", rows)


# ---------------------------------------------------------------------------
# Phase-transition grids
# ---------------------------------------------------------------------------


@dataclass
class PhaseGrid:
    """Success counts over the (delta=n/p, rho=s/n) plane.

    ``successes[i, j]`` counts the ``trials`` at ``delta_grid[i], rho_grid[j]``
    that succeeded; ``p`` is the signal length every cell shares.
    """

    delta_grid: np.ndarray
    rho_grid: np.ndarray
    successes: np.ndarray
    trials: int
    p: int

    @property
    def success_rates(self) -> np.ndarray:
        return self.successes / self.trials

    def cell_dims(self, i: int, j: int) -> Tuple[int, int]:
        """Integer (n, s) realized at grid cell (i, j), each >= 1."""
        n = max(1, int(round(self.delta_grid[i] * self.p)))
        s = max(1, int(round(self.rho_grid[j] * n)))
        return n, s


def phase_transition_grid(
    delta_grid: Sequence[float],
    rho_grid: Sequence[float],
    p: int,
    trials: int,
    penalty: Penalty,
    success_threshold: float = 1e-2,
    sigma: float = 1e-6,
    base_seed: int = 0,
    workers: int = 1,
    gamma: float = DEFAULT_GAMMA,
    kmax: int = DEFAULT_KMAX,
    path_len: int = DEFAULT_PATH_LEN,
) -> PhaseGrid:
    """Count recovery successes per grid cell.

    Instances are Gaussian matrices with ±1-valued sparse signals and
    near-zero noise; success means the BIC-selected solution's relative L2
    error is at or below the threshold. Cell seeds derive from
    (base_seed, delta index, rho index, trial index).
    """
    delta_grid = np.asarray(delta_grid, dtype=np.float64)
    rho_grid = np.asarray(rho_grid, dtype=np.float64)
    for name, grid in (("delta", delta_grid), ("rho", rho_grid)):
        if grid.size == 0:
            raise ValueError(f"{name} grid is empty")
        if np.any(grid < 0.1) or np.any(grid > 1.0):
            raise ValueError(f"{name} grid must lie within [0.1, 1]")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")

    grid = PhaseGrid(
        delta_grid=delta_grid,
        rho_grid=rho_grid,
        successes=np.zeros((delta_grid.size, rho_grid.size), dtype=np.int64),
        trials=trials,
        p=p,
    )
    tasks = [
        (i, j, t)
        for i in range(delta_grid.size)
        for j in range(rho_grid.size)
        for t in range(trials)
    ]

    def one(task: Tuple[int, int, int]) -> int:
        i, j, t = task
        n, s = grid.cell_dims(i, j)
        problem = gen_problem(
            "gaussian", n=n, p=p, s=s, dr=1.0, sigma=sigma,
            seed=_task_seed(base_seed, i, j, t),
        )
        try:
            _, x_best, _ = _bic_solution(problem, penalty, gamma, kmax, path_len)
        except DivergenceError:
            return 0
        return int(
            reconstruction_metrics(x_best, problem.x_true).rel_l2 <= success_threshold
        )

    flat = _run_ordered(one, tasks, workers)
    for (i, j, _t), win in zip(tasks, flat):
        grid.successes[i, j] += win
    return grid


def _irls_logistic(
    x: np.ndarray, wins: np.ndarray, trials: int, max_iter: int = 100
) -> Optional[Tuple[float, float]]:
    """Fit P(win) = sigmoid(a + b*x) to binomial counts; None if no fit."""
    design = np.column_stack([np.ones_like(x), x])
    beta = np.zeros(2)
    for _ in range(max_iter):
        eta = design @ beta
        pr = np.clip(1.0 / (1.0 + np.exp(-eta)), 1e-9, 1.0 - 1e-9)
        w = trials * pr * (1.0 - pr)
        grad = design.T @ (wins - trials * pr)
        hess = design.T @ (w[:, None] * design)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            return None
        beta = beta + step
        if not np.all(np.isfinite(beta)):
            return None
        if float(np.max(np.abs(step))) < 1e-10:
            return float(beta[0]), float(beta[1])
    return None


def _crossing_interp(rhos: np.ndarray, rates: np.ndarray) -> Optional[float]:
    """First downward crossing of the 0.9 level, linearly interpolated."""
    for j in range(rates.size - 1):
        if rates[j] >= 0.9 > rates[j + 1]:
            t = (rates[j] - 0.9) / (rates[j] - rates[j + 1])
            return float(rhos[j] + t * (rhos[j + 1] - rhos[j]))
    return None


def fit_90pct_curve(grid: PhaseGrid) -> Tuple[np.ndarray, List[str]]:
    """Per-delta rho at which the success rate crosses 90%.

    Columns whose rates never straddle 0.9 are clamped to the grid edge
    (flag "clamped"); a failed or out-of-range logistic fit falls back to
    linear interpolation of the empirical rates (flag "interp"); otherwise
    the flag is "logistic".
    """
    rho = grid.rho_grid
    rho90 = np.empty(grid.delta_grid.size)
    flags: List[str] = []
    for i in range(grid.delta_grid.size):
        wins = grid.successes[i, :].astype(np.float64)
        rates = wins / grid.trials
        if np.all(rates >= 0.9):
            val, flag = float(rho[-1]), "clamped"
        elif np.all(rates < 0.9):
            val, flag = float(rho[0]), "clamped"
        else:
            fit = _irls_logistic(rho, wins, grid.trials)
            val, flag = math.nan, ""
            if fit is not None:
                a, b = fit
                if b < 0:
                    cand = (LN9 - a) / b
                    if math.isfinite(cand) and rho[0] <= cand <= rho[-1]:
                        val, flag = float(cand), "logistic"
            if not flag:
                cand = _crossing_interp(rho, rates)
                if cand is not None:
                    val, flag = cand, "interp"
                else:
                    val = float(rho[-1]) if rates[-1] >= 0.9 else float(rho[0])
                    flag = "clamped"
        rho90[i] = val
        flags.append(flag)
    return rho90, flags


def median_smooth3(v: Sequence[float]) -> np.ndarray:
    """3-point running median with replicated endpoints."""
    v = np.asarray(v, dtype=np.float64)
    if v.size <= 2:
        return v.copy()
    padded = np.concatenate([v[:1], v, v[-1:]])
    return np.array([float(np.median(padded[i : i + 3])) for i in range(v.size)])


def phase_to_csv(grid: PhaseGrid, path: Union[str, Path]) -> None:
    """Per-cell series: one row per (delta, rho) with realized (n, s)."""
    rows = []
    for i, delta in enumerate(grid.delta_grid):
        for j, rho in enumerate(grid.rho_grid):
            wins = int(grid.successes[i, j])
            rows.append((delta, rho, *grid.cell_dims(i, j), wins, grid.trials, wins / grid.trials))
    write_csv(path, "delta,rho,n,s,successes,trials,success_rate", rows)


def curve90_to_csv(grid: PhaseGrid, path: Union[str, Path]) -> None:
    """One row per delta: the fitted 90% rho and its method flag."""
    write_csv(path, "delta,rho90,flag", zip(grid.delta_grid, *fit_90pct_curve(grid)))


# ---------------------------------------------------------------------------
# Benchmark table
# ---------------------------------------------------------------------------


def benchmark_table(
    sizes: Sequence[int],
    matrix_kind: str = "bernoulli",
    penalty: Penalty = Penalty.L1,
    replications: int = 10,
    dr: float = 100.0,
    sigma: float = 5e-2,
    base_seed: int = 0,
    workers: int = 1,
    gamma: float = DEFAULT_GAMMA,
    kmax: int = DEFAULT_KMAX,
    path_len: int = DEFAULT_PATH_LEN,
) -> List[dict]:
    """Mean cost/error metrics per problem size.

    Per size p: n = p//4 measurements, s = n//40 nonzeros. The matvec count
    is the solver's ``PathResult.n_matvec`` (exact); wall time is measured and
    therefore the one non-reproducible column. A diverged replication is counted in
    ``diverged`` and left out of the means, which are nan when every
    replication diverged.
    """
    rows: List[dict] = []
    for si, p in enumerate(sizes):
        n = p // 4
        s = max(1, n // 40)

        def one(rep: int) -> Optional[Tuple[float, int, float, float]]:
            problem = gen_problem(
                matrix_kind, n=n, p=p, s=s, dr=dr, sigma=sigma,
                seed=_task_seed(base_seed, si, rep),
            )
            t0 = time.perf_counter()
            try:
                _, x_best, path = _bic_solution(problem, penalty, gamma, kmax, path_len)
            except DivergenceError:
                return None
            elapsed = time.perf_counter() - t0
            m = reconstruction_metrics(x_best, problem.x_true)
            return elapsed, path.n_matvec, m.rel_l2, m.abs_linf

        done = [r for r in _run_ordered(one, range(replications), workers) if r is not None]
        means = [sum(col) / len(done) for col in zip(*done)] if done else [math.nan] * 4
        rows.append({"p": p, "n": n, "s": s, **dict(zip(BENCH_COLUMNS[3:7], means)),
                     "diverged": replications - len(done)})
    return rows


def bench_to_csv(rows: Sequence[dict], path: Union[str, Path]) -> None:
    write_csv(path, ",".join(BENCH_COLUMNS), ([r[c] for c in BENCH_COLUMNS] for r in rows))


# ---------------------------------------------------------------------------
# 1D partial-FFT reconstruction
# ---------------------------------------------------------------------------


def fft_haar_reconstruction(
    n: int = 665,
    p: int = 1024,
    levels: int = 2,
    s: int = 247,
    dr: float = 100.0,
    sigma: float = 1e-4,
    penalty: Penalty = Penalty.L0,
    seed: int = 0,
    gamma: float = DEFAULT_GAMMA,
    kmax: int = DEFAULT_KMAX,
    path_len: int = DEFAULT_PATH_LEN,
) -> dict:
    """Recover a sparse coefficient vector from partial frequency data.

    Runs the full path with BIC selection and reports PSNR both on the
    coefficient vector the solver estimates and on the time-domain signal
    it implies (inverse wavelet of the unnormalized coefficients).
    """
    problem = gen_problem(
        "fft-haar", n=n, p=p, s=s, dr=dr, sigma=sigma, seed=seed, levels=levels
    )
    t0 = time.perf_counter()
    lam_best, x_best, path = _bic_solution(problem, penalty, gamma, kmax, path_len)
    elapsed = time.perf_counter() - t0
    m = reconstruction_metrics(x_best, problem.x_true)
    scale = problem.op.col_scale
    u_hat = haar_inverse(x_best / scale, levels)
    u_true = haar_inverse(problem.x_true / scale, levels)
    return {
        "n": n,
        "p": p,
        "levels": levels,
        "s": s,
        "dr": dr,
        "sigma": sigma,
        "penalty": penalty.value,
        "seed": seed,
        "psnr_db": m.psnr_db,
        "signal_psnr_db": psnr(u_hat, u_true),
        "rel_l2": m.rel_l2,
        "abs_linf": m.abs_linf,
        "exact_support": m.exact_support,
        "lambda_best": lam_best,
        "n_matvec": path.n_matvec,
        "wall_time_s": elapsed,
    }
