"""Experiment drivers: recovery-probability sweeps, phase-transition grids
with fitted 90%-success curves, benchmark tables, and the 1D partial-FFT
reconstruction study.

The sweep, the grid and the table run one trial, ``_trial``: draw a seeded
instance with ``gen_problem``, run the full path, pick a level by extended
BIC and score the pick. It returns (metrics, matvec count, solve seconds),
or None when the solve diverged. Each of the three lists its draws and
hands them to one ``_run_trials`` call, which checks every draw with
``check_problem_args`` before the first trial and then maps them through
``_run_ordered``; the caller reduces the records.

Every driver is a pure function of its spec and base seed. Replication
seeds are derived from the base seed with stable integer keys, tasks are
independent, and aggregation follows task submission order, so results are
identical for any worker count. Within a sweep the same replication index
reuses the same master seed across the varied axis (common instances), which
sharpens trend comparisons without biasing per-point estimates.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .linop import haar_inverse
from .metrics import Metrics, reconstruction_metrics, psnr
from .modelselect import run_full_path, select_bic
from .probgen import check_problem_args, gen_problem
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
    """Map tasks to results, preserving task order for any worker count.

    The pool starts at most one thread per task and per CPU: an executor
    starts a thread per submit up to its ``max_workers``.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    threads = min(workers, len(tasks), os.cpu_count() or 1)
    if threads <= 1:
        return [fn(t) for t in tasks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, tasks))


def _run_trials(draws: Sequence[dict], workers: int, penalty: Penalty, gamma: float, kmax: int,
                path_len: int) -> list:
    """``_trial`` records of ``draws``, in order. Every draw is checked
    first, so a grid refuses a bad value before its first trial runs."""
    for draw in draws:
        check_problem_args(**draw)
    trial = partial(_trial, penalty=penalty, gamma=gamma, kmax=kmax, path_len=path_len)
    return _run_ordered(trial, draws, workers)


def _trial(
    draw: dict, penalty: Penalty, gamma: float, kmax: int, path_len: int
) -> Optional[Tuple[Metrics, int, float]]:
    """Full path and BIC pick on ``gen_problem(**draw)``: the pick's metrics,
    the path's matvec count and the seconds of path plus pick, or None when
    the solve diverged. The problem and the path die here, so a large grid
    holds only these records."""
    problem = gen_problem(**draw)
    t0 = time.perf_counter()
    try:
        path = run_full_path(problem.op, problem.y, penalty, gamma=gamma, kmax=kmax, N=path_len)
    except DivergenceError:
        return None
    _, x_best, _ = select_bic(path, problem.y)
    elapsed = time.perf_counter() - t0
    return reconstruction_metrics(x_best, problem.x_true), path.n_matvec, elapsed


# ---------------------------------------------------------------------------
# Recovery-probability sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """One-axis sweep: ``varied`` (s, sigma or nu) ranges over ``values``, and
    ``fixed`` holds the other ``gen_problem`` arguments, which it checks. A
    spec refuses an empty grid, no replications, non-integer ``s`` values,
    and a ``nu`` sweep unless ``fixed["matrix_kind"]`` is ``"correlated"``.
    """

    varied: str
    values: Tuple[float, ...]
    fixed: dict
    replications: int
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.varied not in ("s", "sigma", "nu"):
            raise ValueError(f"varied must be one of s, sigma, nu; got {self.varied!r}")
        if len(self.values) == 0:
            raise ValueError("values grid is empty")
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        object.__setattr__(self, "values", tuple(self.values))
        if self.varied == "s" and not all(float(v).is_integer() for v in self.values):
            raise ValueError(f"s values must be integers, got {list(self.values)}")
        if self.varied == "nu" and self.fixed.get("matrix_kind") != "correlated":
            raise ValueError("sweeping nu needs matrix_kind 'correlated'")


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
    draws = [
        {**spec.fixed, spec.varied: int(value) if spec.varied == "s" else value,
         "seed": _task_seed(spec.base_seed, rep)}
        for value in spec.values
        for rep in range(spec.replications)
    ]
    records = _run_trials(draws, workers, penalty, gamma, kmax, path_len)
    wins = [r is not None and r[0].exact_support for r in records]
    per_value = np.reshape(wins, (len(spec.values), spec.replications)).sum(axis=1)
    return [(float(value), int(w) / spec.replications) for value, w in zip(spec.values, per_value)]


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
    if not success_threshold >= 0:  # also rejects NaN
        raise ValueError(f"success threshold must be >= 0, got {success_threshold}")

    grid = PhaseGrid(
        delta_grid=delta_grid,
        rho_grid=rho_grid,
        successes=np.zeros((delta_grid.size, rho_grid.size), dtype=np.int64),
        trials=trials,
        p=p,
    )
    draws = []
    for i, j, t in np.ndindex(*grid.successes.shape, trials):
        n, s = grid.cell_dims(i, j)
        draws.append(dict(matrix_kind="gaussian", n=n, p=p, s=s, dr=1.0, sigma=sigma,
                          seed=_task_seed(base_seed, i, j, t)))
    records = _run_trials(draws, workers, penalty, gamma, kmax, path_len)
    wins = [r is not None and r[0].rel_l2 <= success_threshold for r in records]
    grid.successes[...] = np.reshape(wins, (*grid.successes.shape, trials)).sum(axis=2)
    return grid


def _irls_logistic(x: np.ndarray, wins: np.ndarray, trials: int) -> Optional[Tuple[float, float]]:
    """Fit P(win) = sigmoid(a + b*x) to binomial counts; None if 100 steps find no fit."""
    design = np.column_stack([np.ones_like(x), x])
    beta = np.zeros(2)
    for _ in range(100):
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
    matrix_kind: str,
    penalty: Penalty,
    replications: int,
    dr: float,
    sigma: float,
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
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    if len(sizes) == 0:
        raise ValueError("sizes is empty")
    if min(sizes) < 4:
        raise ValueError(f"every size must be >= 4, so that n = p//4 >= 1; got {min(sizes)}")
    dims = [(p, p // 4, max(1, p // 4 // 40)) for p in sizes]
    draws = [
        dict(matrix_kind=matrix_kind, n=n, p=p, s=s, dr=dr, sigma=sigma,
             seed=_task_seed(base_seed, si, rep))
        for si, (p, n, s) in enumerate(dims)
        for rep in range(replications)
    ]
    records = _run_trials(draws, workers, penalty, gamma, kmax, path_len)
    rows: List[dict] = []
    for si, (p, n, s) in enumerate(dims):
        done = [r for r in records[si * replications : (si + 1) * replications] if r is not None]
        cols = zip(*((seconds, n_matvec, m.rel_l2, m.abs_linf) for m, n_matvec, seconds in done))
        means = [sum(col) / len(done) for col in cols] if done else [math.nan] * 4
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
    s: int = 247,
    dr: float = 100.0,
    sigma: float = 1e-4,
    seed: int = 0,
) -> dict:
    """Recover a sparse coefficient vector from partial frequency data.

    On a depth-2 ``fft-haar`` problem, runs the l0 full path at the solver's
    default knobs with BIC selection and reports PSNR both on the coefficient
    vector and on the time-domain signal it implies (inverse wavelet of the
    unnormalized coefficients).
    """
    problem = gen_problem("fft-haar", n=n, p=p, s=s, dr=dr, sigma=sigma, seed=seed, levels=2)
    t0 = time.perf_counter()
    path = run_full_path(problem.op, problem.y, Penalty.L0)
    lam_best, x_best, _ = select_bic(path, problem.y)
    elapsed = time.perf_counter() - t0
    m = reconstruction_metrics(x_best, problem.x_true)
    op = problem.op
    u_hat = haar_inverse(x_best / op.col_scale, op.levels)
    u_true = haar_inverse(problem.x_true / op.col_scale, op.levels)
    return {
        "n": n,
        "p": p,
        "levels": op.levels,
        "s": s,
        "dr": dr,
        "sigma": sigma,
        "penalty": Penalty.L0.value,
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
