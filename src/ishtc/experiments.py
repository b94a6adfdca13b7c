"""Experiment drivers: recovery-probability sweeps, phase-transition grids
with fitted 90%-success curves, and benchmark tables.

The sweep, the grid and the table run one trial, ``_trial``: on a seeded
instance from ``gen_problem``, run the full path, pick a level by extended
BIC and score the pick. It returns (metrics, matvec count, solve seconds),
or None when the solve diverged. Each driver builds its tasks, each a list
of draws (``gen_problem`` arguments), and hands them to one ``_run_trials``
call. That call checks every draw and the path knobs before the first
draw, maps the tasks through ``_run_ordered`` and returns the records flat,
in task order; the driver reduces them. A task solves its draws in order,
and each draw after the first reuses the operator of the one before; a task
of several draws also gives that operator its Gram triangle
(:meth:`ishtc.linop.SensingOperator.with_gram`), built once for all of
them. An s or sigma sweep hands one task per replication, its draws in
value order, because the replication's one seed gives one matrix at every
value. A nu sweep, a phase grid and a benchmark table hand one draw per
task, and so build no triangle.

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

from .metrics import Metrics, reconstruction_metrics
from .modelselect import run_full_path, select_bic
from .probgen import Problem, check_problem_args, gen_problem
from .solver import (DEFAULT_GAMMA, DEFAULT_KMAX, DEFAULT_PATH_LEN, DivergenceError,
                     SolverConfig, _check_count)
from .storage import write_csv
from .thresholding import Penalty

LN9 = math.log(9.0)

#: Columns of a :func:`benchmark_table` row, in ``bench.csv`` order.
BENCH_COLUMNS = ("p", "n", "s", "time_s", "n_matvec", "rel_l2", "abs_linf", "diverged")


def _task_seed(base_seed: int, *key: int) -> int:
    """Stable per-task master seed from a base seed (an integer >= 0) and integer indices."""
    _check_count("seed", base_seed, 0)
    ss = np.random.SeedSequence(base_seed, spawn_key=tuple(key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _run_ordered(fn: Callable, tasks: Sequence, workers: int) -> list:
    """Map tasks to results, preserving task order for any worker count.

    The pool starts at most one thread per task and per CPU: an executor
    starts a thread per submit up to its ``max_workers``.
    """
    _check_count("workers", workers, 1)
    threads = min(workers, len(tasks), os.cpu_count() or 1)
    if threads <= 1:
        return [fn(t) for t in tasks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, tasks))


def _run_trials(tasks: Sequence[Sequence[dict]], workers: int, penalty: Penalty, gamma: float,
                kmax: int, path_len: int) -> list:
    """``_trial`` records of the draws of ``tasks``, flat and in order.
    Every draw and the path knobs are checked first, so a grid refuses a bad
    value before its first matrix is drawn."""
    for draws in tasks:
        for draw in draws:
            check_problem_args(**draw)
    config = SolverConfig(penalty=penalty, gamma=gamma, kmax=kmax, path_len_N=path_len)
    done = _run_ordered(partial(_task, config=config), tasks, workers)
    return [record for records in done for record in records]


def _task(draws: Sequence[dict], config: SolverConfig) -> list:
    """``_trial`` records of ``draws``, in order. Each draw after the first
    reuses the operator of the one before, so the draws of a task must share
    every ``gen_problem`` argument but ``s``, ``dr`` and ``sigma``. A task of
    several draws gives that operator its Gram triangle (``with_gram``), so
    their solves share it."""
    records, op = [], None
    for draw in draws:
        problem = gen_problem(**draw, op=op)
        if op is None and len(draws) > 1:
            problem.op = problem.op.with_gram()
        op = problem.op
        records.append(_trial(problem, config))
    return records


def _trial(problem: Problem, config: SolverConfig) -> Optional[Tuple[Metrics, int, float]]:
    """Full path and BIC pick on ``problem``: the pick's metrics, the path's
    matvec count and the seconds of path plus pick, or None when the solve
    diverged. The problem and the path die in the task, so a large grid
    holds only these records."""
    t0 = time.perf_counter()
    try:
        path = run_full_path(problem.op, problem.y, config.penalty, gamma=config.gamma,
                             kmax=config.kmax, N=config.path_len_N)
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
    spec refuses an empty grid, a replication count that is not an integer
    >= 1, non-integer ``s`` values, and a ``nu`` sweep unless
    ``fixed["matrix_kind"]`` is ``"correlated"``.
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
        _check_count("replications", self.replications, 1)
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
    tasks = [
        [{**spec.fixed, spec.varied: int(value) if spec.varied == "s" else value,
          "seed": _task_seed(spec.base_seed, rep)} for value in spec.values]
        for rep in range(spec.replications)
    ]
    if spec.varied == "nu":  # nu is part of the matrix draw
        tasks = [[draw] for draws in tasks for draw in draws]
    records = _run_trials(tasks, workers, penalty, gamma, kmax, path_len)
    wins = [r is not None and r[0].exact_support for r in records]
    per_value = np.reshape(wins, (spec.replications, len(spec.values))).sum(axis=0)
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
    _check_count("trials", trials, 1)
    if not success_threshold >= 0:  # also rejects NaN
        raise ValueError(f"success threshold must be >= 0, got {success_threshold}")

    grid = PhaseGrid(
        delta_grid=delta_grid,
        rho_grid=rho_grid,
        successes=np.zeros((delta_grid.size, rho_grid.size), dtype=np.int64),
        trials=trials,
        p=p,
    )
    tasks = []
    for i, j, t in np.ndindex(*grid.successes.shape, trials):
        n, s = grid.cell_dims(i, j)
        tasks.append([dict(matrix_kind="gaussian", n=n, p=p, s=s, dr=1.0, sigma=sigma,
                           seed=_task_seed(base_seed, i, j, t))])
    records = _run_trials(tasks, workers, penalty, gamma, kmax, path_len)
    wins = [r is not None and r[0].rel_l2 <= success_threshold for r in records]
    grid.successes[...] = np.reshape(wins, (*grid.successes.shape, trials)).sum(axis=2)
    return grid


@np.errstate(over="ignore", invalid="ignore")  # a runaway fit overflows exp, then finds no fit
def _irls_logistic(x: np.ndarray, wins: np.ndarray, trials: int) -> Optional[Tuple[float, float]]:
    """Fit P(win) = sigmoid(a + b*x) to binomial counts; None if 100 steps find
    no fit, or at once when the counts are completely separated: every point
    all wins or all losses, and the wins on one side of the losses, where
    the likelihood has no maximum."""
    won, lost = x[wins == trials], x[wins == 0]
    if won.size + lost.size == x.size and (won.size == 0 or lost.size == 0
                                           or won.max() < lost.min() or lost.max() < won.min()):
        return None
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
    """Per-delta rho at which the success rate crosses 90%, and its flag.

    Each column is clamped to the grid edge its last rate is on: ``rho[-1]``
    if that rate is at least 0.9, else ``rho[0]`` (flag "clamped"). Only a
    column whose rates straddle 0.9 overrides that: with the crossing of a
    falling logistic fit that lies inside the grid ("logistic"), else with
    the first downward crossing of the rates, linearly interpolated, when
    there is one ("interp").
    """
    rho = grid.rho_grid
    rho90 = np.empty(grid.delta_grid.size)
    flags: List[str] = []
    for i, wins in enumerate(grid.successes.astype(np.float64)):
        rates = wins / grid.trials
        rho90[i], flag = (rho[-1] if rates[-1] >= 0.9 else rho[0]), "clamped"
        if np.any(rates >= 0.9) and np.any(rates < 0.9):
            fit = _irls_logistic(rho, wins, grid.trials)
            logistic = math.nan if fit is None or fit[1] >= 0 else (LN9 - fit[0]) / fit[1]
            interp = _crossing_interp(rho, rates)
            if rho[0] <= logistic <= rho[-1]:
                rho90[i], flag = logistic, "logistic"
            elif interp is not None:
                rho90[i], flag = interp, "interp"
        flags.append(flag)
    return rho90, flags


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
    _check_count("replications", replications, 1)
    if len(sizes) == 0:
        raise ValueError("sizes is empty")
    for p in sizes:  # n = p//4 must be >= 1
        _check_count("each size", p, 4)
    dims = [(p, p // 4, max(1, p // 4 // 40)) for p in sizes]
    tasks = [
        [dict(matrix_kind=matrix_kind, n=n, p=p, s=s, dr=dr, sigma=sigma,
              seed=_task_seed(base_seed, si, rep))]
        for si, (p, n, s) in enumerate(dims)
        for rep in range(replications)
    ]
    records = _run_trials(tasks, workers, penalty, gamma, kmax, path_len)
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
