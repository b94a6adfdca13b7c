import copy
import dataclasses
import math
import os
import warnings

import numpy as np
import pytest

from ishtc import experiments, linop, probgen
from ishtc.experiments import (
    PhaseGrid,
    SweepSpec,
    bench_to_csv,
    benchmark_table,
    curve90_to_csv,
    fit_90pct_curve,
    phase_to_csv,
    phase_transition_grid,
    support_probability_sweep,
    sweep_to_csv,
)
from ishtc.metrics import reconstruction_metrics
from ishtc.modelselect import run_full_path, select_bic
from ishtc.probgen import gen_problem
from ishtc.thresholding import Penalty
from test_acceptance import median_smooth3
from test_cli import _count_trials

TINY_SWEEP = dict(
    fixed={"matrix_kind": "gaussian", "n": 20, "p": 40, "sigma": 0.0, "dr": 1.0},
    replications=3,
    base_seed=5,
)


def _column_grid(rho, successes, trials):
    """Single-delta grid wrapping one success column."""
    return PhaseGrid(
        delta_grid=np.array([0.5]),
        rho_grid=np.asarray(rho, dtype=float),
        successes=np.asarray(successes, dtype=float)[None, :],
        trials=trials,
        p=100,
    )


def test_sweep_trivial_probability_one():
    spec = SweepSpec(varied="s", values=(1.0,), replications=1, base_seed=0,
                     fixed={"matrix_kind": "gaussian", "n": 20, "p": 40,
                            "sigma": 0.0, "dr": 1.0})
    rows = support_probability_sweep(spec, Penalty.L1)
    assert rows == [(1.0, 1.0)]


def test_sweep_worker_invariance():
    spec = SweepSpec(varied="s", values=(1.0, 2.0, 3.0), **TINY_SWEEP)
    serial = support_probability_sweep(spec, Penalty.L0, workers=1)
    parallel = support_probability_sweep(spec, Penalty.L0, workers=4)
    assert serial == parallel


def test_sweep_deterministic_in_base_seed():
    spec = SweepSpec(
        varied="sigma", values=(1e-3, 1e-1), replications=3, base_seed=5,
        fixed={"matrix_kind": "gaussian", "n": 20, "p": 40, "s": 2, "dr": 1.0},
    )
    assert support_probability_sweep(spec, Penalty.L1) == support_probability_sweep(
        spec, Penalty.L1
    )


@pytest.mark.parametrize("varied, values, fixed", [
    ("s", (1.0, 3.0, 6.0), {"matrix_kind": "gaussian", "sigma": 1e-2}),
    ("sigma", (0.0, 1e-2, 3e-1), {"matrix_kind": "gaussian", "s": 4}),
    ("nu", (0.0, 0.5, 0.9), {"matrix_kind": "correlated", "s": 4, "sigma": 1e-2}),
])
def test_sweep_draws_one_matrix_per_replication(varied, values, fixed, monkeypatch):
    """An s or sigma sweep draws each replication's matrix once; a nu sweep
    draws one per value. The rates are those of one gen_problem per draw."""
    fixed = {"n": 20, "p": 40, "dr": 10.0, **fixed}
    spec = SweepSpec(varied=varied, values=values, fixed=fixed, replications=3, base_seed=5)
    drawn = []

    def counted(*args, _orig=probgen.gen_correlated_gaussian):
        drawn.append(args)
        return _orig(*args)

    monkeypatch.setattr(probgen, "gen_correlated_gaussian", counted)
    rows = support_probability_sweep(spec, Penalty.L0, workers=2)
    assert len(drawn) == spec.replications * (len(values) if varied == "nu" else 1)
    monkeypatch.undo()

    want = []
    for value in values:
        wins = 0
        for rep in range(spec.replications):
            draw = {**fixed, varied: int(value) if varied == "s" else value,
                    "seed": experiments._task_seed(spec.base_seed, rep)}
            problem = gen_problem(**draw)
            _, x_best, _ = select_bic(run_full_path(problem.op, problem.y, Penalty.L0), problem.y)
            wins += reconstruction_metrics(x_best, problem.x_true).exact_support
        want.append((float(value), wins / spec.replications))
    assert rows == want
    assert 0 < sum(rate for _, rate in rows) < len(values)  # the rates are not all 0 or 1


def _handed_tasks(monkeypatch, run):
    """The tasks that ``run()`` hands ``experiments._run_ordered``."""
    handed = []
    run_ordered = experiments._run_ordered

    def recorded(fn, tasks, workers):
        handed.extend(tasks)
        return run_ordered(fn, tasks, workers)

    monkeypatch.setattr(experiments, "_run_ordered", recorded)
    run()
    return handed


@pytest.mark.parametrize("varied, values, fixed", [
    ("s", (1.0, 3.0), {"matrix_kind": "gaussian", "sigma": 1e-2}),
    ("sigma", (0.0, 1e-2, 3e-1), {"matrix_kind": "bernoulli", "s": 4}),
    ("nu", (0.0, 0.5, 0.9), {"matrix_kind": "correlated", "s": 4, "sigma": 1e-2}),
])
def test_sweep_hands_one_task_per_replication(varied, values, fixed, monkeypatch):
    """An s or sigma sweep hands one task per replication, its draws in value
    order; a nu sweep, whose value is part of the matrix, one draw per task."""
    spec = SweepSpec(varied=varied, values=values, fixed={"n": 20, "p": 40, "dr": 10.0, **fixed},
                     replications=3, base_seed=5)
    tasks = _handed_tasks(monkeypatch, lambda: support_probability_sweep(
        spec, Penalty.L1, workers=2, path_len=5))
    seeds = [experiments._task_seed(spec.base_seed, rep) for rep in range(spec.replications)]
    want = [[(seed, int(v) if varied == "s" else v) for v in values] for seed in seeds]
    if varied == "nu":
        want = [[draw] for draws in want for draw in draws]
    assert [[(d["seed"], d[varied]) for d in draws] for draws in tasks] == want


@pytest.mark.parametrize("run, trials", [
    (lambda: phase_transition_grid([0.5, 1.0], [0.1, 0.3], p=40, trials=2, penalty=Penalty.L1,
                                   workers=2, path_len=5), 8),
    (lambda: benchmark_table([16, 32], "bernoulli", Penalty.L1, replications=3, dr=10.0,
                             sigma=5e-2, workers=2, path_len=5), 6),
], ids=["phase", "bench"])
def test_grid_and_table_hand_one_draw_per_task(run, trials, monkeypatch):
    tasks = _handed_tasks(monkeypatch, run)
    assert [len(draws) for draws in tasks] == [1] * trials
    assert len({draws[0]["seed"] for draws in tasks}) == trials


def _triangles_built(monkeypatch, varied, values, fixed):
    """The shape of every Gram triangle built by a 2-replication sweep at
    400x700 (above GRAM_MIN_SIZE, p <= 2n) on two workers."""
    built = []

    def counted(matrix, _orig=linop._gram_triangle):
        built.append(matrix.shape)
        return _orig(matrix)

    monkeypatch.setattr(linop, "_gram_triangle", counted)
    spec = SweepSpec(varied=varied, values=values, fixed={"n": 400, "p": 700, "dr": 10.0, **fixed},
                     replications=2, base_seed=3)
    support_probability_sweep(spec, Penalty.L0, workers=2, path_len=5)
    return built


@pytest.mark.parametrize("varied, values, fixed, triangles", [
    ("s", (2.0, 5.0), {"matrix_kind": "gaussian", "sigma": 1e-2}, 2),
    ("sigma", (1e-3, 1e-2), {"matrix_kind": "gaussian", "s": 3}, 2),
])
def test_a_task_of_several_draws_builds_one_triangle(varied, values, fixed, triangles,
                                                     monkeypatch):
    """An s or sigma sweep builds one Gram triangle per replication, for all
    its draws."""
    assert _triangles_built(monkeypatch, varied, values, fixed) == [(400, 700)] * triangles


@pytest.mark.parametrize("varied, values, fixed, triangles", [
    ("s", (2.0,), {"matrix_kind": "gaussian", "sigma": 1e-2}, 2),
    ("nu", (0.0, 0.5), {"matrix_kind": "correlated", "s": 3, "sigma": 1e-2}, 4),
], ids=["s", "nu"])
def test_a_task_of_one_draw_builds_its_own_triangle(varied, values, fixed, triangles,
                                                    monkeypatch):
    """A task of one draw, as each of a nu sweep's, builds one Gram triangle
    for its one solve, in its worker thread."""
    assert _triangles_built(monkeypatch, varied, values, fixed) == [(400, 700)] * triangles


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(varied="dr", values=(1.0,), fixed={}, replications=1)
    with pytest.raises(ValueError):
        SweepSpec(varied="s", values=(), fixed={}, replications=1)
    with pytest.raises(ValueError):
        SweepSpec(varied="s", values=(1.0,), fixed={}, replications=0)
    for bad in (2.6, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="integers"):
            SweepSpec(varied="s", values=(2.0, bad), fixed={}, replications=1)
    with pytest.raises(ValueError, match="correlated"):
        SweepSpec(varied="nu", values=(0.0, 0.5, 0.9), replications=1,
                  fixed={"matrix_kind": "gaussian", "n": 20, "p": 40, "s": 2})
    SweepSpec(varied="nu", values=(0.0, 0.5), fixed={"matrix_kind": "correlated"}, replications=1)


@pytest.mark.parametrize("varied, key", [("s", "seed"), ("sigma", "seed"), ("s", "s"),
                                         ("sigma", "sigma"), ("nu", "nu")])
def test_sweep_spec_refuses_a_fixed_key_the_sweep_sets(varied, key):
    """Each draw sets its seed and its varied value, so ``fixed`` may hold
    neither: the sweep would drop it without a sign."""
    fixed = {"matrix_kind": "correlated", "n": 20, "p": 40, "dr": 1.0, key: 3}
    with pytest.raises(ValueError, match=repr(key)):
        SweepSpec(varied=varied, values=(0.0, 1.0), fixed=fixed, replications=1)


def _sweep(replications=2, **kwargs):
    spec = SweepSpec(varied="s", values=(1.0, 2.0), replications=replications,
                     fixed=TINY_SWEEP["fixed"])
    return support_probability_sweep(spec, Penalty.L1, **kwargs)


def _phase(trials=1, **kwargs):
    return phase_transition_grid([0.5], [0.1], p=40, trials=trials, penalty=Penalty.L1, **kwargs)


def _bench(sizes=(16,), replications=1, **kwargs):
    return benchmark_table(list(sizes), "bernoulli", Penalty.L1, replications=replications,
                           dr=10.0, sigma=5e-2, **kwargs)


@pytest.mark.parametrize("run, kwargs", [
    (_sweep, {"replications": True}), (_sweep, {"replications": 2.0}), (_sweep, {"workers": 1.5}),
    (_phase, {"trials": True}), (_phase, {"trials": 2.0}), (_phase, {"workers": 1.5}),
    (_bench, {"replications": True}), (_bench, {"sizes": (16.0,)}), (_bench, {"workers": 1.5}),
    (_phase, {"kmax": 2.5}), (_bench, {"path_len": True}),
], ids=["sweep-replications-True", "sweep-replications-2.0", "sweep-workers-1.5",
        "phase-trials-True", "phase-trials-2.0", "phase-workers-1.5", "bench-replications-True",
        "bench-size-16.0", "bench-workers-1.5", "phase-kmax-2.5", "bench-path-len-True"])
def test_non_integer_counts_are_refused_before_any_trial(run, kwargs, monkeypatch):
    """A bool or non-integer count raises ValueError before the first trial."""
    calls = _count_trials(monkeypatch)
    with pytest.raises(ValueError, match="must be an integer"):
        run(**kwargs)
    assert not calls


@pytest.mark.parametrize("run", [
    lambda: phase_transition_grid([0.5], [0.1], p=16.0, trials=1, penalty=Penalty.L1),
    lambda: phase_transition_grid([0.5], [0.1], p=True, trials=1, penalty=Penalty.L1),
    lambda: support_probability_sweep(
        SweepSpec(varied="s", values=(1.0,), replications=1,
                  fixed={**TINY_SWEEP["fixed"], "n": 4.0}), Penalty.L1),
    lambda: support_probability_sweep(
        SweepSpec(varied="sigma", values=(0.0,), replications=1,
                  fixed={"matrix_kind": "gaussian", "n": 20, "p": 40, "dr": 1.0, "s": 2.0}),
        Penalty.L1),
], ids=["phase-p-16.0", "phase-p-True", "sweep-n-4.0", "sweep-s-2.0"])
def test_non_integer_sizes_are_refused_before_any_trial(run, monkeypatch):
    """n, p and s must be integers (not bools), refused before the first draw."""
    calls = _count_trials(monkeypatch)
    with pytest.raises(ValueError, match="must be an integer"):
        run()
    assert not calls


@pytest.mark.parametrize("seed, fragment", [(-3, "seed must be >= 0, got -3"),
                                            (True, "seed must be an integer, got True")])
@pytest.mark.parametrize("run", [_phase, _bench], ids=["phase", "bench"])
def test_base_seed_is_checked_before_any_trial(run, seed, fragment, monkeypatch):
    """A negative or bool base seed is refused by name before the first trial."""
    calls = _count_trials(monkeypatch)
    with pytest.raises(ValueError, match=fragment):
        run(base_seed=seed)
    with pytest.raises(ValueError, match=fragment):
        support_probability_sweep(SweepSpec(varied="s", values=(1.0,), replications=1,
                                            fixed=TINY_SWEEP["fixed"], base_seed=seed),
                                  Penalty.L1)
    assert not calls


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    sweep_to_csv([(10.0, 0.9), (20.0, 0.5)], out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "value,success_probability"
    assert lines[1] == "10.0,0.9"


def test_phase_grid_bounds_enforced():
    with pytest.raises(ValueError):
        phase_transition_grid([0.05], [0.5], p=40, trials=1, penalty=Penalty.L1)
    with pytest.raises(ValueError):
        phase_transition_grid([0.5], [1.5], p=40, trials=1, penalty=Penalty.L1)


def test_phase_grid_tiny_deterministic_across_workers():
    kwargs = dict(p=40, trials=2, penalty=Penalty.L1, base_seed=3)
    a = phase_transition_grid([0.5, 1.0], [0.1, 0.2], workers=1, **kwargs)
    b = phase_transition_grid([0.5, 1.0], [0.1, 0.2], workers=4, **kwargs)
    np.testing.assert_array_equal(a.successes, b.successes)
    assert a.successes.shape == (2, 2)
    assert np.all(a.successes <= a.trials)
    n, s = a.cell_dims(0, 0)
    assert n == 20 and s == 2


def test_fit_bracketing_column():
    grid = _column_grid([0.1, 0.2, 0.3, 0.4, 0.5, 0.6], [6, 6, 6, 0, 0, 0], trials=6)
    rho90, flags = fit_90pct_curve(grid)
    assert 0.3 < float(rho90[0]) < 0.4
    assert flags[0] in ("logistic", "interp")


def test_fit_all_success_clamped_high():
    grid = _column_grid([0.1, 0.3, 0.5], [4, 4, 4], trials=4)
    before = copy.deepcopy(grid)
    rho90, flags = fit_90pct_curve(grid)
    assert float(rho90[0]) == 0.5
    assert flags[0] == "clamped"
    # The fit is pure: the grid keeps its five fields and their values.
    assert [f.name for f in dataclasses.fields(PhaseGrid)] == [
        "delta_grid", "rho_grid", "successes", "trials", "p"]
    assert vars(grid).keys() == vars(before).keys()
    for name, value in vars(before).items():
        assert np.array_equal(getattr(grid, name), value), name


def test_fit_rising_column_clamped_high():
    # Rates rise from 0 to 1: no downward crossing of 0.9, so the top of the grid.
    grid = _column_grid([0.1, 0.3, 0.5], [0, 2, 4], trials=4)
    rho90, flags = fit_90pct_curve(grid)
    assert (float(rho90[0]), flags[0]) == (0.5, "clamped")


def test_fit_all_failure_clamped_low():
    grid = _column_grid([0.1, 0.3, 0.5], [0, 1, 0], trials=4)
    rho90, flags = fit_90pct_curve(grid)
    assert float(rho90[0]) == 0.1
    assert flags[0] == "clamped"


@pytest.mark.parametrize("rho, wins, trials, want", [
    ((0.3, 0.3), (4, 2), 4, 0.3),
    ((0.2, 0.201, 0.5), (1, 0, 0), 1, 0.2001),
], ids=["singular-hessian", "runaway-fit"])
def test_fit_falls_back_to_interp_quietly(rho, wins, trials, want):
    """A logistic fit that finds no answer, from a singular Hessian or from
    completely separated counts, falls back to interpolation without a numpy
    warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rho90, flags = fit_90pct_curve(_column_grid(rho, wins, trials))
    assert (float(rho90[0]), flags[0]) == (want, "interp")


@pytest.mark.parametrize("rho, wins, trials", [
    ((0.2, 0.201, 0.5), (1, 0, 0), 1),
    ((0.9, 0.1, 0.5), (0, 3, 3), 3),
    ((0.1, 0.3), (2, 2), 2),
], ids=["falling", "unsorted-rising", "all-wins"])
def test_separated_counts_take_no_newton_step(rho, wins, trials, monkeypatch):
    """Counts that are all wins or all losses at each rho, the wins on one
    side of the losses, have no maximum-likelihood fit: no step is tried."""
    solves = []
    monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(a))
    assert experiments._irls_logistic(np.array(rho), np.array(wins, float), trials) is None
    assert solves == []


def test_logistic_fit_that_overflows_returns_none():
    """Counts that are not separated but sit at a rho so large that the first
    step overflows end the fit at its non-finite check, without a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = experiments._irls_logistic(np.array([0.0, 1.0, 1e155]), np.array([2.0, 1.0, 0.0]), 2)
    assert fit is None


def test_fit_synthetic_logistic_oracle():
    """Recovers the 90% point of a known logistic within 0.02."""
    a, b = 10.0, -20.0
    rho = np.linspace(0.1, 1.0, 25)
    probs = 1.0 / (1.0 + np.exp(-(a + b * rho)))
    wins = np.random.default_rng(77).binomial(400, probs)
    grid = _column_grid(rho, wins, trials=400)
    rho90, flags = fit_90pct_curve(grid)
    analytic = (math.log(9.0) - a) / b
    assert flags[0] == "logistic"
    assert abs(float(rho90[0]) - analytic) <= 0.02


def test_median_smooth():
    np.testing.assert_array_equal(median_smooth3([1.0, 9.0, 1.0]), [1.0, 1.0, 1.0])
    np.testing.assert_array_equal(median_smooth3([1.0, 2.0, 9.0]), [1.0, 2.0, 9.0])
    np.testing.assert_array_equal(median_smooth3([5.0, 4.0]), [5.0, 4.0])
    out = median_smooth3([0.1, 0.5, 0.2, 0.6, 0.3])
    assert out.size == 5


def test_phase_csv_writers(tmp_path):
    grid = _column_grid([0.1, 0.5], [4, 0], trials=4)
    phase_path = tmp_path / "phase.csv"
    curve_path = tmp_path / "curve90.csv"
    phase_to_csv(grid, phase_path)
    curve90_to_csv(grid, curve_path)
    phase_lines = phase_path.read_text().strip().splitlines()
    assert phase_lines[0] == "delta,rho,n,s,successes,trials,success_rate"
    assert len(phase_lines) == 3
    curve_lines = curve_path.read_text().strip().splitlines()
    assert curve_lines[0] == "delta,rho90,flag"
    assert len(curve_lines) == 2


def test_benchmark_table_and_csv(tmp_path):
    rows = benchmark_table([320], matrix_kind="bernoulli", penalty=Penalty.L1,
                           replications=2, dr=100.0, sigma=5e-2, base_seed=1)
    assert len(rows) == 1
    row = rows[0]
    assert (row["p"], row["n"], row["s"]) == (320, 80, 2)
    assert row["n_matvec"] > 0
    assert math.isfinite(row["rel_l2"])
    out = tmp_path / "bench.csv"
    bench_to_csv(rows, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "p,n,s,time_s,n_matvec,rel_l2,abs_linf,diverged"
    assert len(lines) == 2


def test_benchmark_table_worker_invariance():
    kwargs = dict(matrix_kind="bernoulli", penalty=Penalty.L1, replications=2, dr=100.0,
                  sigma=5e-2, base_seed=1)
    serial = benchmark_table([320, 400], workers=1, **kwargs)
    pooled = benchmark_table([320, 400], workers=3, **kwargs)
    for rows in (serial, pooled):
        assert [(r["p"], r["diverged"]) for r in rows] == [(320, 0), (400, 0)]
        for r in rows:
            del r["time_s"]
    assert serial == pooled


class _FakePool:
    """Stands in for ThreadPoolExecutor: records ``max_workers``, maps serially."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("workers, cpus, threads", [
    (5000, 64, 4), (5000, 3, 3), (2, 64, 2), (1, 64, None), (5000, 1, None), (5000, None, None),
])
def test_pool_has_at_most_one_thread_per_task_and_per_cpu(workers, cpus, threads, monkeypatch):
    """A 2x1 grid with 2 trials is 4 tasks; the pool size is min(workers, tasks, CPUs),
    and a size of one runs in the calling thread without a pool."""
    monkeypatch.setattr(_FakePool, "sizes", [])
    monkeypatch.setattr(experiments, "ThreadPoolExecutor", _FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    kwargs = dict(p=40, trials=2, penalty=Penalty.L1, base_seed=3, path_len=10)
    grid = phase_transition_grid([0.5, 1.0], [0.1], workers=workers, **kwargs)
    assert _FakePool.sizes == ([] if threads is None else [threads])
    monkeypatch.undo()
    serial = phase_transition_grid([0.5, 1.0], [0.1], workers=1, **kwargs)
    np.testing.assert_array_equal(grid.successes, serial.successes)
