import copy
import dataclasses
import math
import os

import numpy as np
import pytest

from ishtc import experiments
from ishtc.experiments import (
    PhaseGrid,
    SweepSpec,
    bench_to_csv,
    benchmark_table,
    curve90_to_csv,
    fft_haar_reconstruction,
    fit_90pct_curve,
    median_smooth3,
    phase_to_csv,
    phase_transition_grid,
    support_probability_sweep,
    sweep_to_csv,
)
from ishtc.thresholding import Penalty

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


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(varied="dr", values=(1.0,), fixed={}, replications=1)
    with pytest.raises(ValueError):
        SweepSpec(varied="s", values=(), fixed={}, replications=1)
    with pytest.raises(ValueError):
        SweepSpec(varied="s", values=(1.0,), fixed={}, replications=0)


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


def test_fit_all_failure_clamped_low():
    grid = _column_grid([0.1, 0.3, 0.5], [0, 1, 0], trials=4)
    rho90, flags = fit_90pct_curve(grid)
    assert float(rho90[0]) == 0.1
    assert flags[0] == "clamped"


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


def test_fft_haar_reconstruction_small():
    result = fft_haar_reconstruction(n=48, p=64, s=8, dr=10.0, sigma=1e-5, seed=2)
    assert result["psnr_db"] > 30.0
    assert result["rel_l2"] < 1e-2
    assert result["n_matvec"] > 0
    assert set(result) >= {
        "psnr_db", "signal_psnr_db", "rel_l2", "abs_linf", "exact_support",
        "lambda_best", "n_matvec", "wall_time_s",
    }
