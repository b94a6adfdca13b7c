"""The benchmark's workloads against the public ishtc API.

Each workload is one closed-loop client: the benchmark makes the next call
only when the previous one has returned. Call ``j`` of a run draws its
inputs from the seed ``call_seed(seed, j)``; the run's ``--seed`` picks one
of ``SEED_CLASSES`` input families, and within a family the calls cycle
through ``cycle`` distinct seeds. Outputs of every call of the sweep and grid
workloads are recorded in ``expected.json`` (see ``record.py``).

Sizes come in two profiles: ``full`` (the benchmark) and ``toy`` (the
self-check, which only validates the result schema).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from pathlib import Path
from typing import Any, NamedTuple, Optional

import numpy as np

#: Number of input families; ``--seed`` selects ``seed % SEED_CLASSES``.
SEED_CLASSES = 8


def call_seed(seed: int, j: int, cycle: int) -> int:
    """Base seed of call ``j`` of a run with the given ``--seed``."""
    return 1000 * (seed % SEED_CLASSES) + j % cycle


def psnr_db(x_hat: np.ndarray, x_true: np.ndarray) -> float:
    """``10*log10(max|x_true|^2 / MSE)``, written here so the check does not
    rely on the library's own metric."""
    mse = float(np.mean((x_hat - x_true) ** 2))
    peak = float(np.max(np.abs(x_true)))
    return math.inf if mse == 0.0 else 10.0 * math.log10(peak * peak / mse)


def task_seed(base_seed: int, *key: int) -> int:
    """Per-task seed used by ishtc's sweep and grid functions:
    ``SeedSequence(base, spawn_key=key)``."""
    ss = np.random.SeedSequence(base_seed, spawn_key=tuple(key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


class DivergenceCounter:
    """Counts trials and DivergenceErrors at ``experiments.run_full_path``.

    The sweep and grid functions swallow DivergenceError, so this is the one
    hook an untraced run needs: one Python call per trial. It forwards to
    ``ishtc.modelselect.run_full_path`` looked up at call time, so the
    tracer's wrapper there still sees every trial.
    """

    def __init__(self) -> None:
        from ishtc import experiments, modelselect
        from ishtc.solver import DivergenceError

        self.trials: list = []
        self.diverged: list = []
        self._exp = experiments
        self._orig = experiments.run_full_path

        def counted(*args, **kwargs):
            self.trials.append(None)
            try:
                return modelselect.run_full_path(*args, **kwargs)
            except DivergenceError:
                self.diverged.append(None)
                raise

        experiments.run_full_path = counted

    def take(self) -> tuple:
        """(trials, diverged) since the last call."""
        out = (len(self.trials), len(self.diverged))
        self.trials.clear()
        self.diverged.clear()
        return out

    def close(self) -> None:
        self._exp.run_full_path = self._orig


class CallResult(NamedTuple):
    """What one call produced: its checked output and its trial counts."""

    output: Any
    trials: int
    successes: float
    diverged: int
    psnr: Optional[float] = None


class SweepDense:
    """support_probability_sweep, Gaussian 500x1000, s in {10,40,70,100}, L0,
    one worker; one call is one replication over the four s values."""

    name = "sweep-dense"
    workers = 1
    recorded = True
    SIZES = {
        "full": dict(n=500, p=1000, dr=100.0, sigma=1e-2, values=(10, 40, 70, 100), cycle=32),
        "toy": dict(n=60, p=120, dr=10.0, sigma=1e-2, values=(2, 4, 8, 16), cycle=2),
    }

    def __init__(self, profile: str, tmp: Path) -> None:
        from ishtc import experiments
        from ishtc.thresholding import Penalty

        sz = self.SIZES[profile]
        self.cycle = sz["cycle"]
        self.values = sz["values"]
        self.fixed = dict(matrix_kind="gaussian", n=sz["n"], p=sz["p"], dr=sz["dr"], sigma=sz["sigma"])
        self.penalty = Penalty.L0
        self.ex = experiments
        self.counter = DivergenceCounter()

    def warm_up(self) -> None:
        from ishtc import modelselect, probgen

        prob = probgen.gen_problem(seed=999_999, s=self.values[0], **self.fixed)
        modelselect.run_full_path(prob.op, prob.y, self.penalty, N=5)

    def call(self, base_seed: int) -> CallResult:
        spec = self.ex.SweepSpec(varied="s", values=self.values, fixed=self.fixed,
                                 replications=1, base_seed=base_seed)
        rows = self.ex.support_probability_sweep(spec, self.penalty, workers=self.workers)
        trials, diverged = self.counter.take()
        rates = [rate for _, rate in rows]
        return CallResult(rates, trials, sum(rates), diverged)

    def reference(self, base_seed: int, expected) -> tuple:
        """Re-solve the call's first trial (s = values[0]) through the public
        API; returns (psnr, agrees with the recorded success)."""
        from ishtc import modelselect, probgen

        prob = probgen.gen_problem(seed=task_seed(base_seed, 0), s=self.values[0], **self.fixed)
        path = modelselect.run_full_path(prob.op, prob.y, self.penalty)
        _, x_best, _ = modelselect.select_bic(path, prob.y)
        exact = np.array_equal(np.flatnonzero(x_best), np.flatnonzero(prob.x_true))
        return psnr_db(x_best, prob.x_true), expected[0] == float(exact)

    def close(self) -> None:
        self.counter.close()


class Phase2w:
    """phase_transition_grid, p=400, 10x10 delta/rho grid on [0.1, 1], 2 trials
    per cell, L1, sigma=1e-6, two workers; one call is one whole grid."""

    name = "phase-2w"
    workers = 2
    recorded = True
    SIZES = {
        "full": dict(p=400, k=10, trials=2, sigma=1e-6, cycle=2),
        "toy": dict(p=40, k=3, trials=1, sigma=1e-6, cycle=2),
    }
    THRESHOLD = 1e-2

    def __init__(self, profile: str, tmp: Path) -> None:
        from ishtc import experiments
        from ishtc.thresholding import Penalty

        sz = self.SIZES[profile]
        self.cycle = sz["cycle"]
        self.p, self.trials, self.sigma = sz["p"], sz["trials"], sz["sigma"]
        self.grid = np.linspace(0.1, 1.0, sz["k"])
        self.penalty = Penalty.L1
        self.ex = experiments
        self.counter = DivergenceCounter()

    def warm_up(self) -> None:
        self.ex.phase_transition_grid([1.0], [0.1, 0.2], p=self.p, trials=1, penalty=self.penalty,
                                      sigma=self.sigma, base_seed=999_999, workers=self.workers)
        self.counter.take()

    def call(self, base_seed: int) -> CallResult:
        g = self.ex.phase_transition_grid(
            self.grid, self.grid, p=self.p, trials=self.trials, penalty=self.penalty,
            success_threshold=self.THRESHOLD, sigma=self.sigma, base_seed=base_seed,
            workers=self.workers,
        )
        trials, diverged = self.counter.take()
        return CallResult(g.successes.tolist(), trials, int(g.successes.sum()), diverged)

    def reference(self, base_seed: int, expected) -> tuple:
        """Re-solve trial 0 of the cell delta=1, rho=min through the public
        API; returns (psnr, agrees with the recorded cell count)."""
        from ishtc import modelselect, probgen

        i, j = len(self.grid) - 1, 0
        n = max(1, int(round(self.grid[i] * self.p)))
        s = max(1, int(round(self.grid[j] * n)))
        prob = probgen.gen_problem("gaussian", n=n, p=self.p, s=s, dr=1.0, sigma=self.sigma,
                                   seed=task_seed(base_seed, i, j, 0))
        path = modelselect.run_full_path(prob.op, prob.y, self.penalty)
        _, x_best, _ = modelselect.select_bic(path, prob.y)
        win = np.linalg.norm(x_best - prob.x_true) / np.linalg.norm(prob.x_true) <= self.THRESHOLD
        wins = expected[i][j]
        agrees = (0 < wins) if win else (wins < self.trials)
        return psnr_db(x_best, prob.x_true), bool(agrees)

    def close(self) -> None:
        self.counter.close()


class CliFftHaar:
    """In-process ``ishtc gen`` (fft-haar, 5320x8192, s=1976, 2 Haar levels)
    then ``ishtc path --penalty l0`` into a temporary directory; one call is
    one gen+path pair."""

    name = "cli-fft-haar"
    workers = 1
    recorded = False
    SIZES = {
        "full": dict(n=5320, p=8192, s=1976, cycle=4),
        "toy": dict(n=166, p=256, s=40, cycle=2),
    }
    MIN_PSNR_DB = 45.0

    def __init__(self, profile: str, tmp: Path) -> None:
        from ishtc import cli

        sz = self.SIZES[profile]
        self.cycle = sz["cycle"]
        self.size = sz
        self.cli = cli
        self.prob_dir, self.sel_dir = tmp / "prob", tmp / "sel"
        #: First x_best.bin digest seen for each problem seed in this run.
        self.digests: dict = {}

    def _main(self, argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(argv)

    def _pair(self, seed: int, n: int, p: int, s: int) -> tuple:
        gen = self._main([
            "gen", "--kind", "fft-haar", "--n", str(n), "--p", str(p), "--s", str(s),
            "--levels", "2", "--dr", "100", "--sigma", "1e-4", "--seed", str(seed),
            "--out", str(self.prob_dir),
        ])
        path = self._main(["path", "--problem", str(self.prob_dir), "--penalty", "l0",
                           "--out", str(self.sel_dir)])
        return gen, path

    def warm_up(self) -> None:
        toy = self.SIZES["toy"]
        self._pair(999_999, toy["n"], toy["p"], toy["s"])

    def call(self, base_seed: int) -> CallResult:
        gen, path = self._pair(base_seed, self.size["n"], self.size["p"], self.size["s"])
        if gen != 0 or path not in (0, 4):
            raise RuntimeError(f"ishtc exit codes gen={gen} path={path}")
        if path == 4:
            return CallResult(None, 1, 0, 1)
        raw = (self.sel_dir / "x_best.bin").read_bytes()
        x_best = np.frombuffer(raw[16:], dtype="<f8")
        x_true = np.frombuffer((self.prob_dir / "x_true.bin").read_bytes()[16:], dtype="<f8")
        db = psnr_db(x_best, x_true)
        return CallResult(hashlib.sha256(raw).hexdigest(), 1, int(db >= self.MIN_PSNR_DB), 0, db)

    def check(self, res: CallResult, base_seed: int) -> bool:
        """Byte-identical x_best.bin for every repeat of a seed, PSNR >= 45 dB."""
        first = self.digests.setdefault(base_seed, res.output)
        return res.output is not None and res.output == first and res.psnr >= self.MIN_PSNR_DB

    def close(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (SweepDense, Phase2w, CliFftHaar)}
