"""Acceptance gate: one test per release criterion, numbered and self-contained.

Each test freezes its own seeds, grids, and tolerances so a bare `pytest -v`
prints one pass/fail line per criterion. The statistical bands used here were
calibrated once (see calibration/bic_error_band.json for criterion 6) and are
asserted against fixed seeds, so every run is deterministic.
"""

import json
import math
import time

import numpy as np

from ishtc.cli import EXIT_OK, main
from ishtc.experiments import (
    SweepSpec,
    fit_90pct_curve,
    phase_transition_grid,
    support_probability_sweep,
)
from ishtc.linop import dense_operator, mutual_coherence, normalize_columns
from ishtc.metrics import reconstruction_metrics
from ishtc.modelselect import run_full_path, select_bic
from ishtc.probgen import gen_problem
from ishtc.solver import (
    SolverConfig,
    TheoryParams,
    continuation_solve,
    gamma_lower_bound,
    lambda_star,
    theoretical_error_bound,
)
from ishtc.thresholding import Penalty, threshold_vector


def test_criterion_1_threshold_stability_bulk():
    """|T(x+y) - x| <= |y| + lam (soft) and |y| + sqrt(2 lam) (hard)."""
    rng = np.random.default_rng(2024)
    m = 100_000
    x = rng.uniform(-1e3, 1e3, m)
    y = rng.uniform(-1e3, 1e3, m)
    lam = rng.uniform(0.0, 10.0, m)
    lam[: m // 10] = rng.uniform(0.0, 1e3, m // 10)

    t0 = time.perf_counter()
    soft = np.sign(x + y) * np.maximum(np.abs(x + y) - lam, 0.0)
    hard = np.where(np.abs(x + y) > np.sqrt(2.0 * lam), x + y, 0.0)
    soft_slack = (np.abs(y) + lam) - np.abs(soft - x)
    hard_slack = (np.abs(y) + np.sqrt(2.0 * lam)) - np.abs(hard - x)
    elapsed = time.perf_counter() - t0

    assert float(soft_slack.min()) >= -1e-12
    assert float(hard_slack.min()) >= -1e-12
    assert elapsed < 5.0


def test_criterion_2_orthonormal_path_oracle():
    """Orthonormal columns: every path point is a one-shot threshold of A'y."""
    shapes = [(8, 8), (64, 32), (128, 128), (256, 128), (256, 256)]
    for penalty in (Penalty.L1, Penalty.L0):
        for n, p in shapes:
            rng = np.random.default_rng(n + p)
            if n == p == 8:
                op = dense_operator(np.eye(8))
            else:
                q, _ = np.linalg.qr(rng.standard_normal((n, p)))
                op = dense_operator(q)
            x0 = np.zeros(p)
            x0[:3] = (2.0, -1.0, 0.5)
            y = op.apply(x0) + 1e-3 * rng.standard_normal(n)
            z = op.apply_adjoint(y)
            cfg = SolverConfig(penalty=penalty, gamma=0.7, lambda_star="path",
                               path_len_N=40)
            _, path = continuation_solve(op, y, cfg)
            for lam, sol in zip(path.lambdas, path.solutions):
                ref = threshold_vector(z, lam, penalty)
                assert np.max(np.abs(sol - ref)) <= 1e-12


def _guarantee_config(prob, s, penalty):
    """Admissible constants for one instance, as (theory, config), or None
    when the instance does not qualify: the constant c whose cut is
    t = 2/(1 - 2*mu*s) (strictly admissible; c = t for L1, t**2/2 for L0),
    gamma at the midpoint of its allowed interval, stop level
    lambda_star(theory, penalty)."""
    mu = mutual_coherence(prob.op)
    if mu * s >= 0.5:
        return None
    c = penalty.level(2.0 / (1.0 - 2.0 * mu * s))
    theory = TheoryParams(mu_s=mu * s, c=c, epsilon=prob.epsilon)
    gb = gamma_lower_bound(theory, penalty)
    gam = gb + 0.5 * (1.0 - gb)
    if not 0.0 < gam < 1.0:
        return None
    return theory, SolverConfig(penalty=penalty, gamma=gam,
                                lambda_star=lambda_star(theory, penalty))


def _guarantee_outcome(prob, s, penalty=Penalty.L1):
    """Check support containment and the l-inf bound with the constants of
    :func:`_guarantee_config`. Returns (qualifies, held, exact_checked,
    exact_held)."""
    constants = _guarantee_config(prob, s, penalty)
    if constants is None:
        return False, False, False, False
    theory, cfg = constants
    x_star, _ = continuation_solve(prob.op, prob.y, cfg)
    bound = theoretical_error_bound(theory, penalty)
    sup_pred = set(np.flatnonzero(x_star).tolist())
    sup_true = set(np.flatnonzero(prob.x_true).tolist())
    held = sup_pred <= sup_true and float(np.max(np.abs(x_star - prob.x_true))) <= bound
    exact_checked = float(np.min(np.abs(prob.x_true[prob.x_true != 0]))) > bound
    exact_held = exact_checked and sup_pred == sup_true
    return True, held, exact_checked, exact_held


def test_criterion_3_coherence_guarantee_end_to_end():
    """Qualifying Gaussian instances keep supp(x*) inside the truth and meet
    the error bound; where the smallest true magnitude clears the bound the
    support is recovered exactly.

    At (n=500, p=1000) the measured coherence sits near 0.2, so the stated
    s=5 filter admits no instances (mu*s >= 0.5 for all 100 seeds) and that
    clause passes vacuously; the s=2 sweep exercises the guarantee for real.
    """
    t0 = time.perf_counter()

    qual5 = held5 = 0
    for seed in range(100):
        prob = gen_problem("gaussian", n=500, p=1000, s=5, sigma=1e-3,
                           dr=10.0, seed=seed)
        qualifies, held, _, _ = _guarantee_outcome(prob, 5)
        qual5 += qualifies
        held5 += held
    assert held5 == qual5

    qual2 = held2 = exact_checked = exact_held = 0
    for seed in range(100):
        prob = gen_problem("gaussian", n=500, p=1000, s=2, sigma=1e-3,
                           dr=10.0, seed=seed)
        qualifies, held, e_checked, e_held = _guarantee_outcome(prob, 2)
        qual2 += qualifies
        held2 += held
        exact_checked += e_checked
        exact_held += e_held

    # non-vacuous: nearly every seed qualifies at s=2 and all of them hold
    assert qual2 >= 90
    assert held2 == qual2
    assert exact_checked >= 50
    assert exact_held == exact_checked
    assert time.perf_counter() - t0 < 120.0


def test_criterion_4_matvec_accounting_exact():
    """n_matvec = 2*kmax*(executed levels) + 1 iff lambda0 is auto; level
    count never exceeds ceil(ln(lambda_star/lambda0)/ln gamma)."""
    rng = np.random.default_rng(11)
    op = normalize_columns(rng.standard_normal((30, 60)))
    x_true = np.zeros(60)
    x_true[[4, 17]] = (1.5, -2.0)
    y = op.apply(x_true) + 1e-3 * rng.standard_normal(30)

    for penalty in (Penalty.L1, Penalty.L0):
        for kmax in (1, 3, 5):
            for lambda0 in ("auto", 4.0):
                cfg = SolverConfig(penalty=penalty, lambda0=lambda0,
                                   gamma=0.75, kmax=kmax, lambda_star=0.05,
                                   path_len_N=200)
                _, path = continuation_solve(op, y, cfg)
                steps = len(path) - 1
                expected = 2 * kmax * steps + (1 if lambda0 == "auto" else 0)
                assert path.n_matvec == expected
                assert steps <= math.ceil(
                    math.log(0.05 / path.lambdas[0]) / math.log(0.75))

    # hand-checkable: identity design, auto lambda0 = 5, five levels run
    op3 = dense_operator(np.eye(3))
    cfg3 = SolverConfig(penalty=Penalty.L1, gamma=0.5, lambda_star=0.1)
    _, path3 = continuation_solve(op3, np.array([5.0, 0.0, 0.0]), cfg3)
    assert path3.n_matvec == 51


def test_criterion_5_recovery_probability_sweeps():
    """Exact-support probability is high at s=10, low at s=100, and falls
    with noise up to one sampling inversion."""
    t0 = time.perf_counter()

    spec_s = SweepSpec(
        varied="s",
        values=tuple(float(s) for s in range(10, 101, 10)),
        fixed={"matrix_kind": "gaussian", "n": 500, "p": 1000,
               "sigma": 1e-2, "dr": 100.0},
        replications=50,
        base_seed=2024,
    )
    rows_s = support_probability_sweep(spec_s, Penalty.L0, workers=4)
    assert rows_s[0][0] == 10.0 and rows_s[0][1] >= 0.9
    assert rows_s[-1][0] == 100.0 and rows_s[-1][1] <= 0.5

    spec_sigma = SweepSpec(
        varied="sigma",
        values=(1e-4, 1e-3, 1e-2, 1e-1, 1.0),
        fixed={"matrix_kind": "gaussian", "n": 500, "p": 1000,
               "s": 50, "dr": 100.0},
        replications=50,
        base_seed=2024,
    )
    rows_sigma = support_probability_sweep(spec_sigma, Penalty.L0, workers=4)
    probs = [pr for _, pr in rows_sigma]
    inversions = sum(1 for a, b in zip(probs, probs[1:]) if b > a + 1e-12)
    assert inversions <= 1

    assert time.perf_counter() - t0 < 600.0


def test_criterion_6_bic_error_band():
    """Bernoulli design with BIC-selected path point lands in the calibrated
    relative-error band; worst absolute error stays below 1.0."""
    rels, linfs = [], []
    for rep in range(10):
        prob = gen_problem("bernoulli", n=500, p=2000, s=12, sigma=5e-2,
                           dr=100.0, seed=9000 + rep)
        path = run_full_path(prob.op, prob.y, Penalty.L1)
        _, x_best, _ = select_bic(path, prob.y)
        m = reconstruction_metrics(x_best, prob.x_true)
        rels.append(m.rel_l2)
        linfs.append(m.abs_linf)

    mean_rel = float(np.mean(rels))
    assert 1.4e-3 <= mean_rel <= 1.3e-2
    assert float(np.mean(linfs)) <= 1.0
    assert float(np.max(linfs)) <= 1.0


def median_smooth3(v):
    """3-point running median with replicated endpoints (criterion 7's smoother)."""
    v = np.asarray(v, dtype=np.float64)
    if v.size <= 2:
        return v.copy()
    padded = np.concatenate([v[:1], v, v[-1:]])
    return np.array([float(np.median(padded[i : i + 3])) for i in range(v.size)])


def test_criterion_7_phase_transition_sanity():
    """Success-rate grid over (n/p, s/n): easy cell certain, hard cell dead,
    90%-success curve defined everywhere and nondecreasing after smoothing."""
    t0 = time.perf_counter()
    delta = np.linspace(0.1, 1.0, 15)
    rho = np.linspace(0.1, 1.0, 15)
    grid = phase_transition_grid(
        delta_grid=delta, rho_grid=rho, p=400, trials=20,
        penalty=Penalty.L1, base_seed=2024, workers=4,
    )
    rates = grid.successes / grid.trials

    i_easy = int(np.argmin(np.abs(delta - 0.9)))
    j_easy = int(np.argmin(np.abs(rho - 0.12)))
    i_hard = int(np.argmin(np.abs(delta - 0.2)))
    j_hard = int(np.argmin(np.abs(rho - 0.9)))
    assert rates[i_easy, j_easy] == 1.0
    assert rates[i_hard, j_hard] <= 0.1

    rho90, flags = fit_90pct_curve(grid)
    rho90 = np.asarray(rho90, dtype=float)
    assert len(flags) == delta.size
    assert np.all(np.isfinite(rho90))
    assert np.all((rho90 >= 0.1 - 1e-12) & (rho90 <= 1.0 + 1e-12))

    # 20 trials/cell leaves ~1e-3 binomial jitter on flat stretches, far
    # below the 0.064 grid spacing; tolerance 1e-2 absorbs it
    smoothed = np.asarray(median_smooth3(rho90), dtype=float)
    assert float(np.diff(smoothed).min()) >= -1e-2

    assert time.perf_counter() - t0 < 900.0


def test_criterion_8_fft_haar_reconstruction_psnr():
    """Partial-FFT measurements of a Haar-sparse signal reconstruct to at
    least 45 dB PSNR inside 30 s: the depth-2 fft-haar problem through the
    l0 full path at the solver's default knobs and a BIC pick."""
    t0 = time.perf_counter()
    prob = gen_problem("fft-haar", n=665, p=1024, s=247, dr=100.0, sigma=1e-4, seed=0, levels=2)
    path = run_full_path(prob.op, prob.y, Penalty.L0)
    _, x_best, _ = select_bic(path, prob.y)
    elapsed = time.perf_counter() - t0
    assert reconstruction_metrics(x_best, prob.x_true).psnr_db >= 45.0
    assert elapsed < 30.0


def test_criterion_9_cli_byte_determinism(tmp_path):
    """gen/solve reruns and sweep under 1 vs 4 workers are byte-identical."""
    gen_args = ["gen", "--kind", "gaussian", "--n", "40", "--p", "80",
                "--s", "4", "--dr", "10", "--sigma", "1e-3", "--seed", "21"]
    g1, g2 = tmp_path / "g1", tmp_path / "g2"
    assert main(gen_args + ["--out", str(g1)]) == EXIT_OK
    assert main(gen_args + ["--out", str(g2)]) == EXIT_OK
    for name in ("matrix.bin", "x_true.bin", "y.bin", "manifest.json"):
        assert (g1 / name).read_bytes() == (g2 / name).read_bytes()

    s1, s2 = tmp_path / "s1", tmp_path / "s2"
    solve_args = ["solve", "--problem", str(g1), "--penalty", "l1"]
    assert main(solve_args + ["--out", str(s1)]) == EXIT_OK
    assert main(solve_args + ["--out", str(s2)]) == EXIT_OK
    assert (s1 / "x_star.bin").read_bytes() == (s2 / "x_star.bin").read_bytes()
    assert (s1 / "path.csv").read_bytes() == (s2 / "path.csv").read_bytes()
    m1 = json.loads((s1 / "manifest.json").read_text())
    m2 = json.loads((s2 / "manifest.json").read_text())
    m1.pop("wall_time_s")
    m2.pop("wall_time_s")
    assert m1 == m2

    sweep_args = ["sweep", "--varied", "s", "--values", "1,2", "--n", "20",
                  "--p", "40", "--dr", "1", "--sigma", "0",
                  "--replications", "3", "--penalty", "l1", "--seed", "5"]
    w1, w4 = tmp_path / "w1", tmp_path / "w4"
    assert main(sweep_args + ["--workers", "1", "--out", str(w1)]) == EXIT_OK
    assert main(sweep_args + ["--workers", "4", "--out", str(w4)]) == EXIT_OK
    assert (w1 / "sweep.csv").read_bytes() == (w4 / "sweep.csv").read_bytes()
