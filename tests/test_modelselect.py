import numpy as np
import pytest

from ishtc.linop import normalize_columns
from ishtc.modelselect import BicScore, bic_score, run_full_path, scores_to_csv, select_bic
from ishtc.probgen import gen_problem
from ishtc.solver import PathResult, SolverConfig, continuation_solve
from ishtc.thresholding import Penalty


def _instance(seed=11, n=30, p=60):
    rng = np.random.default_rng(seed)
    op, _ = normalize_columns(rng.standard_normal((n, p)))
    x_true = np.zeros(p)
    x_true[[4, 17]] = (1.5, -2.0)
    y = op.apply(x_true) + 1e-3 * rng.standard_normal(n)
    return op, y


def test_full_path_single_entry_at_n_zero():
    op, y = _instance()
    path = run_full_path(op, y, Penalty.L1, N=0)
    assert len(path) == 1
    np.testing.assert_array_equal(path.solutions[0], np.zeros(op.p))


def test_full_path_visits_all_levels():
    op, y = _instance()
    path = run_full_path(op, y, Penalty.L1, gamma=0.8, N=100)
    assert len(path) == 101
    assert float(path.lambdas[-1] / path.lambdas[0]) == pytest.approx(0.8 ** 100, rel=1e-10)


def test_full_path_equals_explicit_stop():
    """The N-step path matches continuation with a matching stop level."""
    op, y = _instance()
    path = run_full_path(op, y, Penalty.L0, gamma=0.8, N=20)
    lam_stop = float(path.lambdas[-1])
    cfg = SolverConfig(penalty=Penalty.L0, gamma=0.8, lambda_star=lam_stop * 0.9999)
    _, direct = continuation_solve(op, y, cfg)
    assert len(direct) == len(path)
    for a, b in zip(path.solutions, direct.solutions):
        np.testing.assert_array_equal(a, b)


def test_bic_zero_solution_zero_score():
    n = 25
    assert bic_score(np.zeros(10), float(n), n) == 0.0


def test_bic_penalizes_support_at_equal_residual():
    n = 50
    dense = np.array([1.0, -2.0, 0.5, 0.0])
    sparse = np.array([1.0, 0.0, 0.0, 0.0])
    assert bic_score(sparse, 3.0, n) < bic_score(dense, 3.0, n)


def test_bic_zero_residual_floored():
    out = bic_score(np.array([1.0]), 0.0, 10)
    assert np.isfinite(out)


def test_bic_oversized_support_infinite():
    x = np.ones(8)
    assert bic_score(x, 1.0, 4) == np.inf


def _path_from(lams, sols, y):
    n = y.size
    residuals = [float(np.linalg.norm(y - s[:n])) for s in sols]
    return PathResult(
        lambdas=np.asarray(lams, dtype=float),
        solutions=[np.asarray(s, dtype=float) for s in sols],
        residual_norms=np.asarray(residuals),
        objective_values=np.zeros(len(sols)),
        matvec_cumulative=np.zeros(len(sols), dtype=int),
    )


def test_select_single_entry():
    y = np.array([1.0, 2.0])
    path = _path_from([0.5], [np.array([0.0, 0.0])], y)
    lam, x, scores = select_bic(path, y)
    assert lam == 0.5
    assert len(scores) == 1
    np.testing.assert_array_equal(x, [0.0, 0.0])


def test_select_dominant_entry_wins():
    y = np.array([1.0, 1.0])
    # second entry reproduces y with the smallest support
    sols = [np.array([0.0, 0.0]), np.array([1.0, 1.0]), np.array([1.0, 0.9])]
    path = _path_from([1.0, 0.5, 0.25], sols, y)
    lam, x, _ = select_bic(path, y)
    assert lam == 0.5
    np.testing.assert_array_equal(x, [1.0, 1.0])


def test_select_tie_breaks_toward_larger_lambda():
    y = np.array([1.0, 1.0])
    same = np.array([1.0, 1.0])
    path = _path_from([1.0, 0.5], [same, same.copy()], y)
    lam, _, _ = select_bic(path, y)
    assert lam == 1.0


def test_select_invariant_under_reordering():
    op, y = _instance()
    path = run_full_path(op, y, Penalty.L1, N=30)
    lam_fwd, x_fwd, _ = select_bic(path, y)
    order = np.arange(len(path))[::-1]
    reversed_path = PathResult(
        lambdas=np.asarray(path.lambdas)[order],
        solutions=[path.solutions[i] for i in order],
        residual_norms=np.asarray(path.residual_norms)[order],
        objective_values=np.asarray(path.objective_values)[order],
        matvec_cumulative=np.asarray(path.matvec_cumulative)[order],
    )
    lam_rev, x_rev, _ = select_bic(reversed_path, y)
    assert lam_rev == lam_fwd
    np.testing.assert_array_equal(x_rev, x_fwd)


def test_select_deterministic():
    op, y = _instance()
    path = run_full_path(op, y, Penalty.L0, N=40)
    picks = {select_bic(path, y)[0] for _ in range(3)}
    assert len(picks) == 1


def test_scores_finite_for_positive_residuals():
    op, y = _instance()
    path = run_full_path(op, y, Penalty.L1, N=25)
    _, _, scores = select_bic(path, y)
    assert all(np.isfinite(s.score) for s in scores if s.residual_sq > 0)


def test_scores_csv(tmp_path):
    scores = [
        BicScore(lam=0.5, score=-3.25, support_size=2, residual_sq=0.01),
        BicScore(lam=0.25, score=-1.0, support_size=4, residual_sq=0.005),
    ]
    out = tmp_path / "scores.csv"
    scores_to_csv(scores, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "lambda,support_size,residual_sq,score"
    assert lines[1] == "0.5,2,0.01,-3.25"


def test_end_to_end_selection_recovers_support():
    """BIC on the full hard-penalty path finds the planted support."""
    prob = gen_problem("gaussian", n=500, p=1000, s=10, dr=100.0, sigma=1e-2, seed=0)
    path = run_full_path(prob.op, prob.y, Penalty.L0)
    _, x_best, _ = select_bic(path, prob.y)
    assert np.array_equal(np.flatnonzero(x_best), np.flatnonzero(prob.x_true))
