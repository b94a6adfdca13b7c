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


def _reversed(path):
    return PathResult(
        lambdas=path.lambdas[::-1],
        solutions=path.solutions[::-1],
        residual_norms=path.residual_norms[::-1],
        objective_values=path.objective_values[::-1],
        matvec_cumulative=path.matvec_cumulative[::-1],
    )


def test_select_invariant_under_reordering():
    op, y = _instance()
    path = run_full_path(op, y, Penalty.L1, N=30)
    lam_fwd, x_fwd, _ = select_bic(path, y)
    lam_rev, x_rev, _ = select_bic(_reversed(path), y)
    assert lam_rev == lam_fwd
    np.testing.assert_array_equal(x_rev, x_fwd)


def _loop_select(path, y):
    """Reference selection: an explicit scan that keeps the first strict
    minimum and moves to an equal score only at a larger level."""
    n = int(np.asarray(y).shape[0])
    scores = []
    best = -1
    for i in range(len(path)):
        residual_sq = float(path.residual_norms[i]) ** 2
        s = bic_score(path.solutions[i], residual_sq, n)
        scores.append(BicScore(lam=float(path.lambdas[i]), score=s,
                               support_size=int(np.count_nonzero(path.solutions[i])),
                               residual_sq=residual_sq))
        if best < 0 or s < scores[best].score or (
            s == scores[best].score and scores[i].lam > scores[best].lam
        ):
            best = i
    return scores[best].lam, path.solutions[best].copy(), scores


def _assert_same_selection(path, y):
    lam, x, scores = select_bic(path, y)
    lam_ref, x_ref, scores_ref = _loop_select(path, y)
    assert lam == lam_ref
    np.testing.assert_array_equal(x, x_ref)
    assert scores == scores_ref


@pytest.mark.parametrize("kind", ["gaussian", "bernoulli", "fft-haar"])
@pytest.mark.parametrize("penalty", [Penalty.L1, Penalty.L0])
def test_select_matches_loop_oracle(kind, penalty):
    """On real paths, read forward and reversed, with exact score ties and
    saturated (+inf) levels, the selection equals the reference scan."""
    saturated = 0
    for seed in range(3):
        prob = gen_problem(kind, n=24, p=64, s=3, dr=10.0, sigma=1e-2, seed=seed)
        path = run_full_path(prob.op, prob.y, penalty, N=60)
        _assert_same_selection(path, prob.y)
        _assert_same_selection(_reversed(path), prob.y)
        saturated += sum(np.count_nonzero(x) > 24 for x in path.solutions)
    if penalty is Penalty.L1:
        assert saturated > 0


def test_select_matches_loop_oracle_on_repeated_levels():
    """A repeated level with equal scores, plus saturated entries, in both orders."""
    y = np.array([1.0, 1.0])
    same = np.array([1.0, 1.0, 0.0])
    sols = [np.zeros(3), same, same.copy(), np.ones(3), np.ones(3), np.array([1.0, 0.0, 0.0])]
    path = _path_from([2.0, 0.5, 0.5, 0.25, 0.125, 0.5], sols, y)
    assert sum(s.score == np.inf for s in select_bic(path, y)[2]) == 2
    _assert_same_selection(path, y)
    _assert_same_selection(_reversed(path), y)


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
