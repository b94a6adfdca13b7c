import dataclasses
import math

import numpy as np
import pytest

from ishtc.linop import normalize_columns
from ishtc.modelselect import (
    BIC_TIE_RTOL,
    BicScore,
    bic_score,
    run_full_path,
    scores_to_csv,
    select_bic,
)
from ishtc.probgen import gen_problem
from ishtc.solver import DivergenceError, PathResult, SolverConfig, continuation_solve
from ishtc.thresholding import Penalty


def _instance(seed=11, n=30, p=60):
    rng = np.random.default_rng(seed)
    op = normalize_columns(rng.standard_normal((n, p)))
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
    # With n > p no support can exceed min(n, p), so the path runs to its cap.
    op, y = _instance(n=60, p=30)
    path = run_full_path(op, y, Penalty.L1, gamma=0.8, N=100)
    assert path.stop_reason == "path_len"
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


def _stop_at_level(path, penalty, level):
    """A config whose explicit stop lies just below the path's level ``level``."""
    return SolverConfig(penalty=penalty, gamma=0.8,
                        lambda_star=float(path.lambdas[0]) * 0.8 ** level * 0.9999)


@pytest.mark.parametrize("kind", ["gaussian", "bernoulli", "fft-haar"])
@pytest.mark.parametrize("penalty", [Penalty.L1, Penalty.L0])
def test_cut_path_is_a_prefix_of_the_uncut_path(kind, penalty):
    """On n < p problems the path cut at its first saturated level is a bitwise
    prefix of the same levels run without the cut (an explicit stop at level
    N, or at the level before the one where the uncut run's residual norm
    overflows), and BIC picks the same level and solution from both."""
    N, saturated = 60, 0
    for seed in range(4):
        prob = gen_problem(kind, n=24, p=64, s=3, dr=10.0, sigma=1e-2, seed=seed)
        path = run_full_path(prob.op, prob.y, penalty, gamma=0.8, N=N)
        levels = N
        try:
            _, uncut = continuation_solve(prob.op, prob.y, _stop_at_level(path, penalty, N))
        except DivergenceError as exc:
            assert path.stop_reason == "saturated" and exc.level > len(path)
            levels = exc.level - 1
            _, uncut = continuation_solve(prob.op, prob.y, _stop_at_level(path, penalty, levels))
        assert len(uncut) == levels + 1
        assert uncut.stop_reason == "lambda_star"
        k = len(path)
        for name in ("lambdas", "residual_norms", "objective_values", "matvec_cumulative"):
            assert np.array_equal(getattr(path, name), getattr(uncut, name)[:k]), name
        for a, b in zip(path.solutions, uncut.solutions[:k]):
            assert np.array_equal(a, b)
        if path.stop_reason == "saturated":
            saturated += 1
            assert np.count_nonzero(path.solutions[-1]) > 24
            assert all(np.count_nonzero(x) <= 24 for x in path.solutions[:-1])
        else:
            assert path.stop_reason == "path_len" and k == N + 1
        lam_cut, x_cut, _ = select_bic(path, prob.y)
        lam_uncut, x_uncut, _ = select_bic(uncut, prob.y)
        assert lam_cut == lam_uncut
        assert np.array_equal(x_cut, x_uncut)
    assert saturated >= 1


def test_bic_zero_solution_zero_score():
    n = 25
    assert bic_score(0, 10, float(n), n) == 0.0


def test_bic_penalizes_support_at_equal_residual():
    n = 50
    assert bic_score(1, 4, 3.0, n) < bic_score(3, 4, 3.0, n)


def test_bic_zero_residual_floored():
    out = bic_score(1, 1, 0.0, 10)
    assert np.isfinite(out)


@pytest.mark.parametrize("residual_sq, n", [(-1.0, 10), (math.nan, 10), (1.0, 0)],
                         ids=["negative-rss", "nan-rss", "n-0"])
def test_bic_refuses_negative_rss_and_no_samples(residual_sq, n):
    """A NaN squared residual is refused like a negative one."""
    with pytest.raises(ValueError):
        bic_score(3, 3, residual_sq, n)


def test_bic_oversized_support_infinite():
    assert bic_score(8, 8, 1.0, 4) == np.inf


def _sparse(sols, p):
    """The ``supports``, ``values`` and ``p`` fields of dense solutions."""
    supports = [np.flatnonzero(s) for s in sols]
    return dict(supports=supports, values=[np.asarray(s, dtype=float)[i]
                                           for s, i in zip(sols, supports)], p=p)


def _path_from(lams, sols, y):
    n = y.size
    residuals = [float(np.linalg.norm(y - s[:n])) for s in sols]
    return PathResult(
        lambdas=np.asarray(lams, dtype=float),
        **_sparse(sols, len(sols[0]) if sols else 0),
        residual_norms=np.asarray(residuals),
        objective_values=np.zeros(len(sols)),
        matvec_cumulative=np.zeros(len(sols), dtype=int),
        stop_reason="path_len",
    )


def test_select_single_entry():
    y = np.array([1.0, 2.0])
    path = _path_from([0.5], [np.array([0.0, 0.0])], y)
    lam, x, scores = select_bic(path, y)
    assert lam == 0.5
    assert len(scores) == 1
    np.testing.assert_array_equal(x, [0.0, 0.0])


def test_select_empty_path_refused():
    with pytest.raises(ValueError, match="empty path"):
        select_bic(_path_from([], [], np.array([1.0, 2.0])), np.array([1.0, 2.0]))


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


def _path_with_residuals(lams, residual_norms, n=4, p=4):
    """One-entry supports whose scores differ only through the residuals."""
    sols = [np.eye(p)[0] for _ in lams]
    return PathResult(
        lambdas=np.asarray(lams, dtype=float),
        **_sparse(sols, p),
        residual_norms=np.asarray(residual_norms, dtype=float),
        objective_values=np.zeros(len(sols)),
        matvec_cumulative=np.zeros(len(sols), dtype=int),
        stop_reason="path_len",
    ), np.ones(n)


@pytest.mark.parametrize("rel_gap, picked", [(1e-13, 1.0), (1e-8, 0.5)],
                         ids=["within-tolerance", "beyond-tolerance"])
def test_select_tolerance_ties_pick_the_larger_lambda(rel_gap, picked):
    """A score worse by roundoff (about 1e-13 relative here) at the larger
    level ties and wins; one better by more than the tolerance still wins.
    Both hold in either path order."""
    path, y = _path_with_residuals([1.0, 0.5], [0.1 * (1 + rel_gap), 0.1])
    scores = select_bic(path, y)[2]
    gap = (scores[0].score - scores[1].score) / abs(scores[1].score)
    assert gap > 0 and (gap < BIC_TIE_RTOL) == (picked == 1.0)
    assert select_bic(path, y)[0] == picked
    assert select_bic(_reversed(path), y)[0] == picked


def test_select_pick_survives_a_roundoff_perturbation_of_the_operator():
    """On acceptance criterion 8's problem many converged levels score within
    about 1e-10 relative of each other; a 1.2e-15 relative change of the
    column scales keeps the picked level."""
    prob = gen_problem("fft-haar", n=665, p=1024, s=247, dr=100.0, sigma=1e-4, seed=0, levels=2)
    picks = []
    for factor in (1.0, 1.0 + 1.2e-15):
        op = dataclasses.replace(prob.op, col_scale=prob.op.col_scale * factor)
        path = run_full_path(op, prob.y, Penalty.L0)
        lam, _, _ = select_bic(path, prob.y)
        picks.append((list(path.lambdas).index(lam), lam))
    assert picks[0][0] == picks[1][0]
    assert picks[1][1] == pytest.approx(picks[0][1], rel=1e-12)


def _reversed(path):
    return PathResult(
        lambdas=path.lambdas[::-1],
        supports=path.supports[::-1],
        values=path.values[::-1],
        p=path.p,
        residual_norms=path.residual_norms[::-1],
        objective_values=path.objective_values[::-1],
        matvec_cumulative=path.matvec_cumulative[::-1],
        stop_reason=path.stop_reason,
    )


def test_select_invariant_under_reordering():
    op, y = _instance()
    path = run_full_path(op, y, Penalty.L1, N=30)
    lam_fwd, x_fwd, _ = select_bic(path, y)
    lam_rev, x_rev, _ = select_bic(_reversed(path), y)
    assert lam_rev == lam_fwd
    np.testing.assert_array_equal(x_rev, x_fwd)


def _loop_select(path, y):
    """Reference selection: one scan finds the lowest score, a second keeps
    the largest level whose score is within the tie tolerance of it."""
    n = int(np.asarray(y).shape[0])
    scores = []
    low = math.inf
    for i in range(len(path)):
        residual_sq = float(path.residual_norms[i]) ** 2
        support_size = int(np.count_nonzero(path.solution(i)))
        s = bic_score(support_size, path.p, residual_sq, n)
        scores.append(BicScore(lam=float(path.lambdas[i]), score=s, support_size=support_size,
                               residual_sq=residual_sq))
        low = min(low, s)
    best = -1
    for i, r in enumerate(scores):
        if r.score - low <= BIC_TIE_RTOL * max(1.0, abs(low)) and (
            best < 0 or r.lam > scores[best].lam
        ):
            best = i
    return scores[best].lam, path.solution(best), scores


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
