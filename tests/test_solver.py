import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ishtc import solver
from ishtc.linop import (GRAM_MIN_SIZE, SensingOperator, _GramRows, dense_operator,
                         normalize_columns)
from ishtc.modelselect import select_bic
from ishtc.probgen import gen_problem
from ishtc.solver import (
    DivergenceError,
    PathResult,
    SolverConfig,
    TheoryParams,
    continuation_solve,
    gamma_lower_bound,
    inner_iterate,
    lambda_star,
    theoretical_error_bound,
)
from ishtc.thresholding import Penalty, threshold_vector
from test_acceptance import _guarantee_config, _guarantee_outcome
from test_modelselect import _sparse


def _orthonormal_op(n, p, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, p)))
    return dense_operator(q)


def _small_instance(seed=11, n=30, p=60, sigma=1e-3):
    rng = np.random.default_rng(seed)
    op = normalize_columns(rng.standard_normal((n, p)))
    x_true = np.zeros(p)
    x_true[[4, 17]] = (1.5, -2.0)
    y = op.apply(x_true) + sigma * rng.standard_normal(n)
    return op, y


# ---------------------------------------------------------------------------
# Continuation path
# ---------------------------------------------------------------------------


def test_hand_oracle_identity_path():
    """Identity design, y=(5,0,0): the whole path is computable by hand.

    Auto lambda0 = 5, gamma = 0.5 gives levels 5, 2.5, 1.25, 0.625,
    0.3125, 0.15625; the next level 0.078125 drops below lambda_star = 0.1
    so the solve stops with x* = soft(5, 0.15625) on the first coordinate.
    """
    op = dense_operator(np.eye(3))
    y = np.array([5.0, 0.0, 0.0])
    cfg = SolverConfig(penalty=Penalty.L1, gamma=0.5, lambda_star=0.1)
    x_star, path = continuation_solve(op, y, cfg)
    assert [float(l) for l in path.lambdas] == [5.0, 2.5, 1.25, 0.625, 0.3125, 0.15625]
    np.testing.assert_array_equal(x_star, [5.0 - 0.15625, 0.0, 0.0])
    assert np.flatnonzero(x_star).tolist() == [0]
    # 5 executed levels x 5 inner iterations x 2 matvecs, plus 1 for auto lambda0
    assert path.n_matvec == 51


@pytest.mark.parametrize("penalty", [Penalty.L1, Penalty.L0])
def test_zero_data_gives_zero_solution(penalty):
    op = _orthonormal_op(6, 4, seed=0)
    cfg = SolverConfig(penalty=penalty, gamma=0.8, lambda_star="path", path_len_N=10)
    x_star, path = continuation_solve(op, np.zeros(6), cfg)
    np.testing.assert_array_equal(x_star, np.zeros(4))
    for sol in path.solutions:
        np.testing.assert_array_equal(sol, np.zeros(4))


@pytest.mark.parametrize("penalty", [Penalty.L1, Penalty.L0])
@pytest.mark.parametrize("shape", [(8, 8), (64, 32), (256, 128)])
def test_orthogonal_design_matches_direct_thresholding(penalty, shape):
    """With orthonormal columns every path point is a one-shot threshold."""
    n, p = shape
    op = _orthonormal_op(n, p, seed=5)
    rng = np.random.default_rng(6)
    x0 = np.zeros(p)
    x0[:3] = (2.0, -1.0, 0.5)
    y = op.apply(x0) + 1e-3 * rng.standard_normal(n)
    z = op.apply_adjoint(y)
    cfg = SolverConfig(penalty=penalty, gamma=0.7, lambda_star="path", path_len_N=40)
    _, path = continuation_solve(op, y, cfg)
    for lam, sol in zip(path.lambdas, path.solutions):
        ref = threshold_vector(z, lam, penalty)
        assert np.max(np.abs(sol - ref)) <= 1e-12


def test_lambda_path_geometric():
    op, y = _small_instance()
    cfg = SolverConfig(penalty=Penalty.L1, gamma=0.8, lambda_star="path", path_len_N=30)
    _, path = continuation_solve(op, y, cfg)
    lam = np.asarray(path.lambdas)
    assert np.all(np.diff(lam) < 0)
    np.testing.assert_allclose(lam[1:] / lam[:-1], 0.8, rtol=1e-14)
    np.testing.assert_allclose(lam, lam[0] * 0.8 ** np.arange(lam.size), rtol=1e-12)


def test_stop_rule_first_level_below_lambda_star():
    op, y = _small_instance()
    lam0 = 2.0
    cfg = SolverConfig(
        penalty=Penalty.L1, lambda0=lam0, gamma=0.6, lambda_star=0.3, path_len_N=100
    )
    _, path = continuation_solve(op, y, cfg)
    assert path.lambdas[-1] >= 0.3
    assert path.lambdas[-1] * 0.6 < 0.3


@pytest.mark.parametrize("penalty", [Penalty.L1, Penalty.L0])
@pytest.mark.parametrize("kmax", [1, 3, 5])
@pytest.mark.parametrize("lambda0", ["auto", 4.0])
def test_matvec_identity_and_path_bound(penalty, kmax, lambda0):
    """n_matvec = 2*kmax*(levels run) + 1 when lambda0 is auto, exactly."""
    op, y = _small_instance()
    cfg = SolverConfig(
        penalty=penalty, lambda0=lambda0, gamma=0.75, kmax=kmax,
        lambda_star=0.05, path_len_N=200,
    )
    _, path = continuation_solve(op, y, cfg)
    steps = len(path) - 1
    expected = 2 * kmax * steps + (1 if lambda0 == "auto" else 0)
    assert path.n_matvec == expected
    assert path.matvec_cumulative[-1] == expected
    bound = math.ceil(math.log(0.05 / path.lambdas[0]) / math.log(0.75))
    assert steps <= bound


def test_path_len_cap():
    op, y = _small_instance()
    cfg = SolverConfig(penalty=Penalty.L1, gamma=0.9, lambda_star="path", path_len_N=7)
    _, path = continuation_solve(op, y, cfg)
    assert len(path) == 8


def test_path_saturating_at_its_cap_reports_saturated():
    """The stop reason names the rule that ended the path, cap or not."""
    op, y = _small_instance()
    cfg = SolverConfig(penalty=Penalty.L1, gamma=0.8, lambda_star="path", path_len_N=100)
    _, full = continuation_solve(op, y, cfg)
    assert full.stop_reason == "saturated"
    last = len(full) - 1
    _, at_cap = continuation_solve(op, y, dataclasses.replace(cfg, path_len_N=last))
    _, below = continuation_solve(op, y, dataclasses.replace(cfg, path_len_N=last - 1))
    assert (at_cap.stop_reason, len(at_cap)) == ("saturated", last + 1)
    assert (below.stop_reason, len(below)) == ("path_len", last)


def test_solver_bit_reproducible():
    op, y = _small_instance()
    cfg = SolverConfig(penalty=Penalty.L0, gamma=0.8, lambda_star="path", path_len_N=25)
    x1, p1 = continuation_solve(op, y, cfg)
    x2, p2 = continuation_solve(op, y, cfg)
    np.testing.assert_array_equal(x1, x2)
    for a, b in zip(p1.solutions, p2.solutions):
        np.testing.assert_array_equal(a, b)


def test_divergence_error_carries_diagnostics():
    op, y = _diverging_instance()
    cfg = SolverConfig(
        penalty=Penalty.L1, gamma=0.8, lambda_star="path", path_len_N=100, kmax=40
    )
    with pytest.raises(DivergenceError) as err:
        continuation_solve(op, y, cfg)
    assert err.value.lam > 0
    assert err.value.level >= 1
    assert 1 <= err.value.inner_k <= 40


def _diverging_instance():
    # dense support at a square aspect makes the unit-step iteration blow up
    rng = np.random.default_rng(3)
    op = normalize_columns(rng.standard_normal((80, 80)))
    x0 = np.zeros(80)
    sup = rng.choice(80, 40, replace=False)
    x0[sup] = rng.choice([-1.0, 1.0], 40)
    return op, op.apply(x0)


def _recomputing_loop(op, y, cfg, lam_stop):
    """Test-only oracle of the loop that recomputes the residual: every step
    is ``x <- T(x + Psi^t (y - Psi x))`` and every level recomputes
    ``y - Psi x`` once more, uncounted. Without a stop level the loop also
    ends after the first level whose support exceeds min(n, p). A level whose
    residual norm is not finite raises DivergenceError. Returns the
    PathResult fields, the dense solutions, and the returned estimate: the
    level before a saturated last one, else the last."""
    count = 0
    if cfg.lambda0 == "auto":
        z = float(np.max(np.abs(op.apply_adjoint(y))))
        lam0 = z if cfg.penalty is Penalty.L1 else z ** 2 / 2.0
        count = 1
    else:
        lam0 = float(cfg.lambda0)
    x = np.zeros(op.p)
    rnorm = float(np.linalg.norm(y))
    levels = [(lam0, x, rnorm, 0.5 * rnorm ** 2, count)]
    lam, level = lam0, 0
    stop_reason = "path_len" if lam_stop is None else "lambda_star"
    while lam0 > 0.0:
        level += 1
        lam = cfg.gamma * lam
        if (lam < lam_stop) if lam_stop is not None else level > cfg.path_len_N:
            break
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(cfg.kmax):
                x = threshold_vector(x + op.apply_adjoint(y - op.apply(x)), lam, cfg.penalty)
                count += 2
            rnorm = float(np.linalg.norm(y - op.apply(x)))
        if not math.isfinite(rnorm):
            raise DivergenceError(lam, level, cfg.kmax)
        pen = np.sum(np.abs(x)) if cfg.penalty is Penalty.L1 else np.count_nonzero(x)
        levels.append((lam, x, rnorm, 0.5 * rnorm ** 2 + lam * float(pen), count))
        if lam_stop is None and np.count_nonzero(x) > min(op.n, op.p):
            stop_reason = "saturated"
            break
    lambdas, solutions, rnorms, objectives, counts = zip(*levels)
    return {
        "lambdas": np.array(lambdas), "solutions": list(solutions), **_sparse(solutions, op.p),
        "residual_norms": np.array(rnorms), "objective_values": np.array(objectives),
        "matvec_cumulative": np.array(counts, dtype=np.int64), "stop_reason": stop_reason,
        "x_star": solutions[-2 if stop_reason == "saturated" else -1],
    }


def _oracle_problem(kind):
    if kind == "fft-haar":
        return gen_problem("fft-haar", n=48, p=64, s=5, dr=10.0, sigma=1e-3, seed=6)
    return gen_problem(kind, n=30, p=60, s=3, dr=10.0, sigma=1e-2, seed=6,
                       nu=0.3 if kind == "correlated" else None)


#: Stops by name; "auto" is the level the guarantee constants derive.
STOPS = {"path": "path", "explicit": 0.05, "auto": TheoryParams(mu_s=0.05, c=3.0, epsilon=0.05)}


@pytest.mark.parametrize("kind", ["gaussian", "bernoulli", "correlated", "fft-haar"])
@pytest.mark.parametrize("penalty", [Penalty.L1, Penalty.L0])
@pytest.mark.parametrize("lambda0", ["auto", 3.0])
@pytest.mark.parametrize("stop", list(STOPS))
def test_carried_residual_matches_recomputing_loop(kind, penalty, lambda0, stop, monkeypatch):
    """Carrying the residual changes no bit of the path record of a dense
    operator below the Gram-row floor. The partial-FFT-Haar kind's later
    steps sum in another order, so it meets the cached-route contract."""
    problem = _oracle_problem(kind)
    lam_star = lambda_star(STOPS[stop], penalty) if stop == "auto" else STOPS[stop]
    cfg = SolverConfig(penalty=penalty, lambda0=lambda0, gamma=0.8, kmax=3,
                       lambda_star=lam_star, path_len_N=30)
    lam_stop = None if stop == "path" else lam_star
    if kind == "fft-haar":
        _assert_cached_route_matches_oracle(problem.op, problem.y, cfg, monkeypatch, lam_stop)
        return
    ref = _recomputing_loop(problem.op, problem.y, cfg, lam_stop)
    x_star, path = continuation_solve(problem.op, problem.y, cfg)
    for name in ("lambdas", "residual_norms", "objective_values", "matvec_cumulative"):
        assert np.array_equal(getattr(path, name), ref[name]), name
    assert path.stop_reason == ref["stop_reason"]
    assert len(path.solutions) == len(ref["solutions"])
    for got, want in zip(path.solutions, ref["solutions"]):
        assert np.array_equal(got, want)
    assert np.array_equal(x_star, ref["x_star"])
    assert path.n_matvec == ref["matvec_cumulative"][-1]
    for support, sol in zip(path.supports, ref["solutions"]):
        assert np.array_equal(support, np.flatnonzero(sol))


@pytest.mark.parametrize("kind, penalty", [("fft-haar", Penalty.L0), ("gaussian", Penalty.L1)])
def test_path_record_holds_supports_and_values(kind, penalty, monkeypatch):
    """Every level of the record builds the two-matvec oracle's solution, a
    level with its predecessor's support holds that index array itself, and
    the values plus the distinct supports take under 40% of the bytes of the
    dense levels. The dense operator is below the Gram-row floor, so both
    solves take the same steps bit for bit; the partial-FFT-Haar route meets
    the cached-route contract."""
    cfg = SolverConfig(penalty=penalty)
    if kind == "fft-haar":
        problem = _fft_haar_quarter_problem()
        path, _ = _assert_cached_route_matches_oracle(problem.op, problem.y, cfg, monkeypatch)
    else:
        problem = gen_problem("gaussian", n=200, p=1000, s=10, dr=100.0, sigma=1e-2, seed=4)
        assert problem.op.n * problem.op.p < GRAM_MIN_SIZE
        ref = _recomputing_loop(problem.op, problem.y, cfg, None)
        _, path = continuation_solve(problem.op, problem.y, cfg)
        assert len(path) == len(ref["solutions"])
        for level, want in enumerate(ref["solutions"]):
            assert np.array_equal(path.solution(level), want), level
    pairs = list(zip(path.supports, path.supports[1:]))
    same = [np.array_equal(a, b) for a, b in pairs]
    assert any(same)
    assert all((a is b) == equal for (a, b), equal in zip(pairs, same))
    distinct = {id(s): s for s in path.supports}.values()
    held = sum(v.nbytes for v in path.values) + sum(s.nbytes for s in distinct)
    assert held < 0.4 * len(path) * path.p * 8


def test_carried_residual_diverges_where_recomputing_loop_does():
    op, y = _diverging_instance()
    cfg = SolverConfig(penalty=Penalty.L1, gamma=0.8, lambda_star="path", path_len_N=100,
                       kmax=40)
    with pytest.raises(DivergenceError) as want:
        _recomputing_loop(op, y, cfg, None)
    with pytest.raises(DivergenceError) as got:
        continuation_solve(op, y, cfg)
    assert (got.value.lam, got.value.level, got.value.inner_k) == (
        want.value.lam, want.value.level, want.value.inner_k)


def _fallback_steps(monkeypatch):
    """Count the two-matvec steps of the solves run after this call by their
    ``SensingOperator.apply_adjoint`` calls; returns the one-item counter. A
    cached solve's first adjoint forms ``c = Psi^t y`` and is no step, so the
    counter starts at -1."""
    steps = [-1]

    def counted(self, *args, _orig=SensingOperator.apply_adjoint):
        steps[0] += 1
        return _orig(self, *args)

    monkeypatch.setattr(SensingOperator, "apply_adjoint", counted)
    return steps


def _assert_cached_route_matches_oracle(op, y, cfg, monkeypatch, lam_stop=None):
    """Same levels, stop and support at every level as the two-matvec
    oracle, residual norms equal to 1e-9 relative, and the same BIC pick.
    Returns the path and the solve's count of two-matvec steps."""
    assert op.kind != "dense" or op.n * op.p >= GRAM_MIN_SIZE
    ref = _recomputing_loop(op, y, cfg, lam_stop)
    steps = _fallback_steps(monkeypatch)
    _, path = continuation_solve(op, y, cfg)
    assert np.array_equal(path.lambdas, ref["lambdas"])
    assert path.stop_reason == ref["stop_reason"]
    assert len(path.solutions) == len(ref["solutions"])
    for level, (got, want) in enumerate(zip(path.solutions, ref["solutions"])):
        assert np.array_equal(np.flatnonzero(got), np.flatnonzero(want)), level
    np.testing.assert_allclose(path.residual_norms, ref["residual_norms"], rtol=1e-9, atol=0)
    fields = [f.name for f in dataclasses.fields(PathResult)]
    want_lam, want_x, _ = select_bic(PathResult(**{f: ref[f] for f in fields}), y)
    got_lam, got_x, _ = select_bic(path, y)
    assert got_lam == want_lam
    assert np.array_equal(np.flatnonzero(got_x), np.flatnonzero(want_x))
    return path, steps[0]


@pytest.mark.parametrize("s, seed", [(10, 0), (40, 1), (70, 2)])
@pytest.mark.parametrize("penalty", [Penalty.L1, Penalty.L0])
def test_cached_route_matches_two_matvec_oracle(s, seed, penalty, monkeypatch):
    problem = gen_problem("gaussian", n=500, p=1000, s=s, dr=100.0, sigma=1e-2, seed=seed)
    cfg = SolverConfig(penalty=penalty)
    path, steps = _assert_cached_route_matches_oracle(problem.op, problem.y, cfg, monkeypatch)
    assert steps < cfg.kmax * (len(path) - 1)  # the cached route ran


def _fft_haar_quarter_problem():
    """The cli-fft-haar benchmark's shape at a quarter of its p."""
    return gen_problem("fft-haar", n=1330, p=2048, s=494, dr=100.0, sigma=1e-4, seed=3, levels=2)


@pytest.mark.parametrize("penalty", [Penalty.L0, Penalty.L1])
def test_fft_haar_route_matches_two_matvec_oracle(penalty, monkeypatch):
    """The partial-FFT-Haar route meets the cached-route contract, and its
    only two-matvec steps are the first of each level."""
    problem = _fft_haar_quarter_problem()
    cfg = SolverConfig(penalty=penalty)
    path, steps = _assert_cached_route_matches_oracle(problem.op, problem.y, cfg, monkeypatch)
    assert steps == len(path) - 1


@pytest.mark.parametrize("s, seed", [(10, 0), (100, 3)])
@pytest.mark.parametrize("penalty", [Penalty.L1, Penalty.L0])
def test_gram_triangle_route_matches_two_matvec_oracle(s, seed, penalty, monkeypatch):
    """Rows copied from the operator's Gram triangle meet the cached-route
    contract, also on paths whose support outgrows the rows."""
    problem = gen_problem("gaussian", n=500, p=1000, s=s, dr=100.0, sigma=1e-2, seed=seed)
    op = problem.op.with_gram()
    assert op.gram is not None
    cfg = SolverConfig(penalty=penalty)
    path, steps = _assert_cached_route_matches_oracle(op, problem.y, cfg, monkeypatch)
    assert steps < cfg.kmax * (len(path) - 1)


@pytest.mark.parametrize("n, p, s, penalty", [(500, 1000, 100, Penalty.L1),
                                              (256, 1024, 40, Penalty.L1)])
def test_cached_route_falls_back_when_the_cache_fills(n, p, s, penalty, monkeypatch):
    """Supports past n // 4 columns take the two-matvec step mid-path."""
    problem = gen_problem("gaussian", n=n, p=p, s=s, dr=100.0, sigma=1e-2, seed=0)
    cfg = SolverConfig(penalty=penalty)
    path, steps = _assert_cached_route_matches_oracle(problem.op, problem.y, cfg, monkeypatch)
    assert 0 < steps < cfg.kmax * (len(path) - 1)


def test_each_level_forms_one_residual_on_the_cached_route(monkeypatch):
    """Forward products: one per level, plus one for each two-matvec step
    that is not the first of its level (the first reuses the level's
    residual). The solve falls back mid-path, so both routes run."""
    problem = gen_problem("gaussian", n=500, p=1000, s=100, dr=100.0, sigma=1e-2, seed=0)
    cfg = SolverConfig(penalty=Penalty.L1)
    forward, two_matvec = [], []  # two_matvec[i]: whether step i took an adjoint

    def step(*args, _orig=solver.inner_iterate):
        two_matvec.append(False)
        return _orig(*args)

    def adjoint(self, *args, _orig=SensingOperator.apply_adjoint):
        if two_matvec:  # the first adjoint forms c = Psi^t y, before any step
            two_matvec[-1] = True
        return _orig(self, *args)

    def apply(self, *args, _orig=SensingOperator.apply):
        forward.append(1)
        return _orig(self, *args)

    monkeypatch.setattr(solver, "inner_iterate", step)
    monkeypatch.setattr(SensingOperator, "apply_adjoint", adjoint)
    monkeypatch.setattr(SensingOperator, "apply", apply)
    _, path = continuation_solve(problem.op, problem.y, cfg)
    levels = len(path) - 1
    assert len(two_matvec) == cfg.kmax * levels
    later = sum(t and i % cfg.kmax != 0 for i, t in enumerate(two_matvec))
    assert 0 < later and not all(two_matvec)
    assert len(forward) == levels + later


def test_cached_route_diverges_where_the_oracle_does():
    rng = np.random.default_rng(3)
    op = normalize_columns(rng.standard_normal((512, 512)))
    x0 = np.zeros(512)
    x0[rng.choice(512, 256, replace=False)] = rng.choice([-1.0, 1.0], 256)
    y = op.apply(x0)
    assert op.n * op.p >= GRAM_MIN_SIZE
    cfg = SolverConfig(penalty=Penalty.L1, path_len_N=200)
    with pytest.raises(DivergenceError) as want:
        _recomputing_loop(op, y, cfg, None)
    with pytest.raises(DivergenceError) as got:
        continuation_solve(op, y, cfg)
    assert (got.value.lam, got.value.level, got.value.inner_k) == (
        want.value.lam, want.value.level, want.value.inner_k)


def test_overflowing_residual_norm_is_divergence():
    """The solve raises at the first level whose residual norm overflows,
    while that level's iterate and residual are still finite."""
    op, y = _diverging_instance()
    cfg = SolverConfig(penalty=Penalty.L1, gamma=0.8, lambda_star="path", path_len_N=1000,
                       kmax=1)
    with pytest.raises(DivergenceError) as err:
        continuation_solve(op, y, cfg)
    assert err.value.inner_k == 1
    _, before = continuation_solve(op, y, dataclasses.replace(cfg, path_len_N=err.value.level - 1))
    assert np.all(np.isfinite(before.residual_norms))
    x = before.solutions[-1]
    with np.errstate(over="ignore"):
        x = inner_iterate(op, y, x, y - op.apply(x), err.value.lam, Penalty.L1, None)
        r = y - op.apply(x)
        assert np.all(np.isfinite(x)) and np.all(np.isfinite(r))
        assert np.linalg.norm(r) == math.inf


@pytest.mark.parametrize("kind, path_len", [("gaussian", 20), ("fft-haar", 20), ("gaussian", 100)],
                         ids=["gaussian", "fft-haar", "gaussian-saturated"])
@pytest.mark.parametrize("penalty", [Penalty.L1, Penalty.L0])
@pytest.mark.parametrize("lambda0", ["auto", 3.0])
def test_every_operator_application_is_counted(kind, path_len, penalty, lambda0, monkeypatch):
    """A dense solve below the Gram-row floor calls the operator as often as
    the path counts. A partial-FFT-Haar solve calls the forward map once per
    level and the adjoint once per level plus once for ``c``; its FFTs are
    the path's count, plus the adjoint for ``c`` when ``lambda0`` is given."""
    problem = _oracle_problem(kind)
    calls = []
    for name in ("apply", "apply_adjoint"):
        def counted(self, *args, _orig=getattr(SensingOperator, name), _name=name, **kwargs):
            calls.append(_name)
            return _orig(self, *args, **kwargs)

        monkeypatch.setattr(SensingOperator, name, counted)
    transforms = []
    for name in ("rfft", "irfft"):
        def fft(*args, _orig=getattr(np.fft, name), **kwargs):
            transforms.append(1)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, fft)
    cfg = SolverConfig(penalty=penalty, lambda0=lambda0, gamma=0.8, lambda_star="path",
                       path_len_N=path_len)
    _, path = continuation_solve(problem.op, problem.y, cfg)
    assert path.n_matvec == path.matvec_cumulative[-1]
    if kind == "fft-haar":
        levels = len(path) - 1
        assert (calls.count("apply"), calls.count("apply_adjoint")) == (levels, levels + 1)
        assert len(transforms) == path.n_matvec + (lambda0 != "auto")
    else:
        assert len(calls) == path.n_matvec
    if path_len == 100:  # a plan cut short is counted as exactly
        assert path.stop_reason == "saturated" and len(path) < 101


# ---------------------------------------------------------------------------
# Inner iteration
# ---------------------------------------------------------------------------


def test_inner_iterate_orthonormal_collapse():
    op = _orthonormal_op(12, 12, seed=8)
    y = np.random.default_rng(9).standard_normal(12)
    out = inner_iterate(op, y, np.zeros(12), y, 0.4, Penalty.L1, None)
    ref = threshold_vector(op.apply_adjoint(y), 0.4, Penalty.L1)
    np.testing.assert_allclose(out, ref, atol=1e-14)


def test_inner_iterate_fixed_point():
    op = _orthonormal_op(12, 12, seed=8)
    y = np.random.default_rng(10).standard_normal(12)
    fp = inner_iterate(op, y, np.zeros(12), y, 0.4, Penalty.L1, None)
    again = inner_iterate(op, y, fp, None, 0.4, Penalty.L1, None)
    assert np.max(np.abs(again - fp)) <= 1e-12


def test_inner_iterate_matches_naive_step():
    rng = np.random.default_rng(21)
    op = normalize_columns(rng.standard_normal((10, 15)))
    x_true = np.zeros(15)
    x_true[[2, 9]] = (1.5, -2.0)
    y = op.apply(x_true) + 1e-3 * rng.standard_normal(10)
    x = np.random.default_rng(22).standard_normal(15) * 0.3
    lam = 0.2
    mat = np.asarray(op.matrix)
    naive = threshold_vector(x + mat.T @ (y - mat @ x), lam, Penalty.L0)
    out = inner_iterate(op, y, x, y - op.apply(x), lam, Penalty.L0, None)
    np.testing.assert_allclose(out, naive, atol=1e-13)
    # Without a residual the step forms it, with the same bits.
    assert np.array_equal(inner_iterate(op, y, x, None, lam, Penalty.L0, None), out)


@pytest.mark.parametrize("support", [3, 11], ids=["cached", "past-the-cache"])
def test_inner_iterate_gram_step(support):
    """With the Gram rows the step matches the two-matvec step to roundoff;
    a support past the n // 4 rows takes the two-matvec step, bit for bit."""
    rng = np.random.default_rng(23)
    op = normalize_columns(rng.standard_normal((40, 80)))
    y = rng.standard_normal(40)
    x = np.zeros(80)
    x[rng.choice(80, support, replace=False)] = rng.standard_normal(support)
    gram = _GramRows(op.matrix, op.apply_adjoint(y))
    got = inner_iterate(op, y, x, None, 0.05, Penalty.L1, gram.step)
    want = inner_iterate(op, y, x, None, 0.05, Penalty.L1, None)
    if support > 40 // 4:
        assert np.array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
        assert gram.size == support


# ---------------------------------------------------------------------------
# Plain fixed-lambda ISTA as a reference
# ---------------------------------------------------------------------------


def test_baseline_agrees_with_continuation_objective():
    """Continuation and plain single-level ISTA reach the same objective at a
    matched lambda."""
    op, y = _small_instance()
    cfg = SolverConfig(penalty=Penalty.L1, gamma=0.8, lambda_star=0.05 * 0.999)
    x_cont, path = continuation_solve(op, y, cfg)
    lam = float(path.lambdas[-1])

    # x <- T_{tau*lam}(x + tau * A'(y - A x)) from 0, inside the classical
    # convergence range tau < 2/||A||_2^2, until the step is below 1e-14.
    mat = np.asarray(op.matrix)
    tau = 0.3
    assert tau < 2.0 / np.linalg.norm(mat, 2) ** 2
    x_base = np.zeros(op.p)
    for _ in range(200_000):
        x_next = threshold_vector(x_base + tau * mat.T @ (y - mat @ x_base), tau * lam, Penalty.L1)
        step = float(np.max(np.abs(x_next - x_base)))
        x_base = x_next
        if step <= 1e-14:
            break

    def objective(x):
        r = y - op.apply(x)
        return 0.5 * float(r @ r) + lam * float(np.sum(np.abs(x)))

    assert abs(objective(x_cont) - objective(x_base)) <= 1e-6


# ---------------------------------------------------------------------------
# Config validation and serialization
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(penalty=Penalty.L1, gamma=0.0, lambda_star=0.1)
    with pytest.raises(ValueError):
        SolverConfig(penalty=Penalty.L1, gamma=1.0, lambda_star=0.1)
    with pytest.raises(ValueError):
        SolverConfig(penalty=Penalty.L1, gamma=0.5, kmax=0, lambda_star=0.1)
    with pytest.raises(ValueError):
        SolverConfig(penalty=Penalty.L1, gamma=0.5, lambda0=-1.0, lambda_star=0.1)
    with pytest.raises(ValueError):
        SolverConfig(penalty=Penalty.L1, gamma=0.5, lambda0=0.05, lambda_star=0.1)
    with pytest.raises(ValueError, match="'path'"):
        SolverConfig(penalty=Penalty.L1, lambda_star="auto")
    with pytest.raises(ValueError, match="path length"):
        SolverConfig(penalty=Penalty.L1, path_len_N=-1)


@pytest.mark.parametrize("field", ["lambda0", "lambda_star"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_config_rejects_non_finite_levels(field, value):
    # lambda0=inf with a finite stop level would never reach it.
    with pytest.raises(ValueError):
        SolverConfig(penalty=Penalty.L1, **{field: value})


@pytest.mark.parametrize("field, value", [
    ("kmax", 2.5), ("kmax", True), ("kmax", "5"), ("path_len_N", True), ("path_len_N", 10.0),
])
def test_config_rejects_non_integer_counts(field, value):
    with pytest.raises(ValueError):
        SolverConfig(penalty=Penalty.L1, **{field: value})


def test_config_accepts_numpy_integers():
    cfg = SolverConfig(penalty=Penalty.L1, kmax=np.int64(3), path_len_N=np.int32(7))
    assert (cfg.kmax, cfg.path_len_N) == (3, 7)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e200, -1e200])
def test_non_finite_data_rejected(bad):
    op, y = _small_instance()
    y[3] = bad
    with pytest.raises(ValueError):
        continuation_solve(op, y, SolverConfig(penalty=Penalty.L1, path_len_N=5))


def test_data_of_wrong_length_rejected():
    op, y = _small_instance()
    with pytest.raises(ValueError, match="length"):
        continuation_solve(op, y[:-1], SolverConfig(penalty=Penalty.L1, path_len_N=5))


def test_config_json_round_trip():
    cfg = SolverConfig(
        penalty=Penalty.L0, lambda0=3.0, gamma=0.85, kmax=7,
        lambda_star=0.01, path_len_N=50,
    )
    blob = json.loads(json.dumps(dataclasses.asdict(cfg)))
    assert set(blob) == {"penalty", "lambda0", "gamma", "kmax", "lambda_star", "path_len_N"}
    assert blob["penalty"] == "l0"


# ---------------------------------------------------------------------------
# Bound on the work of one solve
# ---------------------------------------------------------------------------


def test_path_at_the_bound_runs_and_one_level_more_is_refused(monkeypatch):
    monkeypatch.setattr(solver, "MAX_INNER_STEPS", 60)
    op, y = _small_instance()
    _, path = continuation_solve(op, y, SolverConfig(penalty=Penalty.L1, kmax=3, path_len_N=20))
    assert len(path) == 21
    monkeypatch.setattr(solver, "inner_iterate", None)  # any call would fail
    with pytest.raises(ValueError, match="MAX_INNER_STEPS"):
        continuation_solve(op, y, SolverConfig(penalty=Penalty.L1, kmax=3, path_len_N=21))


LEVELS = st.floats(1e-300, 1e300, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(lam0=st.one_of(st.just("auto"), LEVELS), lam_star=st.one_of(st.just("path"), LEVELS),
       gamma=st.floats(1e-3, 1 - 1e-12), kmax=st.integers(1, 3000),
       path_len=st.one_of(st.integers(0, 3000), st.integers(0, 10 ** 400)))
def test_solve_refused_or_within_the_bound(lam0, lam_star, gamma, kmax, path_len):
    """Any config either is a ValueError or runs at most MAX_INNER_STEPS inner steps."""
    op, y = dense_operator(np.eye(3)), np.array([3.0, -0.5, 1e-3])
    steps = []

    def counted(*args):
        steps.append(1)
        return inner_iterate(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "MAX_INNER_STEPS", 2000)
        mp.setattr(solver, "inner_iterate", counted)
        try:
            cfg = SolverConfig(penalty=Penalty.L1, lambda0=lam0, gamma=gamma, kmax=kmax,
                               lambda_star=lam_star, path_len_N=path_len)
            _, path = continuation_solve(op, y, cfg)
        except ValueError:
            assert not steps
            return
    assert len(steps) == kmax * (len(path) - 1) <= 2000


# ---------------------------------------------------------------------------
# Guarantee parameter helpers
# ---------------------------------------------------------------------------


def test_lambda_star_substitution():
    soft = TheoryParams(mu_s=0.25, c=4.0, epsilon=0.01)
    assert lambda_star(soft, Penalty.L1) == pytest.approx(0.04)
    hard = TheoryParams(mu_s=0.25, c=3.0, epsilon=0.1)
    assert lambda_star(hard, Penalty.L0) == pytest.approx(0.03)


def test_lambda_star_constant_constraint():
    # at mu*s = 0.25 the soft constant must exceed 1/(1 - 0.5) = 2
    bad = TheoryParams(mu_s=0.25, c=1.5, epsilon=0.01)
    with pytest.raises(ValueError, match="must exceed"):
        lambda_star(bad, Penalty.L1)


def test_gamma_lower_bound_substitution():
    soft = TheoryParams(mu_s=0.25, c=4.0, epsilon=0.01)
    assert gamma_lower_bound(soft, Penalty.L1) == pytest.approx(2.0 / 3.0)
    hard = TheoryParams(mu_s=0.1, c=2.0, epsilon=0.1)
    assert gamma_lower_bound(hard, Penalty.L0) == pytest.approx(0.16)
    tiny = TheoryParams(mu_s=1e-9, c=4.0, epsilon=0.01)
    assert gamma_lower_bound(tiny, Penalty.L1) < 1e-8


def test_error_bound_substitution():
    soft = TheoryParams(mu_s=0.25, c=4.0, epsilon=0.01)
    assert theoretical_error_bound(soft, Penalty.L1) == pytest.approx(0.12)
    hard = TheoryParams(mu_s=0.25, c=2.0, epsilon=0.1)
    assert theoretical_error_bound(hard, Penalty.L0) == pytest.approx(0.4)


#: Oracles: each guarantee rule as a closed form per penalty, in the order
#: the constant's lower bound, lambda_star, the gamma bound, the error bound.
CLOSED_FORMS = {
    Penalty.L1: (lambda ms: 1.0 / (1.0 - 2.0 * ms),
                 lambda ms, c, eps: c * eps,
                 lambda ms, c, eps: 2.0 * ms / (1.0 - 1.0 / c),
                 lambda ms, c, eps: (c - 1.0) * eps / ms),
    Penalty.L0: (lambda ms: 1.0 / (2.0 * (1.0 - 2.0 * ms) ** 2),
                 lambda ms, c, eps: c * eps ** 2,
                 lambda ms, c, eps: (2.0 * ms / (1.0 - 1.0 / math.sqrt(2.0 * c))) ** 2,
                 lambda ms, c, eps: (math.sqrt(2.0 * c) - 1.0) * eps / ms),
}


@settings(max_examples=500, deadline=None)
@given(penalty=st.sampled_from(list(Penalty)), ms=st.floats(1e-6, 0.499),
       ratio=st.floats(0.5, 100.0), eps=st.one_of(st.just(0.0), st.floats(1e-100, 1e3)))
def test_guarantee_rules_match_the_closed_forms(penalty, ms, ratio, eps):
    """One formula in the cut t reproduces each per-penalty closed form: the
    bounds bit for bit, the l0 stop level within 4 ulp, and the refusal
    everywhere but within 1e-12 (relative) of the constant's lower bound."""
    c_min, stop, gamma, error = CLOSED_FORMS[penalty]
    c = c_min(ms) * ratio
    theory = TheoryParams(mu_s=ms, c=c, epsilon=eps)
    try:
        theory.validate(penalty)
        refused = False
    except ValueError:
        refused = True
    if abs(ratio - 1.0) > 1e-12:
        assert refused == (not c > c_min(ms))
    if refused:
        return
    assert gamma_lower_bound(theory, penalty) == gamma(ms, c, eps)
    assert theoretical_error_bound(theory, penalty) == error(ms, c, eps)
    want, ulps = stop(ms, c, eps), 4 if penalty is Penalty.L0 else 0
    assert abs(lambda_star(theory, penalty) - want) <= ulps * math.ulp(want)


def test_ihtc_guarantee_end_to_end_on_criterion_3_instances():
    """Criterion 3's s=2 instances (Gaussian 500x1000, sigma=1e-3, dr=10,
    seeds 0-99) under the hard penalty, with the cut t = 2/(1-2*mu*s) and
    gamma at the midpoint of its allowed range: supp(x*) stays inside the
    truth and the error bound holds, and the support is exact wherever the
    smallest true magnitude clears the bound."""
    outcomes = [
        _guarantee_outcome(gen_problem("gaussian", n=500, p=1000, s=2, sigma=1e-3, dr=10.0,
                                       seed=seed), 2, Penalty.L0)
        for seed in range(100)
    ]
    qualified, held, exact_checked, exact_held = map(sum, zip(*outcomes))
    assert qualified >= 90
    assert held == qualified
    assert exact_checked >= 50
    assert exact_held == exact_checked


@pytest.mark.parametrize("sigma", [1e-4, 1e-2])
@pytest.mark.parametrize("penalty", [Penalty.L1, Penalty.L0])
def test_rate_on_criterion_3_instances(sigma, penalty):
    """The paper's rate on criterion 3's s=2 instances (Gaussian 500x1000,
    dr=10, seeds 0-39) with its admissible constants: supp(x*) stays inside
    the truth, the sup-norm error meets the bound, and the solve runs at
    most ceil(ln(lambda*/lambda0)/ln gamma) levels, none when lambda* is at
    or above lambda0."""
    qualified = 0
    for seed in range(40):
        prob = gen_problem("gaussian", n=500, p=1000, s=2, sigma=sigma, dr=10.0, seed=seed)
        constants = _guarantee_config(prob, 2, penalty)
        if constants is None:
            continue
        qualified += 1
        theory, cfg = constants
        x_star, path = continuation_solve(prob.op, prob.y, cfg)
        assert set(np.flatnonzero(x_star)) <= set(np.flatnonzero(prob.x_true)), seed
        error = float(np.max(np.abs(x_star - prob.x_true)))
        assert error <= theoretical_error_bound(theory, penalty), seed
        ratio = math.log(cfg.lambda_star / path.lambdas[0]) / math.log(cfg.gamma)
        assert len(path) - 1 <= max(0, math.ceil(ratio)), seed
    assert qualified >= 36


def test_error_bound_zero_coherence():
    flat = TheoryParams(mu_s=0.0, c=4.0, epsilon=0.01)
    with pytest.raises(ValueError, match="zero coherence"):
        theoretical_error_bound(flat, Penalty.L1)


def test_error_bound_needs_a_cut_of_at_least_one():
    with pytest.raises(ValueError, match="must be >= 1"):
        theoretical_error_bound(TheoryParams(mu_s=0.25, c=0.5, epsilon=0.01), Penalty.L1)


@pytest.mark.parametrize("field, value", [
    ("mu_s", 0.6), ("mu_s", 0.5), ("mu_s", -0.1), ("mu_s", math.nan), ("mu_s", math.inf),
    ("mu_s", -math.inf), ("epsilon", -0.01), ("epsilon", math.nan), ("epsilon", math.inf),
    ("epsilon", -math.inf),
])
def test_theory_params_assumption_enforced(field, value):
    """Building the params checks the coherence regime and the noise norm,
    before any penalty; NaN and infinities are refused, not carried."""
    fragment = {"mu_s": "mu\\*s < 1/2", "epsilon": "noise norm"}[field]
    with pytest.raises(ValueError, match=fragment):
        TheoryParams(**{"mu_s": 0.1, "c": 4.0, "epsilon": 0.01, field: value})


def test_path_result_csv(tmp_path):
    op, y = _small_instance()
    cfg = SolverConfig(penalty=Penalty.L1, gamma=0.8, lambda_star="path", path_len_N=5)
    _, path = continuation_solve(op, y, cfg)
    out = tmp_path / "path.csv"
    path.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "lambda,support_size,residual_norm,objective,n_matvec_cumulative"
    assert len(lines) == len(path) + 1
    first = lines[1].split(",")
    assert float(first[0]) == path.lambdas[0]
    assert isinstance(path, PathResult)
