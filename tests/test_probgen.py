import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from ishtc.linop import mutual_coherence
from ishtc.probgen import (
    check_problem_args,
    gen_bernoulli_matrix,
    gen_correlated_gaussian,
    gen_problem,
    gen_sparse_signal,
    load_problem,
    save_problem,
)


@pytest.mark.parametrize(
    "make",
    [
        lambda seed: gen_correlated_gaussian(20, 50, 0.0, seed),
        lambda seed: gen_bernoulli_matrix(20, 50, seed),
        lambda seed: gen_correlated_gaussian(20, 50, 0.3, seed),
    ],
    ids=["gaussian", "bernoulli", "correlated"],
)
def test_matrix_determinism(make):
    a = make(123)
    b = make(123)
    np.testing.assert_array_equal(a.matrix, b.matrix)
    assert not np.array_equal(a.matrix, make(124).matrix)


def _two_step_matrix(kind, n, p, nu, seed):
    """Oracle: the earlier construction, with a hand-scaled Bernoulli draw and
    a mixed copy of the Gaussian draw divided by its norms, then reordered."""
    rng = np.random.default_rng(seed)
    if kind == "bernoulli":
        signs = rng.integers(0, 2, size=(n, p)).astype(np.float64) * 2.0 - 1.0
        return np.asfortranarray(signs / math.sqrt(n))
    z = rng.standard_normal((n, p))
    raw = z.copy()
    pairs = p // 2
    a, b = z[:, 0 : 2 * pairs : 2], z[:, 1 : 2 * pairs : 2]
    raw[:, 0 : 2 * pairs : 2] = a + nu * b
    raw[:, 1 : 2 * pairs : 2] = nu * a + b
    return np.asfortranarray(raw / np.linalg.norm(raw, axis=0))


DENSE_KINDS = [("gaussian", 0.0), ("bernoulli", None), ("correlated", 0.5),
               ("correlated", 2.0)]


@pytest.mark.parametrize("n,p", [(5, 1), (7, 13), (200, 1000), (131, 257)])
@pytest.mark.parametrize("kind,nu", DENSE_KINDS, ids=["gaussian", "bernoulli", "nu0.5", "nu2"])
def test_dense_matrix_bits_match_the_two_step_construction(kind, nu, n, p):
    """Every dense kind (the gaussian kind is nu=0) is drawn once and
    normalized straight into a read-only column-major buffer, with the bits
    of the two-step construction; the Gaussian kinds draw by row blocks,
    also at odd p and with a last block shorter than the others."""
    seed = np.random.SeedSequence(entropy=3, spawn_key=(0,))
    if kind == "bernoulli":
        op = gen_bernoulli_matrix(n, p, seed)
    else:
        op = gen_correlated_gaussian(n, p, nu, seed)
    expected = _two_step_matrix(kind, n, p, nu, seed)
    assert op.matrix.tobytes(order="A") == expected.tobytes(order="A")
    assert op.matrix.flags.f_contiguous and not op.matrix.flags.writeable


@pytest.mark.parametrize("kind,nu", DENSE_KINDS, ids=["gaussian", "bernoulli", "nu0.5", "nu2"])
def test_gen_problem_allocation_peak_stays_near_two_matrices(kind, nu):
    """The draw and its one normalized copy are the only full-size buffers
    alive at once: no mixing copy, no divided temporary, no reordering copy."""
    args = dict(matrix_kind=kind, n=200, p=1000, s=5, dr=10.0, sigma=0.01, nu=nu, seed=1)
    gen_problem(**args)
    tracemalloc.start()
    try:
        prob = gen_problem(**args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * prob.op.matrix.nbytes


@pytest.mark.parametrize("nu", [0.0, 0.5], ids=["gaussian", "correlated"])
def test_gaussian_draw_holds_no_second_matrix(nu):
    """The Gaussian kinds draw by row blocks straight into the normalized
    buffer: no full-size draw sits beside it."""
    gen_correlated_gaussian(500, 1000, nu, 1)
    tracemalloc.start()
    try:
        op = gen_correlated_gaussian(500, 1000, nu, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * op.matrix.nbytes


def test_matrix_columns_unit_norm():
    for op in (
        gen_correlated_gaussian(40, 90, 0.0, 0),
        gen_bernoulli_matrix(40, 90, 0),
        gen_correlated_gaussian(40, 90, 0.4, 0),
    ):
        norms = np.linalg.norm(op.matrix, axis=0)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12


def test_bernoulli_entries_exact():
    n = 64
    op = gen_bernoulli_matrix(n, 100, 5)
    np.testing.assert_array_equal(np.abs(op.matrix), np.full((n, 100), 1.0 / np.sqrt(n)))


def test_bernoulli_coherence_mostly_below_half():
    """At 100x400 the coherence stays under 1/2 for at least 95 of 100 seeds."""
    wins = sum(
        mutual_coherence(gen_bernoulli_matrix(100, 400, seed)) < 0.5
        for seed in range(100)
    )
    assert wins >= 95


def test_gaussian_coherence_level():
    # 500x1000 normalized Gaussian columns peak near 0.2 pairwise overlap
    mus = [mutual_coherence(gen_correlated_gaussian(500, 1000, 0.0, seed))
           for seed in range(20)]
    assert all(0.15 <= m <= 0.28 for m in mus)
    assert 0.17 <= float(np.mean(mus)) <= 0.23


def test_correlated_pair_inner_products():
    """Mixed column pairs overlap by 2*nu/(1+nu^2) up to sampling noise."""
    nu = 0.5
    vals = []
    for seed in range(5):
        m = gen_correlated_gaussian(500, 1000, nu, seed).matrix
        ips = np.einsum("ij,ij->j", m[:, 0::2], m[:, 1::2])
        vals.append(float(ips.mean()))
    target = 2.0 * nu / (1.0 + nu ** 2)
    assert abs(float(np.mean(vals)) - target) <= 0.02


def test_correlated_coherence_grows_with_nu():
    nus = np.arange(0.0, 1.0001, 0.05)
    mean_mu = [
        float(np.mean([
            mutual_coherence(gen_correlated_gaussian(250, 500, float(nu), seed))
            for seed in range(10)
        ]))
        for nu in nus
    ]
    assert stats.spearmanr(nus, mean_mu).statistic > 0.9


def test_signal_single_nonzero_unit_magnitude():
    x = gen_sparse_signal(50, 1, 100.0, seed=3)
    nz = x[x != 0]
    assert nz.size == 1
    assert abs(nz[0]) == 1.0


def test_signal_dynamic_range_exact():
    for seed in range(20):
        x = gen_sparse_signal(200, 10, 100.0, seed=seed)
        mags = np.abs(x[x != 0])
        assert mags.size == 10
        assert mags.max() / mags.min() == pytest.approx(100.0, rel=1e-9)


def test_signal_support_uniform():
    """Support positions over 10^4 draws pass a chi-square uniformity test."""
    p, s = 50, 5
    counts = np.zeros(p)
    for i in range(10_000):
        x = gen_sparse_signal(p, s, 1.0, seed=100_000 + i)
        counts[np.flatnonzero(x)] += 1
    assert stats.chisquare(counts).pvalue > 0.01


def test_signal_validation():
    with pytest.raises(ValueError):
        gen_sparse_signal(10, 0, 100.0, seed=0)
    with pytest.raises(ValueError):
        gen_sparse_signal(10, 11, 100.0, seed=0)
    with pytest.raises(ValueError):
        gen_sparse_signal(10, 2, 0.5, seed=0)


def test_problem_noiseless():
    prob = gen_problem("gaussian", n=20, p=40, s=3, dr=10.0, sigma=0.0, seed=1)
    assert prob.epsilon == 0.0
    np.testing.assert_array_equal(prob.y, prob.op.apply(prob.x_true))


def test_problem_meta_echoes_parameters():
    prob = gen_problem("gaussian", n=500, p=1000, s=10, dr=100.0, sigma=1e-2, seed=7)
    assert prob.meta["matrix_kind"] == "gaussian"
    assert (prob.meta["n"], prob.meta["p"], prob.meta["s"]) == (500, 1000, 10)
    assert prob.meta["dr"] == 100.0
    assert prob.meta["sigma"] == 1e-2
    assert prob.meta["seed"] == 7
    assert prob.s == 10


def test_problem_noise_norm_concentrates():
    """epsilon^2 approaches n*sigma^2 for large n."""
    sigma, n = 0.7, 10_000
    ratios = [
        gen_problem("gaussian", n=n, p=2, s=1, dr=1.0, sigma=sigma, seed=seed).epsilon ** 2
        / (n * sigma ** 2)
        for seed in range(100)
    ]
    assert abs(float(np.mean(ratios)) - 1.0) <= 0.1


def test_problem_sigma_change_keeps_matrix_and_signal():
    a = gen_problem("gaussian", n=20, p=40, s=3, dr=10.0, sigma=1e-3, seed=9)
    b = gen_problem("gaussian", n=20, p=40, s=3, dr=10.0, sigma=1e-1, seed=9)
    np.testing.assert_array_equal(a.op.matrix, b.op.matrix)
    np.testing.assert_array_equal(a.x_true, b.x_true)
    assert not np.array_equal(a.y, b.y)


def test_problem_correlated_requires_nu():
    with pytest.raises(ValueError):
        gen_problem("correlated", n=10, p=20, s=2, dr=10.0, sigma=0.0, seed=0)


@pytest.mark.parametrize("kind, n", [("gaussian", 0), ("bernoulli", -2)])
def test_problem_measurement_count_below_one(kind, n):
    """Refused by the argument check, before any operator constructor sees it."""
    with pytest.raises(ValueError, match="measurement count must be >= 1"):
        gen_problem(kind, n=n, p=16, s=2, dr=10.0, sigma=0.0, seed=0)


@pytest.mark.parametrize("kind, kwargs, fragment", [
    ("gaussian", {"sigma": 1e200}, "noise norm is inf and data norm is inf"),
    ("correlated", {"nu": 1e200}, "column 0 has norm inf"),
    ("correlated", {"nu": 1e308}, "column 0 has norm inf"),
    ("gaussian", {"dr": 1e308}, "noise norm is 0.0 and data norm is inf"),
    ("fft-haar", {"dr": 1e308}, "noise norm is 0.0 and data norm is inf"),
], ids=["sigma", "nu-1e200", "nu-1e308", "dr", "dr-fft-haar"])
def test_problem_overflowing_draw_is_refused(kind, kwargs, fragment):
    """A draw whose matrix, noise or data overflows is a ValueError, with no
    numpy warning, instead of a problem that no solver accepts."""
    args = {**dict(n=6, p=16, s=2, dr=10.0, sigma=0.0, seed=0), **kwargs}
    with pytest.raises(ValueError, match=fragment):
        gen_problem(kind, **args)


@pytest.mark.parametrize("seed, fragment", [(-1, "seed must be >= 0, got -1"),
                                            (True, "seed must be an integer, got True"),
                                            (1.0, "seed must be an integer, got 1.0")])
def test_problem_seed_is_checked(seed, fragment):
    with pytest.raises(ValueError, match=fragment):
        check_problem_args("gaussian", n=4, p=8, s=1, dr=1.0, sigma=0.0, seed=seed)
    with pytest.raises(ValueError, match=fragment):
        gen_problem("gaussian", n=4, p=8, s=1, dr=1.0, sigma=0.0, seed=seed)


def test_problem_unknown_kind():
    with pytest.raises(ValueError):
        gen_problem("toeplitz", n=10, p=20, s=2, dr=10.0, sigma=0.0, seed=0)


@pytest.mark.parametrize("kind,extra", [("gaussian", {}), ("fft-haar", {"levels": 2})])
def test_problem_save_load_round_trip(tmp_path, kind, extra):
    p = 64 if kind == "fft-haar" else 40
    prob = gen_problem(kind, n=20, p=p, s=3, dr=10.0, sigma=1e-3, seed=4, **extra)
    save_problem(prob, tmp_path)
    back = load_problem(tmp_path)
    np.testing.assert_array_equal(back.x_true, prob.x_true)
    np.testing.assert_array_equal(back.y, prob.y)
    assert back.epsilon == prob.epsilon
    assert (back.op.kind, back.op.n, back.op.p) == (prob.op.kind, 20, p)
    if kind == "fft-haar":
        assert (back.op.levels, back.op.seed) == (2, prob.op.seed)
    else:
        np.testing.assert_array_equal(back.op.matrix, prob.op.matrix)
    x = np.random.default_rng(0).standard_normal(p)
    np.testing.assert_array_equal(back.op.apply(x), prob.op.apply(x))


def test_manifest_stores_each_fact_once_and_older_manifests_load(tmp_path):
    prob = gen_problem("gaussian", n=10, p=20, s=2, dr=1.0, sigma=1e-2, seed=3)
    save_problem(prob, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert set(manifest) == {"op", "epsilon", "meta"}
    assert (manifest["meta"]["sigma"], manifest["meta"]["seed"]) == (1e-2, 3)
    # Manifests written before also carried top-level copies of sigma and seed.
    (tmp_path / "manifest.json").write_text(json.dumps({**manifest, "sigma": 1e-2, "seed": 3}))
    back = load_problem(tmp_path)
    np.testing.assert_array_equal(back.y, prob.y)
    assert (back.epsilon, back.meta) == (prob.epsilon, prob.meta)


def test_load_problem_unknown_operator_kind(tmp_path):
    save_problem(gen_problem("gaussian", n=10, p=20, s=2, dr=1.0, sigma=0.0, seed=0), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["op"]["kind"] = "toeplitz"
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="toeplitz"):
        load_problem(tmp_path)


def test_load_problem_missing_dir(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_problem(tmp_path / "nope")
