import numpy as np
import pytest

from ishtc.linop import (
    COHERENCE_BUDGET_P,
    SensingOperator,
    dense_operator,
    haar_forward,
    haar_inverse,
    make_partial_fft_haar,
    mutual_coherence,
    normalize_columns,
    real_dft,
    real_dft_adjoint,
)


def _random_unit_columns(n, p, seed):
    rng = np.random.default_rng(seed)
    op, _ = normalize_columns(rng.standard_normal((n, p)))
    return op


def test_apply_identity():
    op = dense_operator(np.eye(2))
    np.testing.assert_array_equal(op.apply(np.array([3.0, -1.0])), [3.0, -1.0])
    np.testing.assert_array_equal(op.apply_adjoint(np.array([3.0, -1.0])), [3.0, -1.0])


def test_apply_single_column():
    op = dense_operator(np.array([[0.6], [0.8]]))
    np.testing.assert_allclose(op.apply(np.array([2.0])), [1.2, 1.6], atol=1e-15)


def test_apply_matches_naive_loop():
    """Dense apply equals an explicit triple-checked loop product."""
    op = _random_unit_columns(50, 100, seed=0)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(100)
    expected = np.zeros(50)
    for i in range(50):
        acc = 0.0
        for j in range(100):
            acc += op.matrix[i, j] * x[j]
        expected[i] = acc
    assert np.max(np.abs(op.apply(x) - expected)) <= 1e-12


def test_dimension_mismatch_errors():
    op = _random_unit_columns(5, 9, seed=2)
    with pytest.raises(ValueError):
        op.apply(np.zeros(5))
    with pytest.raises(ValueError):
        op.apply_adjoint(np.zeros(9))


@pytest.mark.parametrize(
    "make",
    [
        lambda: _random_unit_columns(40, 90, seed=4),
        lambda: make_partial_fft_haar(256, 64, levels=2, seed=5),
    ],
    ids=["dense", "partial-fft-haar"],
)
def test_adjoint_consistency_100_pairs(make):
    """<apply(x), r> equals <x, adjoint(r)> to 1e-10 relative."""
    op = make()
    rng = np.random.default_rng(6)
    for _ in range(100):
        x = rng.standard_normal(op.p)
        r = rng.standard_normal(op.n)
        lhs = float(op.apply(x) @ r)
        rhs = float(x @ op.apply_adjoint(r))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_coherence_orthonormal_zero():
    assert mutual_coherence(dense_operator(np.eye(4))).mu == 0.0


def test_coherence_coincident_columns_one():
    c = np.array([0.6, 0.8])
    op = dense_operator(np.column_stack([c, c]))
    report = mutual_coherence(op)
    assert report.mu == pytest.approx(1.0, abs=1e-12)
    i, j = report.argmax_pair
    assert i != j


def test_coherence_exhaustive_pair_oracle():
    """Report equals a brute-force double loop over all 780 pairs."""
    op = _random_unit_columns(20, 40, seed=7)
    best = -1.0
    for i in range(40):
        for j in range(i + 1, 40):
            best = max(best, abs(float(op.matrix[:, i] @ op.matrix[:, j])))
    report = mutual_coherence(op)
    assert report.mu == pytest.approx(best, abs=1e-14)
    assert 0.0 <= report.mu <= 1.0


def test_coherence_budget_error():
    op = make_partial_fft_haar(2 * COHERENCE_BUDGET_P, 16, levels=1, seed=0)
    with pytest.raises(ValueError, match="over budget"):
        mutual_coherence(op)


def test_coherence_single_column_error():
    # One column has no pair; fill_diagonal(-1) would otherwise report mu = -1.
    with pytest.raises(ValueError, match="at least 2 columns"):
        mutual_coherence(_random_unit_columns(5, 1, seed=0))


def test_normalize_columns_example():
    op, scales = normalize_columns(np.array([[3.0], [4.0]]))
    np.testing.assert_allclose(op.matrix[:, 0], [0.6, 0.8], atol=1e-15)
    assert scales[0] == pytest.approx(5.0)


def test_normalize_columns_idempotent():
    raw = np.array([[0.6, 0.0], [0.8, 1.0]])
    op, scales = normalize_columns(raw)
    np.testing.assert_allclose(op.matrix, raw, atol=1e-15)
    np.testing.assert_allclose(scales, [1.0, 1.0], atol=1e-15)


def test_normalize_columns_random_norms():
    op, _ = normalize_columns(np.random.default_rng(8).standard_normal((30, 70)))
    norms = np.linalg.norm(op.matrix, axis=0)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12


def test_normalize_zero_column_error_names_index():
    raw = np.ones((4, 3))
    raw[:, 2] = 0.0
    with pytest.raises(ValueError, match="2"):
        normalize_columns(raw)


@pytest.mark.parametrize("levels", [1, 2, 3])
def test_haar_round_trip(levels):
    rng = np.random.default_rng(9)
    x = rng.standard_normal(64)
    back = haar_inverse(haar_forward(x, levels), levels)
    assert np.max(np.abs(back - x)) <= 1e-12


def test_haar_orthonormal():
    # forward transform preserves the Euclidean norm
    rng = np.random.default_rng(10)
    x = rng.standard_normal(32)
    assert np.linalg.norm(haar_forward(x, 2)) == pytest.approx(np.linalg.norm(x), rel=1e-13)


def test_real_dft_orthonormal_and_adjoint():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(16)
    r = rng.standard_normal(16)
    fx = real_dft(x)
    assert np.linalg.norm(fx) == pytest.approx(np.linalg.norm(x), rel=1e-13)
    assert float(fx @ r) == pytest.approx(float(x @ real_dft_adjoint(r)), abs=1e-12)


def test_partial_fft_haar_full_selection_orthonormal():
    """With every row kept the composition has orthonormal columns."""
    op = make_partial_fft_haar(8, 8, levels=1, seed=12)
    gram = op.densify().T @ op.densify()
    assert np.max(np.abs(gram - np.eye(8))) <= 1e-12
    assert mutual_coherence(op).mu <= 1e-12


def test_partial_fft_haar_shape_665_1024():
    op = make_partial_fft_haar(1024, 665, levels=2, seed=13)
    assert (op.n, op.p) == (665, 1024)
    norms = np.linalg.norm(op.densify(), axis=0)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12


def test_partial_fft_haar_densify_oracle():
    """Matrix-free apply/adjoint agree with the densified matrix."""
    op = make_partial_fft_haar(64, 40, levels=2, seed=14)
    dense = op.densify()
    rng = np.random.default_rng(15)
    x = rng.standard_normal(64)
    r = rng.standard_normal(40)
    np.testing.assert_allclose(op.apply(x), dense @ x, atol=1e-12)
    np.testing.assert_allclose(op.apply_adjoint(r), dense.T @ r, atol=1e-12)


def test_partial_fft_haar_validation():
    with pytest.raises(ValueError):
        make_partial_fft_haar(100, 10, levels=1, seed=0)  # p not a power of two
    with pytest.raises(ValueError):
        make_partial_fft_haar(64, 70, levels=1, seed=0)  # n > p
    with pytest.raises(ValueError):
        make_partial_fft_haar(64, 10, levels=0, seed=0)


def test_dense_operator_requires_unit_columns():
    with pytest.raises(ValueError):
        dense_operator(np.array([[3.0], [4.0]]))


def test_operator_matrix_readonly():
    op = _random_unit_columns(4, 6, seed=16)
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 7.0
