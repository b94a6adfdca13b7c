import numpy as np
import pytest

from ishtc.metrics import PSNR_CAP_DB, psnr, reconstruction_metrics


def test_perfect_recovery():
    x = np.array([1.0, 0.0, -2.0])
    m = reconstruction_metrics(x.copy(), x)
    assert m.rel_l2 == 0.0
    assert m.abs_linf == 0.0
    assert m.exact_support
    assert m.psnr_db == PSNR_CAP_DB == 310.0


def test_hand_example():
    m = reconstruction_metrics(np.array([1.0, 0.5]), np.array([1.0, 0.0]))
    assert m.rel_l2 == pytest.approx(0.5)
    assert m.abs_linf == pytest.approx(0.5)
    assert m.support_precision == pytest.approx(0.5)
    assert m.support_recall == pytest.approx(1.0)
    assert not m.exact_support


def test_psnr_substitution():
    # V = 1 and MSE = 0.01 gives 10*log10(1/0.01) = 20 dB
    x_true = np.array([1.0, 0.0])
    x_hat = x_true + np.array([0.1, 0.1])
    assert psnr(x_hat, x_true) == pytest.approx(20.0)
    x_hat = x_true + np.array([1.0, -1.0])
    assert psnr(x_hat, x_true) == pytest.approx(0.0)


def test_psnr_joint_scaling_invariant():
    rng = np.random.default_rng(0)
    x_true = rng.standard_normal(50)
    x_hat = x_true + 0.1 * rng.standard_normal(50)
    base = psnr(x_hat, x_true)
    assert psnr(7.0 * x_hat, 7.0 * x_true) == pytest.approx(base, rel=1e-12)


def test_rel_l2_invariant_linf_linear():
    rng = np.random.default_rng(1)
    x_true = rng.standard_normal(50)
    x_hat = x_true + 0.1 * rng.standard_normal(50)
    m1 = reconstruction_metrics(x_hat, x_true)
    m2 = reconstruction_metrics(3.0 * x_hat, 3.0 * x_true)
    assert m2.rel_l2 == pytest.approx(m1.rel_l2, rel=1e-12)
    assert m2.abs_linf == pytest.approx(3.0 * m1.abs_linf, rel=1e-12)


def test_precision_recall_swap():
    a = np.array([1.0, 1.0, 0.0, 0.0])
    b = np.array([1.0, 0.0, 1.0, 1.0])
    m_ab = reconstruction_metrics(a, b)
    m_ba = reconstruction_metrics(b, a)
    assert m_ab.support_precision == pytest.approx(m_ba.support_recall)
    assert m_ab.support_recall == pytest.approx(m_ba.support_precision)


def test_exact_support_iff_perfect_precision_recall():
    rng = np.random.default_rng(2)
    for _ in range(200):
        x_true = np.where(rng.random(8) < 0.4, rng.standard_normal(8), 0.0)
        if not np.any(x_true):
            continue
        x_hat = np.where(rng.random(8) < 0.4, rng.standard_normal(8), 0.0)
        m = reconstruction_metrics(x_hat, x_true)
        assert m.exact_support == (
            m.support_precision == 1.0 and m.support_recall == 1.0
        )


def test_matches_loop_oracle():
    rng = np.random.default_rng(3)
    x_true = np.where(rng.random(30) < 0.3, rng.standard_normal(30), 0.0)
    x_true[0] = 1.0
    x_hat = np.where(rng.random(30) < 0.3, rng.standard_normal(30), 0.0)
    m = reconstruction_metrics(x_hat, x_true)

    num = sum((a - b) ** 2 for a, b in zip(x_hat, x_true)) ** 0.5
    den = sum(b ** 2 for b in x_true) ** 0.5
    assert m.rel_l2 == pytest.approx(num / den, rel=1e-12)
    assert m.abs_linf == pytest.approx(max(abs(a - b) for a, b in zip(x_hat, x_true)))
    pred = {i for i, v in enumerate(x_hat) if v != 0}
    true = {i for i, v in enumerate(x_true) if v != 0}
    expect_prec = len(pred & true) / len(pred) if pred else 1.0
    assert m.support_precision == pytest.approx(expect_prec)
    assert m.support_recall == pytest.approx(len(pred & true) / len(true))


def test_zero_truth_rejected():
    with pytest.raises(ValueError):
        reconstruction_metrics(np.ones(3), np.zeros(3))


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        reconstruction_metrics(np.ones(3), np.ones(4))
