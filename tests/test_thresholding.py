import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ishtc.thresholding import Penalty, threshold_vector

FINITE = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
LAM = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


# Scalar oracles for threshold_vector, written from the definitions.


def soft_threshold(t: float, lam: float) -> float:
    """Return ``max(|t| - lam, 0) * sgn(t)`` with ``sgn(0) = 0``."""
    mag = abs(t) - lam
    if mag <= 0.0:
        return 0.0
    return mag if t > 0 else -mag


def hard_threshold(t: float, lam: float) -> float:
    """Return ``t`` if ``|t| > sqrt(2*lam)``, else 0 (the boundary maps to 0)."""
    return t if abs(t) > math.sqrt(2.0 * lam) else 0.0


def test_soft_scalar_examples():
    assert soft_threshold(3.0, 1.0) == 2.0
    assert soft_threshold(0.5, 1.0) == 0.0
    assert soft_threshold(-3.0, 1.0) == -2.0


def test_soft_sign_of_zero():
    assert soft_threshold(0.0, 0.0) == 0.0
    assert soft_threshold(0.0, 2.0) == 0.0


def test_hard_scalar_examples():
    assert hard_threshold(3.0, 2.0) == 3.0
    assert hard_threshold(1.9, 2.0) == 0.0
    # |t| = sqrt(2*lambda) lands exactly on the boundary and must map to 0
    assert hard_threshold(2.0, 2.0) == 0.0
    assert hard_threshold(-2.0, 2.0) == 0.0


def test_negative_lambda_rejected():
    with pytest.raises(ValueError):
        threshold_vector(np.ones(3), -1e-9, Penalty.L1)


@pytest.mark.parametrize("fn", [
    lambda t, lam: threshold_vector(np.full(3, t), lam, Penalty.L1),
    lambda t, lam: threshold_vector(np.full(3, t), lam, Penalty.L0),
])
def test_nan_lambda_rejected(fn):
    # NaN passes a plain ``lam < 0`` check; it must be refused, not thresholded.
    with pytest.raises(ValueError):
        fn(1.0, math.nan)


def test_vector_examples():
    out = threshold_vector(np.array([3.0, 0.5, -3.0]), 1.0, Penalty.L1)
    np.testing.assert_array_equal(out, [2.0, 0.0, -2.0])
    out = threshold_vector(np.array([3.0, 1.9, 2.0]), 2.0, Penalty.L0)
    np.testing.assert_array_equal(out, [3.0, 0.0, 0.0])


@pytest.mark.parametrize("penalty", [Penalty.L1, Penalty.L0])
def test_vector_matches_scalar_loop(penalty):
    """Componentwise application agrees with the scalar oracles."""
    rng = np.random.default_rng(42)
    v = rng.standard_normal(200) * 3.0
    lam = 0.7
    scalar = soft_threshold if penalty is Penalty.L1 else hard_threshold
    expected = np.array([scalar(float(t), lam) for t in v])
    np.testing.assert_array_equal(threshold_vector(v, lam, penalty), expected)


def test_stability_inequality_bulk():
    """|T(x+y) - x| stays within |y| plus the penalty-specific offset."""
    rng = np.random.default_rng(7)
    m = 100_000
    x = rng.standard_normal(m) * 10.0
    y = rng.standard_normal(m) * 10.0
    lam = rng.uniform(0.0, 5.0, m)
    # vectorized forms; agreement with the scalar ops is tested above
    t = x + y
    soft = np.sign(t) * np.maximum(np.abs(t) - lam, 0.0)
    hard = np.where(np.abs(t) > np.sqrt(2.0 * lam), t, 0.0)
    slack_soft = (np.abs(y) + lam) - np.abs(soft - x)
    slack_hard = (np.abs(y) + np.sqrt(2.0 * lam)) - np.abs(hard - x)
    assert slack_soft.min() >= -1e-12
    assert slack_hard.min() >= -1e-12


def test_soft_nonexpansive():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        a, b = rng.standard_normal(2) * 5.0
        lam = float(rng.uniform(0.0, 3.0))
        assert abs(soft_threshold(a, lam) - soft_threshold(b, lam)) <= abs(a - b) + 1e-15


@pytest.mark.parametrize("penalty", [Penalty.L1, Penalty.L0])
def test_odd_and_identity_at_zero(penalty):
    scalar = soft_threshold if penalty is Penalty.L1 else hard_threshold
    rng = np.random.default_rng(13)
    for t in rng.standard_normal(100) * 4.0:
        assert scalar(float(-t), 1.3) == -scalar(float(t), 1.3)
        assert scalar(float(t), 0.0) == t


def test_hard_output_is_zero_or_input():
    rng = np.random.default_rng(17)
    v = rng.standard_normal(500) * 3.0
    out = threshold_vector(v, 1.1, Penalty.L0)
    kept = out != 0
    np.testing.assert_array_equal(out[kept], v[kept])


@given(lam=st.one_of(st.just(0.0), st.floats(1e-300, 1e300)))
def test_level_inverts_threshold(lam):
    assert Penalty.L1.level(Penalty.L1.threshold(lam)) == lam
    assert abs(Penalty.L0.level(Penalty.L0.threshold(lam)) - lam) <= 2 * math.ulp(lam)


@given(v=st.lists(st.floats(allow_nan=False), min_size=1, max_size=20),
       lam=st.floats(0.0, 1e300))
def test_hard_threshold_cuts_at_the_penalty_threshold(v, lam):
    v = np.array(v)
    want = np.where(np.abs(v) > Penalty.L0.threshold(lam), v, 0.0)
    assert threshold_vector(v, lam, Penalty.L0).tobytes() == want.tobytes()


@given(x=FINITE, y=FINITE, lam=LAM)
def test_stability_soft_property(x, y, lam):
    assert abs(soft_threshold(x + y, lam) - x) <= abs(y) + lam + 1e-9 * (1 + abs(x) + abs(y))


@given(x=FINITE, y=FINITE, lam=LAM)
def test_stability_hard_property(x, y, lam):
    bound = abs(y) + math.sqrt(2.0 * lam)
    assert abs(hard_threshold(x + y, lam) - x) <= bound + 1e-9 * (1 + abs(x) + abs(y))


@given(t=FINITE, lam=LAM)
def test_soft_shrinks_magnitude(t, lam):
    out = soft_threshold(t, lam)
    assert abs(out) <= abs(t)
    assert out * t >= 0.0


@pytest.mark.parametrize("penalty", [Penalty.L1, Penalty.L0])
def test_non_finite_entries_survive_both_thresholds(penalty):
    """NaN and infinite entries pass through, so a diverging iterate stays
    visible; the hard threshold is byte for byte the copy that zeroes every
    entry at or below the cut, -0.0 included."""
    v = np.array([math.nan, math.inf, -math.inf, 0.5, -0.0, 2.0, -2.0, 3.0, -1e300])
    out = threshold_vector(v, 2.0, penalty)
    assert np.isnan(out[0]) and out[1] == math.inf and out[2] == -math.inf
    assert np.all(np.isfinite(out[3:]))
    if penalty is Penalty.L0:
        want = v.copy()
        want[np.abs(v) <= 2.0] = 0.0
        assert out.tobytes() == want.tobytes()
