"""Soft and hard thresholding operators.

Soft thresholding is the proximal map of ``lam * |x|`` and shrinks values
toward zero; hard thresholding is the proximal map of ``lam * 1{x != 0}``
and keeps a value unchanged iff its magnitude strictly exceeds
``sqrt(2 * lam)``. Both satisfy the stability bound
``|T_lam(x + y) - x| <= |y| + lam`` (soft) and ``<= |y| + sqrt(2*lam)``
(hard), which is what makes the continuation solver's support analysis work.
"""

from __future__ import annotations

import enum
import math

import numpy as np


class Penalty(str, enum.Enum):
    """Sparsity penalty selector: L1 pairs with soft, L0 with hard."""

    L1 = "l1"
    L0 = "l0"


def _check_lambda(lam: float) -> None:
    if not lam >= 0:  # also rejects NaN
        raise ValueError(f"threshold level must be nonnegative, got {lam}")


def soft_threshold(t: float, lam: float) -> float:
    """Return ``max(|t| - lam, 0) * sgn(t)`` with ``sgn(0) = 0``."""
    _check_lambda(lam)
    mag = abs(t) - lam
    if mag <= 0.0:
        return 0.0
    return mag if t > 0 else -mag


def hard_threshold(t: float, lam: float) -> float:
    """Return ``t`` if ``|t| > sqrt(2*lam)``, else 0.

    The boundary ``|t| = sqrt(2*lam)`` maps to 0 (strict inequality).
    """
    _check_lambda(lam)
    return t if abs(t) > math.sqrt(2.0 * lam) else 0.0


def threshold_vector(v: np.ndarray, lam: float, penalty: Penalty) -> np.ndarray:
    """Apply the scalar threshold componentwise.

    Parameters
    ----------
    v : ndarray
        Input vector.
    lam : float
        Threshold level, >= 0.
    penalty : Penalty
        ``Penalty.L1`` for soft, ``Penalty.L0`` for hard.

    Returns
    -------
    ndarray
        Thresholded copy of ``v``; its nonzero set is the output support.
    """
    _check_lambda(lam)
    v = np.asarray(v, dtype=np.float64)
    if penalty is Penalty.L1:
        return np.sign(v) * np.maximum(np.abs(v) - lam, 0.0)
    out = v.copy()
    out[np.abs(v) <= math.sqrt(2.0 * lam)] = 0.0
    return out
