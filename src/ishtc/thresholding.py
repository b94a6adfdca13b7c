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


def threshold_vector(v: np.ndarray, lam: float, penalty: Penalty) -> np.ndarray:
    """Apply the soft or hard threshold componentwise.

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
    if not lam >= 0:  # also rejects NaN
        raise ValueError(f"threshold level must be nonnegative, got {lam}")
    v = np.asarray(v, dtype=np.float64)
    if penalty is Penalty.L1:
        return np.sign(v) * np.maximum(np.abs(v) - lam, 0.0)
    out = v.copy()
    out[np.abs(v) <= math.sqrt(2.0 * lam)] = 0.0
    return out
