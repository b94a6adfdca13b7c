"""Soft and hard thresholding operators.

Soft thresholding is the proximal map of ``lam * |x|`` and shrinks values
toward zero; hard thresholding is the proximal map of ``lam * 1{x != 0}``
and keeps a value unchanged iff its magnitude strictly exceeds
``sqrt(2 * lam)``. Both zero every magnitude at or below their cut
``t = penalty.threshold(lam)`` (``lam`` soft, ``sqrt(2 * lam)`` hard), and
both satisfy the stability bound ``|T_lam(x + y) - x| <= |y| + t``, which is
what makes the continuation solver's support analysis work. So every
guarantee rule is written once in ``t`` and read back as a level with
:meth:`Penalty.level`.
"""

from __future__ import annotations

import enum
import math

import numpy as np


class Penalty(str, enum.Enum):
    """Sparsity penalty selector: L1 pairs with soft, L0 with hard.

    The penalties differ only in where a level cuts and in the penalty term;
    these three methods are the one place that says so.
    """

    L1 = "l1"
    L0 = "l0"

    def threshold(self, lam: float) -> float:
        """The cut of level ``lam``: ``lam`` for L1, ``sqrt(2 * lam)`` for L0.
        A negative or NaN level is a ValueError."""
        if not lam >= 0:  # also rejects NaN
            raise ValueError(f"threshold level must be nonnegative, got {lam}")
        return lam if self is Penalty.L1 else math.sqrt(2.0 * lam)

    def level(self, t: float) -> float:
        """Inverse of :meth:`threshold`: the level whose cut is ``t``."""
        return t if self is Penalty.L1 else t ** 2 / 2.0

    def term(self, x: np.ndarray) -> float:
        """The penalty of ``x``: its l1 norm for L1, its nonzero count for L0."""
        return float(np.sum(np.abs(x))) if self is Penalty.L1 else float(np.count_nonzero(x))


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
    t = penalty.threshold(lam)
    v = np.asarray(v, dtype=np.float64)
    if penalty is Penalty.L1:
        return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)
    # Not np.where(|v| > t, v, 0): that form would zero a NaN and hide a divergence.
    return np.where(np.abs(v) <= t, 0.0, v)
