"""Reconstruction-quality metrics.

The support of an estimate is its exact nonzero set (thresholding produces
exact zeros, so no epsilon-support is needed). PSNR with a zero error is
reported as a 310 dB sentinel rather than infinity so CSV output stays
finite and comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Sentinel PSNR for a zero-error reconstruction.
PSNR_CAP_DB = 310.0


@dataclass
class Metrics:
    rel_l2: float
    abs_linf: float
    psnr_db: float
    exact_support: bool


def _check_pair(x_hat: np.ndarray, x_true: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x_hat = np.asarray(x_hat, dtype=np.float64)
    x_true = np.asarray(x_true, dtype=np.float64)
    if x_hat.shape != x_true.shape:
        raise ValueError(f"shape mismatch: {x_hat.shape} vs {x_true.shape}")
    if not np.any(x_true):
        raise ValueError("reference signal is identically zero")
    return x_hat, x_true


def psnr(x_hat: np.ndarray, x_true: np.ndarray) -> float:
    """``10*log10(V^2/MSE)`` with ``V`` the peak reference magnitude."""
    x_hat, x_true = _check_pair(x_hat, x_true)
    v = float(np.max(np.abs(x_true)))
    mse = float(np.mean((x_hat - x_true) ** 2))
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(10.0 * math.log10(v * v / mse), PSNR_CAP_DB)


def reconstruction_metrics(x_hat: np.ndarray, x_true: np.ndarray) -> Metrics:
    """Error fields, and whether the estimate's support equals the truth's."""
    x_hat, x_true = _check_pair(x_hat, x_true)
    diff = x_hat - x_true
    return Metrics(
        rel_l2=float(np.linalg.norm(diff) / np.linalg.norm(x_true)),
        abs_linf=float(np.max(np.abs(diff))),
        psnr_db=psnr(x_hat, x_true),
        exact_support=np.array_equal(np.flatnonzero(x_hat), np.flatnonzero(x_true)),
    )
