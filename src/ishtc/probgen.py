"""Seeded generation of sensing matrices, sparse signals, and noisy data.

Every generator is a pure function of its parameters and seed. A problem's
master seed is split into independent matrix/signal/noise streams, so
instances that differ only in ``s``, ``dr`` or ``sigma`` share their
matrix, and changing only ``sigma`` keeps the signal and rescales the same
noise direction. :func:`gen_problem` takes the operator of
such an earlier instance in place of drawing the matrix again.

Every dense kind is drawn once, mixed in place if it needs mixing, and
normalized once by ``linop.normalize_columns`` into its final buffer. The
Gaussian kinds are drawn by row blocks straight into that buffer, with the
bytes of one ``(n, p)`` draw.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .linop import (SensingOperator, check_fft_haar_sizes, dense_operator, make_partial_fft_haar,
                    normalize_columns)
from .solver import _check_count
from .storage import read_array, write_array, write_manifest

SeedLike = Union[int, np.random.SeedSequence]

# Stream tags for splitting a master seed.
_MATRIX_STREAM = 0
_SIGNAL_STREAM = 1
_NOISE_STREAM = 2

#: Matrix kinds, and the Haar levels of an ``fft-haar`` draw unless given.
MATRIX_KINDS = ("gaussian", "bernoulli", "correlated", "fft-haar")
DEFAULT_LEVELS = 2


def _substream(seed: int, tag: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=seed, spawn_key=(tag,))


@dataclass
class Problem:
    """A sensing instance: operator, ground truth, and noisy data.

    ``y`` is stored exactly as generated (never recomputed), ``epsilon`` is
    the realized noise norm, ``meta`` echoes every generation parameter.
    """

    op: SensingOperator
    x_true: np.ndarray
    y: np.ndarray
    epsilon: float
    meta: dict = field(default_factory=dict)

    @property
    def s(self) -> int:
        return int(np.count_nonzero(self.x_true))


def gen_bernoulli_matrix(n: int, p: int, seed: SeedLike) -> SensingOperator:
    """Equiprobable ±1 entries; normalization makes every entry ±1/sqrt(n)."""
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=(n, p)).astype(np.float64) * 2.0 - 1.0
    return normalize_columns(signs)


def gen_correlated_gaussian(n: int, p: int, nu: float, seed: SeedLike) -> SensingOperator:
    """Gaussian columns mixed in adjacent pairs, in place, to raise coherence.

    Columns 2i and 2i+1 become ``z_{2i} + nu*z_{2i+1}`` and
    ``nu*z_{2i} + z_{2i+1}``, so their normalized inner product concentrates
    at ``2*nu/(1+nu^2)``; larger ``nu`` gives larger coherence. With odd
    ``p`` the last column stays unmixed. ``nu=0`` leaves i.i.d. standard
    normal columns: the ``gaussian`` kind.
    """
    _check_mixing_weight(nu)
    rng = np.random.default_rng(seed)

    def draw(lo: int, z: np.ndarray) -> None:  # the next rows, as one (n, p) draw gives them
        rng.standard_normal(out=z)
        if nu != 0:
            a, b = z[:, 0 : p - 1 : 2], z[:, 1::2]
            with np.errstate(over="ignore", invalid="ignore"):  # normalize_columns refuses it
                a[...], b[...] = a + nu * b, nu * a + b

    return normalize_columns(draw, shape=(n, p))


def gen_sparse_signal(p: int, s: int, dr: float, seed: SeedLike) -> np.ndarray:
    """s-sparse signal with log-uniform magnitudes spanning exactly ``dr``.

    Support is uniform without replacement; magnitudes are ``10**u`` with
    ``u`` uniform on ``[0, log10(dr)]``, then the extreme entries are pinned
    to 1 and ``dr`` so the realized max/min ratio is exact; signs are ±1
    equiprobable. ``s=1`` gives a single unit-magnitude entry.
    """
    _check_signal(p, s, dr)
    rng = np.random.default_rng(seed)
    support = rng.choice(p, size=s, replace=False)
    if s == 1:
        mags = np.ones(1)
    else:
        u = rng.uniform(0.0, math.log10(dr), size=s)
        mags = 10.0 ** u
        lo = int(np.argmin(u))
        hi = int(np.argmax(u))
        if hi == lo:  # all-equal draw (dr == 1)
            hi = (lo + 1) % s
        mags[lo] = 1.0
        mags[hi] = float(dr)
    signs = rng.integers(0, 2, size=s).astype(np.float64) * 2.0 - 1.0
    x = np.zeros(p)
    x[support] = signs * mags
    return x


def gen_problem(
    matrix_kind: str,
    n: int,
    p: int,
    s: int,
    dr: float,
    sigma: float,
    nu: Optional[float] = None,
    seed: int = 0,
    levels: int = DEFAULT_LEVELS,
    op: Optional[SensingOperator] = None,
) -> Problem:
    """Compose matrix, signal, and noise into one instance.

    ``nu`` is required for (and only used by) the ``correlated`` kind, but
    every kind echoes it into ``meta``, so it must be finite for every kind;
    ``levels`` only by ``fft-haar``, whose signal is sparse in the
    coefficient domain the operator expects.

    The matrix is drawn from the seed's matrix stream alone, so instances
    that differ only in ``s``, ``dr`` or ``sigma`` share it. ``op``, when
    given, is used in place of that draw: it must be the ``op`` of a problem
    drawn with the same ``matrix_kind``, ``n``, ``p``, ``nu``, ``seed`` and
    ``levels``, as an experiment task passes from one draw to the next.

    A noise or data norm that is not finite (a huge ``sigma`` or ``dr``) is a
    ValueError, as in :func:`~ishtc.solver.continuation_solve`; so is a huge
    ``nu``, through ``normalize_columns``.
    """
    check_problem_args(matrix_kind, n, p, s, dr, sigma, nu, seed, levels)
    if op is None:
        mat_ss = _substream(seed, _MATRIX_STREAM)
        if matrix_kind == "bernoulli":
            op = gen_bernoulli_matrix(n, p, mat_ss)
        elif matrix_kind == "fft-haar":
            op = make_partial_fft_haar(p, n, levels, seed=int(mat_ss.generate_state(1)[0]))
        else:
            op = gen_correlated_gaussian(n, p, nu if matrix_kind == "correlated" else 0.0, mat_ss)
    x_true = gen_sparse_signal(p, s, dr, _substream(seed, _SIGNAL_STREAM))
    noise = sigma * np.random.default_rng(_substream(seed, _NOISE_STREAM)).standard_normal(n)
    # The solver's rule: NaN, infinite and overflowing norms are refused, warning-free.
    with np.errstate(over="ignore", invalid="ignore"):
        y = op.apply(x_true) + noise
        epsilon, y_norm = float(np.linalg.norm(noise)), float(np.linalg.norm(y))
    if not (math.isfinite(epsilon) and math.isfinite(y_norm)):
        raise ValueError(f"noise norm is {epsilon} and data norm is {y_norm}; both must be "
                         "finite (lower sigma or dr)")
    meta = {
        "matrix_kind": matrix_kind,
        "n": n,
        "p": p,
        "s": s,
        "dr": dr,
        "sigma": sigma,
        "nu": nu,
        "levels": levels if matrix_kind == "fft-haar" else None,
        "seed": seed,
    }
    return Problem(op=op, x_true=x_true, y=y, epsilon=epsilon, meta=meta)


def check_problem_args(
    matrix_kind: str,
    n: int,
    p: int,
    s: int,
    dr: float,
    sigma: float,
    nu: Optional[float] = None,
    seed: int = 0,
    levels: int = DEFAULT_LEVELS,
) -> None:
    """Raise the ValueError :func:`gen_problem` raises for these arguments'
    noise level, mixing weight, matrix kind, measurement count, signal
    length, fft-haar sizes, sparsity, dynamic range or seed, in that order,
    without drawing anything; ``n``, ``p``, ``s`` and ``seed`` must be integers
    (not bools), and ``seed`` >= 0. It takes ``gen_problem``'s arguments, so a
    list of draws can be checked before the first is generated."""
    if not 0 <= sigma < math.inf:  # also rejects NaN
        raise ValueError(f"noise level must be finite and >= 0, got {sigma}")
    if nu is not None and not math.isfinite(nu):
        raise ValueError(f"mixing weight must be finite, got {nu}")
    if matrix_kind not in MATRIX_KINDS:
        raise ValueError(f"unknown matrix kind {matrix_kind!r}; expected one of {MATRIX_KINDS}")
    if matrix_kind == "correlated":
        if nu is None:
            raise ValueError("the correlated kind needs a mixing weight nu")
        _check_mixing_weight(nu)
    _check_count("measurement count", n, 1)
    _check_count("signal length", p, 1)
    if matrix_kind == "fft-haar":
        check_fft_haar_sizes(p, n, levels)
    _check_signal(p, s, dr)
    _check_count("seed", seed, 0)


def _check_mixing_weight(nu: float) -> None:
    if not 0 <= nu < math.inf:  # also rejects NaN
        raise ValueError(f"mixing weight must be finite and >= 0, got {nu}")


def _check_signal(p: int, s: int, dr: float) -> None:
    if not 1 <= s <= p:
        raise ValueError(f"sparsity must satisfy 1 <= s <= {p}, got {s}")
    _check_count("sparsity", s, 1)
    if not 1 <= dr < math.inf:  # also rejects NaN
        raise ValueError(f"dynamic range must be finite and >= 1, got {dr}")


def save_problem(problem: Problem, out_dir: Union[str, Path]) -> Path:
    """Write a problem directory: binary arrays plus a JSON manifest.

    The manifest's ``"op"`` entry names the operator's kind and size. A dense
    operator's matrix goes to ``matrix.bin``; the implicit kind records the
    wavelet depth and seed it is rebuilt from. Returns the manifest path.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_array(out / "x_true.bin", problem.x_true)
    write_array(out / "y.bin", problem.y)
    op = problem.op
    op_cfg = {"kind": op.kind, "n": op.n, "p": op.p}
    if op.kind == "dense":
        write_array(out / "matrix.bin", np.asarray(op.matrix))
    else:
        op_cfg.update(levels=op.levels, seed=op.seed)
    manifest_path = out / "manifest.json"
    write_manifest(manifest_path, {
        "op": op_cfg,
        "epsilon": problem.epsilon,
        "meta": problem.meta,
    })
    return manifest_path


def _manifest_int(entry: dict, key: str) -> int:
    value = entry.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"manifest: {key} must be an integer, got {value!r}")
    return value


def load_problem(in_dir: Union[str, Path]) -> Problem:
    """Inverse of :func:`save_problem`. An ``op`` entry that is not an object,
    has an unknown kind, or gives sizes other than those of the array files is
    a ValueError, raised before the operator is built."""
    src = Path(in_dir)
    manifest_path = src / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no manifest.json in {src}")
    manifest = json.loads(manifest_path.read_text())
    op_cfg = manifest["op"]
    if not isinstance(op_cfg, dict):
        raise ValueError(f"manifest op entry must be a JSON object, got {op_cfg!r}")
    kind = op_cfg.get("kind")
    if kind not in ("dense", "partial-fft-haar"):
        raise ValueError(f"unknown operator kind {kind!r}")
    n, p = _manifest_int(op_cfg, "n"), _manifest_int(op_cfg, "p")
    x_true, y = read_array(src / "x_true.bin"), read_array(src / "y.bin")
    if y.shape != (n,) or x_true.shape != (p,):
        raise ValueError(f"manifest op entry says n={n}, p={p}, but y.bin has shape "
                         f"{y.shape} and x_true.bin {x_true.shape}")
    if kind == "dense":
        matrix = read_array(src / "matrix.bin")
        if p == 1 and matrix.ndim == 1:  # read_array gives a one-column file as a vector
            matrix = matrix[:, np.newaxis]
        if matrix.shape != (n, p):
            raise ValueError(f"matrix.bin has shape {matrix.shape}, expected {(n, p)}")
        op = dense_operator(matrix)
    else:
        op = make_partial_fft_haar(p=p, n=n, levels=_manifest_int(op_cfg, "levels"),
                                   seed=_manifest_int(op_cfg, "seed"))
    return Problem(op=op, x_true=x_true, y=y, epsilon=float(manifest["epsilon"]),
                   meta=manifest.get("meta", {}))
