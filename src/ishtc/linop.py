"""Sensing operators with adjoints, column normalization, and coherence.

Two realizations of the linear map ``R^p -> R^n`` are provided: a dense
matrix (stored column-major, since column access dominates normalization and
coherence work) and a matrix-free composition of an inverse orthonormal Haar
transform, a real-valued unitary DFT, and a seeded row selection. Operators
are immutable after construction and keep no per-run state.

The dense forward map is charged for the support of its input, not for p:
when fewer than ``p / 8`` entries of ``x`` are nonzero and ``n * p`` is at
least :data:`RESTRICTED_MIN_SIZE`, it computes ``matrix[:, S] @ x[S]`` over
the support ``S`` only; otherwise the full ``matrix @ x``. Both give the
same product up to summation order (a few ulps), and either counts as one
matvec. The adjoint always runs in full.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

#: Largest implicit-operator column count for which mutual coherence is
#: computed by densification (O(p^2 n) work).
COHERENCE_BUDGET_P = 4096

#: Smallest dense ``n * p`` at which :meth:`SensingOperator.apply` restricts
#: the product to the support of ``x`` (when that support is below ``p / 8``).
#: Below it the column gather costs more than the full product saves.
RESTRICTED_MIN_SIZE = 1 << 16


# ---------------------------------------------------------------------------
# Orthonormal Haar transform
# ---------------------------------------------------------------------------


def haar_forward(x: np.ndarray, levels: int) -> np.ndarray:
    """Multi-level orthonormal Haar analysis.

    Coefficient layout: ``[approx_L | detail_L | detail_{L-1} | ... | detail_1]``
    where ``L = levels``. Requires ``len(x)`` divisible by ``2**levels``.
    """
    x = np.asarray(x, dtype=np.float64)
    p = x.size
    _check_haar_dims(p, levels)
    out = np.empty(p)
    a = x
    hi = p
    for _ in range(levels):
        pairs = a.reshape(-1, 2)
        detail = (pairs[:, 0] - pairs[:, 1]) / math.sqrt(2.0)
        a = (pairs[:, 0] + pairs[:, 1]) / math.sqrt(2.0)
        lo = hi - detail.size
        out[lo:hi] = detail
        hi = lo
    out[:hi] = a
    return out


def haar_inverse(c: np.ndarray, levels: int) -> np.ndarray:
    """Inverse of :func:`haar_forward` (exact orthonormal round trip)."""
    c = np.asarray(c, dtype=np.float64)
    p = c.size
    _check_haar_dims(p, levels)
    a = c[: p >> levels].copy()
    for lev in range(levels, 0, -1):
        detail = c[p >> lev : p >> (lev - 1)]
        merged = np.empty(2 * a.size)
        merged[0::2] = (a + detail) / math.sqrt(2.0)
        merged[1::2] = (a - detail) / math.sqrt(2.0)
        a = merged
    return a


def _check_haar_dims(p: int, levels: int) -> None:
    if levels < 1:
        raise ValueError(f"wavelet depth must be >= 1, got {levels}")
    # A huge depth would build a huge 2**levels; past p's bit length none divides p.
    if p % (1 << min(levels, int(p).bit_length())) != 0:
        raise ValueError(f"signal length {p} is not divisible by 2**{levels}")


# ---------------------------------------------------------------------------
# Real-valued unitary DFT
# ---------------------------------------------------------------------------
#
# Row order of the p x p orthogonal matrix (p even):
#   row 0            : DC, entries 1/sqrt(p)
#   rows 1 .. p/2-1  : sqrt(2/p) * cos(2 pi k j / p), k = 1 .. p/2-1
#   row p/2          : Nyquist, entries (-1)^j / sqrt(p)
#   rows p/2+1 .. p-1: sqrt(2/p) * sin(2 pi k j / p), k = 1 .. p/2-1
#
# Cos/sin rows carry the sqrt(2) so the stack stays orthonormal; DC and
# Nyquist rows are unscaled.


def real_dft(v: np.ndarray) -> np.ndarray:
    p = v.size
    half = p // 2
    c = np.fft.rfft(v)
    root = math.sqrt(p)
    out = np.empty(p)
    out[0] = c[0].real / root
    out[1:half] = math.sqrt(2.0) * c[1:half].real / root
    out[half] = c[half].real / root
    out[half + 1 :] = -math.sqrt(2.0) * c[1:half].imag / root
    return out


def real_dft_adjoint(u: np.ndarray) -> np.ndarray:
    p = u.size
    half = p // 2
    scale = math.sqrt(p) / math.sqrt(2.0)
    c = np.empty(half + 1, dtype=np.complex128)
    c[0] = u[0] * math.sqrt(p)
    c[half] = u[half] * math.sqrt(p)
    c[1:half] = scale * (u[1:half] - 1j * u[half + 1 :])
    return np.fft.irfft(c, n=p)


# ---------------------------------------------------------------------------
# Operator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SensingOperator:
    """Linear map ``R^p -> R^n`` with unit-norm columns and an adjoint.

    ``kind`` is ``"dense"`` or ``"partial-fft-haar"``. Dense operators carry
    the column-major matrix in ``matrix``; the implicit kind carries the
    selected frequency-row indices, the wavelet depth, and the per-column
    scale that restores unit column norms.
    """

    n: int
    p: int
    kind: str
    matrix: Optional[np.ndarray] = None
    rows: Optional[np.ndarray] = None
    levels: int = 0
    col_scale: Optional[np.ndarray] = None
    seed: Optional[int] = field(default=None, compare=False)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Forward map ``x -> Psi x``; counts as one matvec.

        A dense operator gathers only the columns of a small support (see the
        module docstring), whose bits then need not match the full product's.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.p,):
            raise ValueError(f"expected signal of length {self.p}, got shape {x.shape}")
        if self.kind == "dense":
            # count_nonzero costs a fraction of nonzero, so a large support pays only the count.
            if self.n * self.p >= RESTRICTED_MIN_SIZE and 8 * np.count_nonzero(x) < self.p:
                support = x.nonzero()[0]
                return self.matrix[:, support] @ x[support]
            return self.matrix @ x
        return real_dft(haar_inverse(x / self.col_scale, self.levels))[self.rows]

    def apply_adjoint(self, r: np.ndarray) -> np.ndarray:
        """Adjoint map ``r -> Psi^t r``; counts as one matvec."""
        r = np.asarray(r, dtype=np.float64)
        if r.shape != (self.n,):
            raise ValueError(f"expected residual of length {self.n}, got shape {r.shape}")
        if self.kind == "dense":
            return self.matrix.T @ r
        full = np.zeros(self.p)
        full[self.rows] = r
        return haar_forward(real_dft_adjoint(full), self.levels) / self.col_scale

    def densify(self) -> np.ndarray:
        """Materialize the operator as an ``n x p`` array (diagnostics only)."""
        if self.kind == "dense":
            return np.array(self.matrix)
        cols = np.empty((self.n, self.p), order="F")
        e = np.zeros(self.p)
        for j in range(self.p):
            e[j] = 1.0
            cols[:, j] = self.apply(e)
            e[j] = 0.0
        return cols


@dataclass(frozen=True)
class CoherenceReport:
    """Mutual coherence ``mu`` and the column pair attaining it."""

    mu: float
    argmax_pair: tuple[int, int]


def dense_operator(matrix: np.ndarray) -> SensingOperator:
    """Wrap a matrix read from a file as a dense operator, after checking that
    its columns have unit norm (generated ones come from normalize_columns)."""
    matrix = np.asfortranarray(matrix, dtype=np.float64)
    n, p = matrix.shape
    if n < 1 or p < 1:
        raise ValueError(f"operator dimensions must be >= 1, got {n} x {p}")
    norms = np.linalg.norm(matrix, axis=0)
    if not np.allclose(norms, 1.0, rtol=1e-12, atol=1e-12):
        worst = int(np.argmax(np.abs(norms - 1.0)))
        raise ValueError(
            f"columns must have unit norm; column {worst} has norm {norms[worst]:.3g}"
        )
    matrix.setflags(write=False)
    return SensingOperator(n=n, p=p, kind="dense", matrix=matrix)


def normalize_columns(raw: np.ndarray) -> tuple[SensingOperator, np.ndarray]:
    """Build a generated matrix's operator: copy ``raw`` once into a read-only
    column-major buffer divided in place by ``raw``'s column norms, which are
    returned too, to map solutions back. ``raw`` itself is not changed."""
    raw = np.asarray(raw, dtype=np.float64)
    scales = np.linalg.norm(raw, axis=0)
    zero = np.flatnonzero(scales == 0.0)
    if zero.size:
        raise ValueError(f"column {int(zero[0])} is the zero vector")
    mat = np.array(raw, order="F")
    mat /= scales
    mat.setflags(write=False)
    n, p = mat.shape
    return SensingOperator(n=n, p=p, kind="dense", matrix=mat), scales


def mutual_coherence(op: SensingOperator) -> CoherenceReport:
    """Exact maximum of ``|<psi_i, psi_j>|`` over all column pairs ``i != j``.

    Implicit operators are densified column-by-column first, which costs p
    operator applications; refuse when ``p`` exceeds :data:`COHERENCE_BUDGET_P`.
    A single column has no pair, so ``p < 2`` is a ValueError.
    """
    if op.p < 2:
        raise ValueError(f"coherence needs at least 2 columns, got p={op.p}")
    if op.kind != "dense" and op.p > COHERENCE_BUDGET_P:
        raise ValueError(
            f"coherence computation over budget: p={op.p} exceeds {COHERENCE_BUDGET_P} "
            "for an implicit operator"
        )
    mat = op.densify()
    gram = np.abs(mat.T @ mat)
    np.fill_diagonal(gram, -1.0)
    flat = int(np.argmax(gram))
    i, j = divmod(flat, op.p)
    mu = float(min(gram[i, j], 1.0))
    return CoherenceReport(mu=mu, argmax_pair=(min(i, j), max(i, j)))


def make_partial_fft_haar(p: int, n: int, levels: int, seed: int) -> SensingOperator:
    """Compose row-subsampled real DFT with an inverse Haar transform.

    The map is ``x -> S F W^{-1} (x / d)`` where ``W^{-1}`` is the inverse
    orthonormal Haar transform at the given depth, ``F`` the real unitary
    DFT above, ``S`` a seeded uniform-without-replacement selection of ``n``
    of the ``p`` real frequency rows, and ``d`` the vector of column norms
    of the unscaled composition, so every column of the result is unit-norm.
    ``p`` must be a power of two.

    ``d`` comes in closed form, in O(p log p) for any ``n``. The Haar atoms
    fall into ``levels + 1`` blocks (the approximation block, then the
    detail blocks from coarse to fine); within a block of ``M`` atoms, atom
    ``m`` is the prototype ``g`` translated by ``m T`` with step ``T = p / M``.
    With ``G = rfft(g)``, the shift theorem gives atom ``m`` the energy
    ``(|G_k|^2 + Re(G_k^2 e^{-2 pi i (2k mod M) m / M})) / p`` in cos row
    ``k``, and the same with a minus sign in sin row ``k``; the DC and
    Nyquist rows add ``|G_0|^2 / p`` and ``|G_{p/2}|^2 / p`` to every atom.
    So a block's squared column norms are one constant plus the real part of
    one length-``M`` FFT of the selection-signed ``G_k^2``, folded at index
    ``2k mod M``: ``levels + 1`` FFTs of length at most ``p`` in all.
    """
    if p < 2 or (p & (p - 1)) != 0:
        raise ValueError(f"signal length must be a power of two, got {p}")
    if not 1 <= n <= p:
        raise ValueError(f"row count must satisfy 1 <= n <= {p}, got {n}")
    _check_haar_dims(p, levels)
    rng = np.random.default_rng(seed)
    rows = np.sort(rng.choice(p, size=n, replace=False))
    rows.setflags(write=False)

    sq = _column_energy(p, rows, levels)
    zero = np.flatnonzero(sq == 0.0)
    if zero.size:
        raise ValueError(f"column {int(zero[0])} is the zero vector after row selection")
    col_scale = np.sqrt(sq)
    col_scale.setflags(write=False)
    return SensingOperator(
        n=n,
        p=p,
        kind="partial-fft-haar",
        rows=rows,
        levels=levels,
        col_scale=col_scale,
        seed=seed,
    )


def _column_energy(p: int, rows: np.ndarray, levels: int) -> np.ndarray:
    """Squared column norms of ``S F W^{-1}``, by the closed form in
    :func:`make_partial_fft_haar`.

    Each selected cos or sin row gives an atom at least ``2 sin^2(pi/p)``
    times that row's share of its block's constant, so FFT roundoff (about
    ``1e-16 log2 p`` of the constant) cannot make a nonzero column negative
    for any ``p`` below 2**24.
    """
    half = p // 2
    ends = rows[(rows == 0) | (rows == half)]
    cos_k = rows[(rows > 0) & (rows < half)]
    sin_k = rows[rows > half] - half
    freq = np.concatenate([cos_k, sin_k])
    sign = np.repeat([1.0, -1.0], [cos_k.size, sin_k.size])
    sq = np.empty(p)
    # (first coefficient, depth, is detail) for the approximation block, then
    # the detail blocks in haar_forward's coefficient layout.
    blocks = [(0, levels, False)] + [(p >> lev, lev, True) for lev in range(levels, 0, -1)]
    for lo, lev, detail in blocks:
        step = 1 << lev
        g = np.zeros(p)
        g[:step] = 1.0 / math.sqrt(step)
        if detail:
            g[step // 2 : step] *= -1.0
        spectrum = np.fft.rfft(g)
        atoms = p >> lev
        folded = np.zeros(atoms, dtype=np.complex128)
        np.add.at(folded, 2 * freq % atoms, sign * spectrum[freq] ** 2)
        const = np.sum(np.abs(spectrum[freq]) ** 2) + np.sum(np.abs(spectrum[ends]) ** 2)
        sq[lo : lo + atoms] = (const + np.fft.fft(folded).real) / p
    return sq
