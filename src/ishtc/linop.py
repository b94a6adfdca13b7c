"""Sensing operators with adjoints, column normalization, and coherence.

Two realizations of the linear map ``R^p -> R^n`` are provided: a dense
matrix (stored column-major, since column access dominates normalization and
coherence work) and a matrix-free composition of an inverse orthonormal Haar
transform with a seeded selection of rows of the real unitary DFT, which
reads and writes its rows straight from numpy's ``rfft`` buffer through a
row map built once. Its maps share one analysis half (``rfft`` after the
unnormalized Haar butterflies) and one synthesis half, with the orthonormal
block factors folded into the column scales. Operators are immutable after
construction, but for the Gram triangle a dense one derives at first use
(below), and keep no per-run state.

The dense forward map is charged for the support of its input, not for p:
when fewer than ``p / 8`` entries of ``x`` are nonzero and ``n * p`` is at
least :data:`RESTRICTED_MIN_SIZE`, it computes ``matrix[:, S] @ x[S]`` over
the support ``S`` only; otherwise the full ``matrix @ x``. Both give the
same product up to summation order (a few ulps), and either counts as one
matvec. The adjoint always runs in full.

:meth:`SensingOperator.cached_route` is the one place that forms a solve's
steps ``x + Psi^t (y - Psi x)``; all routes give the same step up to
summation order:

- dense, ``n * p`` below :data:`GRAM_MIN_SIZE`: two matvecs per step.
- dense at or above it: ``c = Psi^t y`` and the Gram row ``G[j] = Psi^t psi_j``
  of each column that has entered the support, copied out of the
  operator's Gram triangle when ``p <= 2 n``, else one gemv when it enters;
  a step is ``x + c - x[A] @ G[A]`` over the cached columns ``A``, or two
  matvecs when its support would take the cache past ``n // 4`` rows (a
  quarter of the matrix's bytes).
- partial-FFT-Haar: ``c``, and ``x + (c - Psi^t Psi x)`` in the rfft buffer
  (one rfft, one irfft) on every step but one that carries the residual
  ``r``, which takes ``x + Psi^t r`` (one irfft). A level costs ``2 * kmax``
  transforms, as two-matvec steps would.

The Gram triangle is an operator's one derived cache, the one state it
carries across solves. A dense operator at or above :data:`GRAM_MIN_SIZE`
with ``p <= 2 n`` builds the upper triangle of ``Psi^t Psi`` by blocked
matrix products at the first row its first solve caches, and keeps it for
its later solves; ``p <= 2 n`` keeps it near the matrix's own size. It
holds every normal matrix ``Psi_S^t Psi_S``. Its rows agree with the gemv
rows up to summation order, but blocked products, unlike those gemvs, give
different bits at different BLAS thread counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple, Union

import numpy as np

#: Largest implicit-operator column count for which mutual coherence is
#: computed by densification (O(p^2 n) work).
COHERENCE_BUDGET_P = 4096

#: Smallest dense ``n * p`` at which :meth:`SensingOperator.apply` restricts
#: the product to the support of ``x`` (when that support is below ``p / 8``).
#: Below it the column gather costs more than the full product saves.
RESTRICTED_MIN_SIZE = 1 << 16

#: Smallest dense ``n * p`` that takes the Gram-row route (module docstring).
#: Below it, paths outgrow the cache after paying for it: on criterion 7's
#: 15x15 L1 grid at p=400 every path filled nearly all ``n // 4`` rows, one
#: gemv each, and then took the two-matvec route for 26% of its steps where
#: rho <= 0.3 and 67% elsewhere. With the floor at 0 the route saved 3% of
#: CPU time on the first cells and cost 35% on the others.
GRAM_MIN_SIZE = 1 << 18

#: Rows that :func:`normalize_columns` copies and sums per block.
ROW_BLOCK = 64

#: Rows per block of the Gram triangle (:attr:`SensingOperator.gram`); a row
#: comes out of it as one strided copy per block.
GRAM_BLOCK = 128


# ---------------------------------------------------------------------------
# Haar transform
# ---------------------------------------------------------------------------


def haar_forward(x: np.ndarray, levels: int) -> np.ndarray:
    """Multi-level orthonormal Haar analysis.

    Coefficient layout: ``[approx_L | detail_L | detail_{L-1} | ... | detail_1]``
    where ``L = levels``. Requires ``len(x)`` divisible by ``2**levels``.
    """
    x = np.asarray(x, dtype=np.float64)
    _check_haar_dims(x.size, levels)
    out = _butterflies(x, levels)
    out *= _haar_norms(x.size, levels)
    return out


def haar_inverse(c: np.ndarray, levels: int) -> np.ndarray:
    """Inverse of :func:`haar_forward` (an orthonormal round trip)."""
    c = np.asarray(c, dtype=np.float64)
    _check_haar_dims(c.size, levels)
    return _butterflies_t(c * _haar_norms(c.size, levels), levels)


def _butterflies(v: np.ndarray, levels: int) -> np.ndarray:
    """Unnormalized Haar analysis in :func:`haar_forward`'s layout: each
    level maps a pair ``(a, b)`` to the difference ``a - b``, which it keeps,
    and the sum ``a + b``, which the next level pairs again."""
    out = np.empty(v.size)
    a = v
    for _ in range(levels):
        m = a.size // 2
        np.subtract(a[0::2], a[1::2], out=out[m : 2 * m])
        a = a[0::2] + a[1::2]
    out[: a.size] = a
    return out


def _butterflies_t(c: np.ndarray, levels: int) -> np.ndarray:
    """Transpose of :func:`_butterflies`: each level, coarse to fine, maps a
    sum ``s`` and a difference ``d`` to the pair ``(s + d, s - d)``."""
    a = c[: c.size >> levels]
    for _ in range(levels):
        d = c[a.size : 2 * a.size]
        pairs = np.empty(2 * a.size)
        np.add(a, d, out=pairs[0::2])
        np.subtract(a, d, out=pairs[1::2])
        a = pairs
    return a


def _haar_norms(p: int, levels: int) -> np.ndarray:
    """The factors that make :func:`_butterflies` orthonormal: ``2**(-l/2)``
    on the detail block of level ``l``, and ``2**(-levels/2)`` on the
    approximation block."""
    norms = np.empty(p)
    for lev in range(1, levels + 1):  # each level overwrites the blocks below it
        norms[: p >> (lev - 1)] = 2.0 ** (-lev / 2)
    return norms


def _check_haar_dims(p: int, levels: int) -> None:
    if levels < 1:
        raise ValueError(f"wavelet depth must be >= 1, got {levels}")
    # A huge depth would build a huge 2**levels; past p's bit length none divides p.
    if p % (1 << min(levels, int(p).bit_length())) != 0:
        raise ValueError(f"signal length {p} is not divisible by 2**{levels}")


# ---------------------------------------------------------------------------
# Operator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SensingOperator:
    """Linear map ``R^p -> R^n`` with unit-norm columns and an adjoint.

    ``kind`` is ``"dense"`` or ``"partial-fft-haar"``. Dense operators carry
    the column-major matrix in ``matrix``; the implicit kind carries the
    wavelet depth, the per-column scale that restores unit column norms, and
    the map of the selected rows of the real unitary DFT that
    :func:`make_partial_fft_haar` derives once from the seeded draw: row
    ``i`` reads ``rfft_weight[i] * rfft(v).view(float64)[rfft_index[i]]``,
    the buffer of length ``p + 2`` that interleaves each bin's real and
    imaginary parts.

    The implicit kind also derives three read-only arrays from those fields
    at construction, so a copy made by ``dataclasses.replace`` derives its
    own: ``_scale``, the Haar block factors of :func:`_haar_norms` divided by
    ``col_scale``, which lets both maps run the unnormalized butterflies;
    ``_adjoint_weight``, the row weights halved where irfft counts a bin
    twice; and ``_mask``, the ``p + 2`` buffer that holds the product of the
    two weights at the row map and 0 elsewhere.
    """

    n: int
    p: int
    kind: str
    matrix: Optional[np.ndarray] = None
    levels: int = 0
    col_scale: Optional[np.ndarray] = None
    rfft_index: Optional[np.ndarray] = None
    rfft_weight: Optional[np.ndarray] = None
    seed: Optional[int] = field(default=None, compare=False)
    _scale: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)
    _adjoint_weight: Optional[np.ndarray] = field(default=None, init=False, repr=False,
                                                  compare=False)
    _mask: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)
    _gram: Optional[Tuple[np.ndarray, ...]] = field(default=None, init=False, repr=False,
                                                    compare=False)

    def __post_init__(self) -> None:
        if self.kind == "dense":
            return
        index, weight = self.rfft_index, self.rfft_weight
        # irfft counts each bin between DC and Nyquist twice.
        adjoint_weight = np.where((2 <= index) & (index < self.p), 0.5, 1.0) * weight
        mask = np.zeros(self.p + 2)
        mask[index] = adjoint_weight * weight
        scale = _haar_norms(self.p, self.levels) / self.col_scale
        for name, a in (("_scale", scale), ("_adjoint_weight", adjoint_weight), ("_mask", mask)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

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
                support = np.flatnonzero(x != 0)
                return self.matrix[:, support] @ x[support]
            return self.matrix @ x
        return self.rfft_weight * self._analysis(x)[self.rfft_index]

    def apply_adjoint(self, r: np.ndarray) -> np.ndarray:
        """Adjoint map ``r -> Psi^t r``; counts as one matvec."""
        r = np.asarray(r, dtype=np.float64)
        if r.shape != (self.n,):
            raise ValueError(f"expected residual of length {self.n}, got shape {r.shape}")
        if self.kind == "dense":
            return self.matrix.T @ r
        buffer = np.zeros(self.p + 2)
        buffer[self.rfft_index] = self._adjoint_weight * r
        return self._synthesis(buffer)

    def cached_route(self, y: np.ndarray) -> Tuple[np.ndarray, Callable]:
        """``(c, step)`` by the route rule (module docstring): ``c = Psi^t y``
        costs one adjoint, and ``step(x, r)`` is ``x + Psi^t (y - Psi x)``,
        where ``r``, when given, is the residual ``y - Psi x``."""
        c = self.apply_adjoint(y)
        two_matvec = lambda x, r: x + self.apply_adjoint(y - self.apply(x) if r is None else r)
        if self.kind != "dense":
            return c, lambda x, r: self._gram_step(x, c) if r is None else two_matvec(x, r)
        if self.n * self.p < GRAM_MIN_SIZE:
            return c, two_matvec
        return c, _GramRows(self, c, two_matvec).step

    @property
    def gram(self) -> Optional[Tuple[np.ndarray, ...]]:
        """The Gram triangle (module docstring), or None for an operator that
        has none: read-only blocks, block ``b`` being ``matrix[:, lo:lo +
        GRAM_BLOCK].T @ matrix[:, lo:]`` with ``lo = b * GRAM_BLOCK``. The first
        read sets ``_gram`` without a lock: a race builds it twice at worst."""
        if (self._gram is None and self.kind == "dense" and self.n * self.p >= GRAM_MIN_SIZE
                and self.p <= 2 * self.n):
            object.__setattr__(self, "_gram", _gram_triangle(self.matrix))
        return self._gram

    def _analysis(self, x: np.ndarray) -> np.ndarray:
        """The ``p + 2`` buffer of ``rfft(H^t(_scale * x))``, ``H`` the butterflies."""
        return np.fft.rfft(_butterflies_t(self._scale * x, self.levels)).view(np.float64)

    def _synthesis(self, buffer: np.ndarray) -> np.ndarray:
        """``_scale * H(irfft(buffer))`` of a ``p + 2`` buffer: :meth:`_analysis`
        transposed, once weights halve each bin that irfft counts twice."""
        v = np.fft.irfft(buffer.view(np.complex128), n=self.p, norm="forward")
        out = _butterflies(v, self.levels)
        out *= self._scale
        return out

    def _gram_step(self, x: np.ndarray, c: np.ndarray) -> np.ndarray:
        """``x + (c - Psi^t Psi x)``: the analysis buffer times ``_mask``,
        synthesized, with no gather, scatter or vector of length n."""
        buffer = self._analysis(x)
        buffer *= self._mask
        out = self._synthesis(buffer)
        np.subtract(c, out, out=out)
        out += x
        return out

    def densify(self) -> np.ndarray:
        """Materialize the operator as an ``n x p`` array (diagnostics only);
        a dense operator returns its read-only matrix itself."""
        if self.kind == "dense":
            return self.matrix
        cols = np.empty((self.n, self.p), order="F")
        e = np.zeros(self.p)
        for j in range(self.p):
            e[j] = 1.0
            cols[:, j] = self.apply(e)
            e[j] = 0.0
        return cols


class _GramRows:
    """Per-solve cache of the dense cached route: ``c = Psi^t y`` and the Gram
    rows ``G[j] = Psi^t psi_j`` of the columns that have entered the support,
    in the order they entered, at most ``n // 4`` of them, allocated at the
    first step (so a solve refused before it allocates none). ``two_matvec``
    is the route's step for a support that would take the cache past them."""

    def __init__(self, op: SensingOperator, c: np.ndarray, two_matvec: Callable):
        self.op, self.c, self.two_matvec = op, c, two_matvec
        self.rows, self.size = None, 0
        self.cols = np.empty(min(op.n // 4, op.p), dtype=np.intp)
        self.cached = np.zeros(op.p, dtype=bool)

    def step(self, x: np.ndarray, r: Optional[np.ndarray]) -> np.ndarray:
        """``x + Psi^t (y - Psi x)``: by the cached rows, or by two matvecs
        when the support of ``x`` would take the cache past its rows."""
        support = np.flatnonzero(x != 0)
        new = support[~self.cached[support]]
        k = self.size
        if k + new.size > len(self.cols):
            return self.two_matvec(x, r)
        if self.rows is None:
            self.rows = np.empty((len(self.cols), self.op.p))
        for j in new:
            self._row(j, self.rows[k])
            self.cols[k] = j
            k += 1
        self.cached[new] = True
        self.size = k
        return x + (self.c - x[self.cols[:k]] @ self.rows[:k])

    def _row(self, j: int, out: np.ndarray) -> None:
        """``G[j]`` into ``out``: one gemv, or from the operator's triangle the
        column ``j`` of each block above row ``j``'s and the row's own tail."""
        gram = self.op.gram
        if gram is None:
            np.matmul(self.op.matrix.T, self.op.matrix[:, j], out=out)
            return
        b, i = divmod(j, GRAM_BLOCK)
        for above in range(b):
            lo = above * GRAM_BLOCK
            out[lo : lo + GRAM_BLOCK] = gram[above][:, j - lo]
        out[b * GRAM_BLOCK :] = gram[b][i]


def _gram_triangle(matrix: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The read-only blocks of :attr:`SensingOperator.gram` for ``matrix``."""
    p = matrix.shape[1]
    blocks = tuple(matrix[:, lo : lo + GRAM_BLOCK].T @ matrix[:, lo:]
                   for lo in range(0, p, GRAM_BLOCK))
    for block in blocks:
        block.setflags(write=False)
    return blocks


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


def normalize_columns(raw: Union[np.ndarray, Callable[[int, np.ndarray], None]],
                      shape: Optional[Tuple[int, int]] = None) -> SensingOperator:
    """Build a generated matrix's operator: ``raw``'s rows, copied once into a
    read-only column-major buffer, divided in place by its column norms.

    ``raw`` is the ``n x p`` array, which is not changed, or, given ``shape``,
    a function ``raw(lo, out)`` that fills the C-order block ``out`` with the
    rows from ``lo`` on, called top to bottom. Rows come :data:`ROW_BLOCK` at
    a time, so a drawn matrix never exists in C order in full. The squared
    norms accumulate row by row, as ``np.linalg.norm(raw, axis=0)`` sums a
    C-order array, so a C-order ``raw`` and a function that draws its rows
    build the same bytes. A column whose norm is 0 or not finite is a
    ValueError."""
    fill = raw
    if shape is None:
        whole = np.asarray(raw, dtype=np.float64)
        shape = whole.shape
        fill = lambda lo, out: np.copyto(out, whole[lo : lo + len(out)])
    n, p = shape
    mat = np.empty((n, p), order="F")
    # Row 0 carries the squared norms of the rows above the block in rows 1 on.
    buf = np.zeros((min(ROW_BLOCK, n) + 1, p))
    # Refuses NaN, infinite and overflowing (above about 1e154) entries, warning-free.
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, ROW_BLOCK):
            block = buf[1 : 1 + min(ROW_BLOCK, n - lo)]
            fill(lo, block)
            mat[lo : lo + len(block)] = block
            np.multiply(block, block, out=block)
            buf[0] = np.add.reduce(buf[: 1 + len(block)], axis=0)
        scales = np.sqrt(buf[0])
    bad = np.flatnonzero((scales == 0.0) | ~np.isfinite(scales))
    if bad.size:
        j = int(bad[0])
        raise ValueError(f"column {j} is the zero vector" if scales[j] == 0.0 else
                         f"column {j} has norm {scales[j]}: NaN, infinite or overflowing entries")
    mat /= scales
    mat.setflags(write=False)
    return SensingOperator(n=n, p=p, kind="dense", matrix=mat)


def mutual_coherence(op: SensingOperator) -> float:
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
    gram = mat.T @ mat
    np.abs(gram, out=gram)
    np.fill_diagonal(gram, -1.0)
    return float(min(gram.max(), 1.0))


def make_partial_fft_haar(p: int, n: int, levels: int, seed: int) -> SensingOperator:
    """Compose row-subsampled real DFT with an inverse Haar transform.

    The map is ``x -> S F W^{-1} (x / d)`` where ``W^{-1}`` is the inverse
    orthonormal Haar transform at the given depth, ``F`` the real unitary
    DFT, ``S`` a seeded uniform-without-replacement selection of ``n`` of
    the ``p`` rows of ``F``, and ``d`` the vector of column norms of the
    unscaled composition, so every column of the result is unit-norm.
    ``p`` must be a power of two.

    ``F`` is never formed: ``S F v`` reads ``C = rfft(v).view(float64)``,
    the ``p + 2`` real and imaginary parts of the half spectrum, through
    the operator's row map. DC (row 0) is ``C[0] / sqrt(p)``; cos row ``k``
    in ``1 .. p/2-1`` is ``sqrt(2/p) C[2k]``; Nyquist (row ``p/2``) is
    ``C[p] / sqrt(p)``; sin row ``p/2 + k`` is ``-sqrt(2/p) C[2k+1]``.

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
    check_fft_haar_sizes(p, n, levels)
    rng = np.random.default_rng(seed)
    rows = np.sort(rng.choice(p, size=n, replace=False))
    index, weight = _row_map(p, rows)
    for a in (index, weight):
        a.setflags(write=False)

    sq = _column_energy(p, index, weight, levels)
    zero = np.flatnonzero(sq == 0.0)
    if zero.size:
        raise ValueError(f"column {int(zero[0])} is the zero vector after row selection")
    col_scale = np.sqrt(sq)
    col_scale.setflags(write=False)
    return SensingOperator(
        n=n,
        p=p,
        kind="partial-fft-haar",
        levels=levels,
        col_scale=col_scale,
        rfft_index=index,
        rfft_weight=weight,
        seed=seed,
    )


def check_fft_haar_sizes(p: int, n: int, levels: int) -> None:
    """Raise the ValueError :func:`make_partial_fft_haar` raises for these sizes."""
    if p < 2 or (p & (p - 1)) != 0:
        raise ValueError(f"signal length must be a power of two, got {p}")
    if not 1 <= n <= p:
        raise ValueError(f"row count must satisfy 1 <= n <= {p}, got {n}")
    _check_haar_dims(p, levels)


def _row_map(p: int, rows: np.ndarray) -> tuple:
    """The positions in ``rfft(v).view(float64)`` and the weights of the
    selected rows of ``F`` (the table in :func:`make_partial_fft_haar`)."""
    half = p // 2
    sine = rows > half
    index = np.where(sine, 2 * (rows - half) + 1, 2 * rows)
    weight = np.where(sine, -math.sqrt(2.0 / p), math.sqrt(2.0 / p))
    weight[(rows == 0) | (rows == half)] = 1.0 / math.sqrt(p)
    return index, weight


def _column_energy(p: int, index: np.ndarray, weight: np.ndarray, levels: int) -> np.ndarray:
    """Squared column norms of ``S F W^{-1}``, by the closed form in
    :func:`make_partial_fft_haar`, for the row map ``(index, weight)``.

    Each selected cos or sin row gives an atom at least ``2 sin^2(pi/p)``
    times that row's share of its block's constant, so FFT roundoff (about
    ``1e-16 log2 p`` of the constant) cannot make a nonzero column negative
    for any ``p`` below 2**24.
    """
    # DC and Nyquist sit at 0 and p; every row reads frequency index // 2,
    # and the weight's sign tells cos rows from sin rows.
    edge = index % p == 0
    ends = index[edge] // 2
    freq = index[~edge] // 2
    sign = np.sign(weight[~edge])
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
