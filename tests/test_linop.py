import dataclasses
import functools
import itertools
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ishtc.linop import (
    COHERENCE_BUDGET_P,
    GRAM_BLOCK,
    GRAM_MIN_SIZE,
    ROW_BLOCK,
    RESTRICTED_MIN_SIZE,
    SensingOperator,
    _column_energy,
    _GramRows,
    _row_map,
    dense_operator,
    haar_forward,
    haar_inverse,
    make_partial_fft_haar,
    mutual_coherence,
    normalize_columns,
)


def _random_unit_columns(n, p, seed):
    rng = np.random.default_rng(seed)
    return normalize_columns(rng.standard_normal((n, p)))


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


#: Dense sizes on both sides of the restricted-product size rule.
RULE_SIZES = [(40, 80), (127, 512), (128, 512), (200, 1000)]


@functools.lru_cache(maxsize=None)
def _rule_operator(n, p):
    return _random_unit_columns(n, p, seed=n + p)


def _sparse_signal(p, k, seed):
    """k nonzeros at random places, magnitudes over six decades."""
    rng = np.random.default_rng(seed)
    x = np.zeros(p)
    x[rng.choice(p, size=k, replace=False)] = rng.standard_normal(k) * 10.0 ** rng.uniform(-3, 3, k)
    return x


@settings(max_examples=80, deadline=None)
@given(size=st.sampled_from(RULE_SIZES), frac=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
@example(size=(200, 1000), frac=0.0, seed=0)
@example(size=(200, 1000), frac=0.124, seed=1)
@example(size=(200, 1000), frac=0.125, seed=2)
@example(size=(200, 1000), frac=1.0, seed=3)
@example(size=(40, 80), frac=0.0, seed=4)
@example(size=(40, 80), frac=1.0, seed=5)
def test_dense_apply_agrees_with_the_full_product(size, frac, seed):
    """Whichever route it takes, dense apply is ``matrix @ x`` to 1e-12 of
    ``|matrix| @ |x|``, the scale of the summation error; zero gives zero."""
    n, p = size
    op = _rule_operator(n, p)
    x = _sparse_signal(p, round(frac * p), seed)
    err = np.abs(op.apply(x) - op.matrix @ x)
    assert np.all(err <= 1e-12 * (np.abs(op.matrix) @ np.abs(x)))


def test_dense_apply_restricts_small_supports_of_large_operators():
    """At 200x1000 a support below p/8 takes ``matrix[:, S] @ x[S]`` bit for
    bit, and a larger one the full product."""
    op = _rule_operator(200, 1000)
    assert op.n * op.p >= RESTRICTED_MIN_SIZE
    for k in (0, 1, 5, 40, 124):
        x = _sparse_signal(op.p, k, seed=k)
        support = np.flatnonzero(x)
        assert op.apply(x).tobytes() == (op.matrix[:, support] @ x[support]).tobytes()
    for k in (125, 500, 1000):
        x = _sparse_signal(op.p, k, seed=k)
        assert op.apply(x).tobytes() == (op.matrix @ x).tobytes()


def test_dimension_mismatch_errors_above_the_size_rule():
    op = _rule_operator(200, 1000)
    for bad in (np.zeros(200), np.zeros(1001), np.zeros((1000, 1))):
        with pytest.raises(ValueError):
            op.apply(bad)
    with pytest.raises(ValueError):
        op.apply_adjoint(np.zeros(1000))


def test_dense_apply_is_the_full_product_on_small_operators():
    op = _rule_operator(40, 80)
    assert op.n * op.p < RESTRICTED_MIN_SIZE
    for k in (0, 1, 5, 80):
        x = _sparse_signal(op.p, k, seed=k)
        assert op.apply(x).tobytes() == (op.matrix @ x).tobytes()


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
    assert mutual_coherence(dense_operator(np.eye(4))) == 0.0


def test_coherence_coincident_columns_one():
    c = np.array([0.6, 0.8])
    op = dense_operator(np.column_stack([c, c]))
    assert mutual_coherence(op) == pytest.approx(1.0, abs=1e-12)


def test_coherence_exhaustive_pair_oracle():
    """Coherence equals a brute-force double loop over all 780 pairs."""
    op = _random_unit_columns(20, 40, seed=7)
    best = -1.0
    for i in range(40):
        for j in range(i + 1, 40):
            best = max(best, abs(float(op.matrix[:, i] @ op.matrix[:, j])))
    mu = mutual_coherence(op)
    assert mu == pytest.approx(best, abs=1e-14)
    assert 0.0 <= mu <= 1.0


def test_coherence_of_a_dense_operator_reads_its_matrix_in_place():
    """densify() of a dense operator is its read-only matrix, not a copy, and
    coherence is the largest off-diagonal entry of ``|A'A|`` bit for bit."""
    op = _random_unit_columns(30, 60, seed=17)
    assert np.shares_memory(op.densify(), op.matrix) and not op.densify().flags.writeable
    gram = np.abs(op.matrix.T @ op.matrix)
    np.fill_diagonal(gram, -1.0)
    assert mutual_coherence(op) == float(gram.max())


def test_coherence_budget_error():
    op = make_partial_fft_haar(2 * COHERENCE_BUDGET_P, 16, levels=1, seed=0)
    with pytest.raises(ValueError, match="over budget"):
        mutual_coherence(op)


def test_coherence_single_column_error():
    # One column has no pair; fill_diagonal(-1) would otherwise report mu = -1.
    with pytest.raises(ValueError, match="at least 2 columns"):
        mutual_coherence(_random_unit_columns(5, 1, seed=0))


def test_normalize_columns_example():
    op = normalize_columns(np.array([[3.0], [4.0]]))
    np.testing.assert_allclose(op.matrix[:, 0], [0.6, 0.8], atol=1e-15)


def test_normalize_columns_idempotent():
    raw = np.array([[0.6, 0.0], [0.8, 1.0]])
    op = normalize_columns(raw)
    np.testing.assert_allclose(op.matrix, raw, atol=1e-15)


def test_normalize_columns_random_norms():
    op = normalize_columns(np.random.default_rng(8).standard_normal((30, 70)))
    norms = np.linalg.norm(op.matrix, axis=0)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12


@pytest.mark.parametrize("order,writeable", [("C", True), ("F", True), ("F", False)])
def test_normalize_columns_leaves_its_input_unchanged(order, writeable):
    raw = np.array(np.random.default_rng(10).standard_normal((6, 9)), order=order)
    raw.setflags(write=writeable)
    before = raw.copy(order="A")
    op = normalize_columns(raw)
    np.testing.assert_array_equal(raw, before)
    assert raw.flags.writeable == writeable
    assert not np.shares_memory(op.matrix, raw)
    assert op.matrix.flags.f_contiguous and not op.matrix.flags.writeable


def test_normalize_columns_from_row_blocks_matches_the_array():
    """Rows filled ROW_BLOCK at a time build the bytes of the C-order array,
    whose norms are ``np.linalg.norm(raw, axis=0)`` bit for bit, with the
    fill called once per block, top to bottom."""
    n, p = 2 * ROW_BLOCK + 3, 41
    raw = np.random.default_rng(11).standard_normal((n, p))
    want = raw / np.linalg.norm(raw, axis=0)
    starts = []

    def fill(lo, out):
        starts.append(lo)
        out[...] = raw[lo : lo + len(out)]

    for op in (normalize_columns(raw), normalize_columns(fill, shape=(n, p))):
        assert op.matrix.tobytes(order="F") == np.asfortranarray(want).tobytes(order="F")
        assert op.matrix.flags.f_contiguous and not op.matrix.flags.writeable
    assert starts == [0, ROW_BLOCK, 2 * ROW_BLOCK]


@pytest.mark.parametrize("entry", [0.0, 1e200], ids=["zero", "overflowing"])
def test_normalize_columns_from_row_blocks_keeps_its_errors(entry):
    """A zero or overflowing column drawn in blocks is the array's error."""
    def fill(lo, out):
        out[...] = 1.0
        out[:, 2] = entry

    with pytest.raises(ValueError, match="column 2 (is the zero vector|has norm inf)"):
        normalize_columns(fill, shape=(ROW_BLOCK + 1, 4))


def test_normalize_zero_column_error_names_index():
    raw = np.ones((4, 3))
    raw[:, 2] = 0.0
    with pytest.raises(ValueError, match="2"):
        normalize_columns(raw)


@pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan, 1e200],
                         ids=["inf", "-inf", "nan", "1e200"])
def test_normalize_non_finite_column_norm_error_names_index(entry):
    """A column whose norm is infinite, NaN or overflows is refused, warning-free."""
    raw = np.ones((4, 3))
    raw[1, 1] = entry
    with pytest.raises(ValueError, match="column 1 has norm (inf|nan): NaN, infinite"):
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


def _explicit_partial_fft_haar(p, rows, levels):
    """Oracle: ``S F W^{-1}`` with ``F``'s rows written out from np.cos and
    np.sin (DC, cos k = 1 .. p/2-1, Nyquist, sin k = 1 .. p/2-1) and the
    columns of ``W^{-1}`` written out as Haar atoms in haar_forward's layout."""
    j = np.arange(p)
    k = np.arange(1, p // 2)[:, None]
    dft = np.vstack([
        np.full(p, 1.0 / np.sqrt(p)),
        np.sqrt(2.0 / p) * np.cos(2 * np.pi * k * j / p),
        (-1.0) ** j / np.sqrt(p),
        np.sqrt(2.0 / p) * np.sin(2 * np.pi * k * j / p),
    ])
    atoms = []
    for lev, detail in [(levels, False)] + [(lev, True) for lev in range(levels, 0, -1)]:
        step = 1 << lev
        g = np.zeros(p)
        g[:step] = 1.0 / np.sqrt(step)
        if detail:
            g[step // 2 : step] *= -1.0
        atoms += [np.roll(g, m * step) for m in range(p // step)]
    return dft[rows] @ np.column_stack(atoms)


@pytest.mark.parametrize("p, n, levels, need", [(64, 40, 2, ()), (8, 5, 2, (0, 4))],
                         ids=["64x40", "8x5-dc-nyquist"])
def test_partial_fft_haar_matches_explicit_rows(p, n, levels, need):
    """apply, apply_adjoint and col_scale agree to 1e-12 with ``S F W^{-1} D^{-1}``
    built from explicit rows; at p=8 the draw holds both DC and Nyquist."""
    seed = next(s for s in itertools.count(14) if set(need) <= set(_drawn_rows(p, n, s)))
    op = make_partial_fft_haar(p, n, levels, seed=seed)
    unscaled = _explicit_partial_fft_haar(p, _drawn_rows(p, n, seed), levels)
    norms = np.linalg.norm(unscaled, axis=0)
    np.testing.assert_allclose(op.col_scale, norms, rtol=0, atol=1e-12)
    dense = unscaled / norms
    rng = np.random.default_rng(15)
    for _ in range(5):
        x = rng.standard_normal(p)
        r = rng.standard_normal(n)
        np.testing.assert_allclose(op.apply(x), dense @ x, rtol=0, atol=1e-12)
        np.testing.assert_allclose(op.apply_adjoint(r), dense.T @ r, rtol=0, atol=1e-12)


def test_partial_fft_haar_full_selection_orthonormal():
    """With every row kept the composition has orthonormal columns."""
    op = make_partial_fft_haar(8, 8, levels=1, seed=12)
    gram = op.densify().T @ op.densify()
    assert np.max(np.abs(gram - np.eye(8))) <= 1e-12
    assert mutual_coherence(op) <= 1e-12


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


@pytest.mark.parametrize("p, n, levels", [(8, 6, 3), (64, 40, 1), (64, 40, 2), (64, 48, 6),
                                          (2048, 1330, 2), (2048, 1500, 11)])
def test_gram_step_is_the_two_matvec_step(p, n, levels):
    """The normal product in the rfft buffer gives ``x + c - Psi^t Psi x``
    to 1e-12, also at the depths where ``p >> levels == 1``."""
    op = make_partial_fft_haar(p, n, levels, seed=p + levels)
    rng = np.random.default_rng(p)
    for _ in range(3):
        x, c = rng.standard_normal(p), rng.standard_normal(p)
        want = x + (c - op.apply_adjoint(op.apply(x)))
        np.testing.assert_allclose(op._gram_step(x, c), want, rtol=0, atol=1e-12)


def test_cached_route_rule():
    """A dense operator just below GRAM_MIN_SIZE has no route; one at it gets
    the Gram-row step, whose rows wait for the first step, and which takes a
    step also when a residual is carried; a partial-FFT-Haar operator gets a
    step that returns None exactly when a residual is given. Each ``c`` is
    ``apply_adjoint(y)`` bit for bit."""
    rng = np.random.default_rng(3)
    n = 256
    below = normalize_columns(rng.standard_normal((n, GRAM_MIN_SIZE // n - 1)))
    assert below.cached_route(rng.standard_normal(n)) == (None, None)
    for op in (normalize_columns(rng.standard_normal((n, GRAM_MIN_SIZE // n))),
               make_partial_fft_haar(1024, 665, levels=2, seed=0)):
        y = rng.standard_normal(op.n)
        c, step = op.cached_route(y)
        assert c.tobytes() == op.apply_adjoint(y).tobytes()
        x = np.zeros(op.p)
        x[rng.choice(op.p, 5, replace=False)] = rng.standard_normal(5)
        r = y - op.apply(x)
        want = x + op.apply_adjoint(r)
        if op.kind == "dense":
            assert step.__self__.rows is None
            np.testing.assert_allclose(step(x, r), want, rtol=0, atol=1e-12)
        else:
            assert step(x, r) is None
        np.testing.assert_allclose(step(x, None), want, rtol=0, atol=1e-12)


def test_gram_triangle_rows_match_the_gemv_rows():
    """Every row the triangle gives, on both sides of each block edge and
    at p not a multiple of GRAM_BLOCK, is ``A^t A[:, j]`` to a few ulps of
    the unit column norm, and lands where the gemv row would."""
    op = _random_unit_columns(400, 700, seed=12).with_gram()
    assert op.gram is not None and 700 % GRAM_BLOCK
    assert not any(block.flags.writeable for block in op.gram)
    rows = _GramRows(op.matrix, np.zeros(op.p), op.gram)
    got = np.empty(op.p)
    for j in range(op.p):
        rows._row(j, got)
        want = op.matrix.T @ op.matrix[:, j]
        np.testing.assert_allclose(got, want, rtol=0, atol=16 * np.finfo(float).eps, err_msg=j)


def test_gram_triangle_rule():
    """Only a dense operator at or above GRAM_MIN_SIZE with p <= 2n gets a
    triangle; one that has it, or any other, is returned as it is. The
    triangle changes neither the operator's fields nor its products."""
    rng = np.random.default_rng(4)
    n = 400
    at_edge = normalize_columns(rng.standard_normal((n, 2 * n)))
    with_gram = at_edge.with_gram()
    assert with_gram.gram is not None and at_edge.gram is None
    assert with_gram.matrix is at_edge.matrix and with_gram == at_edge
    assert with_gram.with_gram() is with_gram
    x = np.zeros(2 * n)
    x[:3] = 1.0
    assert with_gram.apply(x).tobytes() == at_edge.apply(x).tobytes()
    blocks = -(-2 * n // GRAM_BLOCK)
    assert len(with_gram.gram) == blocks
    assert sum(b.size for b in with_gram.gram) <= 2 * n * (n + GRAM_BLOCK)  # about the matrix
    for op in (normalize_columns(rng.standard_normal((n, 2 * n + 2))),
               normalize_columns(rng.standard_normal((256, 300))),  # below GRAM_MIN_SIZE
               make_partial_fft_haar(1024, 665, levels=2, seed=0)):
        assert op.with_gram() is op and op.gram is None


def test_derived_arrays_follow_a_replaced_column_scale():
    """``dataclasses.replace`` with new column scales derives new scales, so
    even a roundoff change of them moves the products' bits."""
    op = make_partial_fft_haar(1024, 665, levels=2, seed=0)
    bumped = dataclasses.replace(op, col_scale=op.col_scale * (1.0 + 1.2e-15))
    rng = np.random.default_rng(1)
    x, c, r = rng.standard_normal(1024), rng.standard_normal(1024), rng.standard_normal(665)
    assert bumped._gram_step(x, c).tobytes() != op._gram_step(x, c).tobytes()
    assert bumped.apply(x).tobytes() != op.apply(x).tobytes()
    assert bumped.apply_adjoint(r).tobytes() != op.apply_adjoint(r).tobytes()
    np.testing.assert_allclose(bumped._gram_step(x, c), op._gram_step(x, c), rtol=0, atol=1e-12)


def _real_dft_adjoint(u):
    """``F^t u`` for the real unitary DFT ``F`` (rows DC, cos, Nyquist, sin), by irfft."""
    p = u.size
    half = p // 2
    scale = np.sqrt(p) / np.sqrt(2.0)
    c = np.empty(half + 1, dtype=np.complex128)
    c[0] = u[0] * np.sqrt(p)
    c[half] = u[half] * np.sqrt(p)
    c[1:half] = scale * (u[1:half] - 1j * u[half + 1 :])
    return np.fft.irfft(c, n=p)


def _loop_column_energy(p, rows, levels):
    """Oracle: squared column norms summed over one adjoint row at a time,
    O(n p log p)."""
    sq = np.zeros(p)
    unit = np.zeros(p)
    for k in rows:
        unit[k] = 1.0
        sq += haar_forward(_real_dft_adjoint(unit), levels) ** 2
        unit[k] = 0.0
    return sq


def _drawn_rows(p, n, seed):
    """The rows make_partial_fft_haar selects for this seed."""
    return np.sort(np.random.default_rng(seed).choice(p, size=n, replace=False))


@pytest.mark.parametrize(
    "p, levels",
    [(p, lev) for p in (8, 64, 256, 1024, 4096) for lev in range(1, 5) if p % (1 << lev) == 0],
)
def test_column_energy_matches_row_loop(p, levels):
    """The closed form agrees with the row loop to 1e-13 of the largest column
    energy and has the same exactly-zero columns; the build raises exactly when
    there is one. (Per column, low-energy columns at n=1 lose digits to
    cancellation, so the gate is on the largest energy.)"""
    for n in sorted({1, 2, 3, p // 8, p // 3, p // 2, p - 1, p}):
        seed = 7 * p + n
        rows = _drawn_rows(p, n, seed)
        expected = _loop_column_energy(p, rows, levels)
        sq = _column_energy(p, *_row_map(p, rows), levels)
        assert np.max(np.abs(sq - expected)) <= 1e-13 * np.max(expected), n
        np.testing.assert_array_equal(sq == 0.0, expected == 0.0, err_msg=f"n={n}")
        zero = np.flatnonzero(expected == 0.0)
        if zero.size:
            with pytest.raises(ValueError, match=f"column {zero[0]} is the zero vector"):
                make_partial_fft_haar(p, n, levels, seed=seed)
        else:
            op = make_partial_fft_haar(p, n, levels, seed=seed)
            index, weight = _row_map(p, rows)
            np.testing.assert_array_equal(op.rfft_index, index)
            np.testing.assert_array_equal(op.rfft_weight, weight)
            np.testing.assert_array_equal(op.col_scale, np.sqrt(sq))


@pytest.mark.parametrize("levels", [1, 2, 3])
@pytest.mark.parametrize("p", [8, 64])
@pytest.mark.parametrize("ends", [(0,), (1,), (0, 1)], ids=["dc", "nyquist", "dc+nyquist"])
def test_dc_and_nyquist_selections(ends, p, levels):
    """Detail atoms have zero mean and the alternating Nyquist row cancels on
    every atom coarser than the finest detail, so these selections leave a zero
    column, except {DC, Nyquist} at depth 1, which covers every atom."""
    selected = [e * p // 2 for e in ends]
    seed = next(s for s in itertools.count() if _drawn_rows(p, len(ends), s).tolist() == selected)
    if ends == (0, 1) and levels == 1:
        op = make_partial_fft_haar(p, len(ends), levels, seed=seed)
        assert np.max(np.abs(np.linalg.norm(op.densify(), axis=0) - 1.0)) <= 1e-12
    else:
        with pytest.raises(ValueError, match="zero vector after row selection"):
            make_partial_fft_haar(p, len(ends), levels, seed=seed)


def test_partial_fft_haar_builds_at_p_2_16():
    """The closed form builds p = 2**16 well inside 2 s (the row loop took
    about 100 s); probed columns have unit norm."""
    start = time.perf_counter()
    op = make_partial_fft_haar(2**16, 2**15, levels=3, seed=0)
    assert time.perf_counter() - start <= 2.0
    e = np.zeros(op.p)
    for j in np.random.default_rng(0).choice(op.p, size=64, replace=False):
        e[j] = 1.0
        assert abs(np.linalg.norm(op.apply(e)) - 1.0) <= 1e-12
        e[j] = 0.0


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
    with pytest.raises(ValueError, match="dimensions"):
        dense_operator(np.zeros((0, 3)))


def test_operator_matrix_readonly():
    op = _random_unit_columns(4, 6, seed=16)
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 7.0
