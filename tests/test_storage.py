import numpy as np
import pytest

from ishtc.linop import make_partial_fft_haar, normalize_columns
from ishtc.storage import MAGIC, operator_from_config, read_array, write_array


def test_vector_round_trip(tmp_path):
    v = np.random.default_rng(0).standard_normal(17)
    path = tmp_path / "v.bin"
    write_array(path, v)
    back = read_array(path)
    assert back.ndim == 1
    np.testing.assert_array_equal(back, v)


def test_matrix_round_trip(tmp_path):
    m = np.asfortranarray(np.random.default_rng(1).standard_normal((5, 9)))
    path = tmp_path / "m.bin"
    write_array(path, m)
    back = read_array(path)
    assert back.shape == (5, 9)
    np.testing.assert_array_equal(back, m)


def test_header_layout(tmp_path):
    """16-byte header: magic, u32 rows, u32 cols, then column-major f8."""
    path = tmp_path / "h.bin"
    write_array(path, np.array([[1.0, 3.0], [2.0, 4.0]]))
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    assert int.from_bytes(raw[4:8], "little") == 2
    assert int.from_bytes(raw[8:12], "little") == 2
    assert np.frombuffer(raw[16:], dtype="<f8").tolist() == [1.0, 2.0, 3.0, 4.0]


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + bytes(12) + np.zeros(1).tobytes())
    with pytest.raises(ValueError):
        read_array(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "t.bin"
    write_array(path, np.arange(4.0))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError):
        read_array(path)


def test_dense_operator_config_round_trip(tmp_path):
    op, _ = normalize_columns(np.random.default_rng(2).standard_normal((6, 11)))
    cfg = op.config()
    assert cfg["kind"] == "dense"
    mat_path = tmp_path / "matrix.bin"
    write_array(mat_path, np.asarray(op.matrix))
    back = operator_from_config(cfg, matrix_path=mat_path)
    np.testing.assert_array_equal(back.matrix, op.matrix)


def test_fft_haar_config_round_trip():
    op = make_partial_fft_haar(128, 60, levels=2, seed=33)
    back = operator_from_config(op.config())
    assert (back.n, back.p, back.levels, back.seed) == (60, 128, 2, 33)
    x = np.random.default_rng(3).standard_normal(128)
    np.testing.assert_array_equal(back.apply(x), op.apply(x))
