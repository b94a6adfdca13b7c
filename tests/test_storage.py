import numpy as np
import pytest

from ishtc.storage import MAGIC, read_array, write_array, write_csv


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


def test_csv_cells(tmp_path):
    """Strings as they are, integers in decimal, other numbers as float repr."""
    path = tmp_path / "t.csv"
    write_csv(path, "a,b,c,d,e", [("x", 3, np.int64(7), np.float64(0.1), 2.0),
                                  ("", -1, np.int64(0), np.float64("nan"), 1e-300)])
    assert path.read_text() == "a,b,c,d,e\nx,3,7,0.1,2.0\n,-1,0,nan,1e-300\n"


def test_header_layout(tmp_path):
    """16-byte header: magic, u32 rows, u32 cols, then column-major f8."""
    path = tmp_path / "h.bin"
    write_array(path, np.array([[1.0, 3.0], [2.0, 4.0]]))
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    assert int.from_bytes(raw[4:8], "little") == 2
    assert int.from_bytes(raw[8:12], "little") == 2
    assert np.frombuffer(raw[16:], dtype="<f8").tolist() == [1.0, 2.0, 3.0, 4.0]


def test_three_dimensional_array_rejected(tmp_path):
    with pytest.raises(ValueError, match="ndim=3"):
        write_array(tmp_path / "a.bin", np.zeros((2, 2, 2)))


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

