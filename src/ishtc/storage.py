"""Binary array files, CSV tables and JSON manifests.

Array files carry a 16-byte header (magic ``ISHT``, u32 rows, u32 cols,
u32 reserved, all little-endian) followed by the float64 payload in
column-major order. Vectors are stored with ``cols == 1``. The format is
fixed-endian, manifests are written with sorted keys and CSV floats with
round-trip ``repr``, so the bytes of an output depend only on the values in
it. Those values are identical across runs and worker counts on one host
with one numpy/BLAS build and one thread setting, but not across them: a
threaded BLAS product can change the last bits.
"""

from __future__ import annotations

import json
import numbers
import struct
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

MAGIC = b"ISHT"
_HEADER = struct.Struct("<4sIII")


def write_array(path: Union[str, Path], arr: np.ndarray) -> None:
    """Write a 1-D or 2-D float64 array; vectors become single-column files."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"expected 1-D or 2-D array, got ndim={arr.ndim}")
    rows, cols = arr.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, rows, cols, 0))
        fh.write(np.asfortranarray(arr).astype("<f8").tobytes(order="F"))


def read_array(path: Union[str, Path]) -> np.ndarray:
    """Read an array file; single-column files come back as 1-D vectors."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, rows, cols, _reserved = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        payload = fh.read()
    expected = rows * cols * 8
    if len(payload) != expected:
        raise ValueError(f"{path}: payload is {len(payload)} bytes, expected {expected}")
    data = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    mat = data.reshape((rows, cols), order="F")
    return mat[:, 0] if cols == 1 else mat


def write_manifest(path: Union[str, Path], payload: dict) -> None:
    """Write a JSON manifest: 2-space indent, sorted keys, trailing newline."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_csv(path: Union[str, Path], header: str, rows: Iterable[Sequence]) -> None:
    """Write a header line and one comma-separated line per row: strings as
    they are, integers in decimal, any other number as the round-trip
    ``repr`` of its float, so identical runs give identical bytes."""

    def cell(v) -> str:
        if isinstance(v, str):
            return v
        return str(int(v)) if isinstance(v, numbers.Integral) else repr(float(v))

    lines = [header, *(",".join(map(cell, row)) for row in rows)]
    Path(path).write_text("\n".join(lines) + "\n")
