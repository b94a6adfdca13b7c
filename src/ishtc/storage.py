"""Binary array files, JSON manifests and operator config round-tripping.

Array files carry a 16-byte header (magic ``ISHT``, u32 rows, u32 cols,
u32 reserved, all little-endian) followed by the float64 payload in
column-major order. Vectors are stored with ``cols == 1``. The format is
fixed-endian so files compare byte-for-byte across runs and machines.
Manifests are written with sorted keys for the same reason.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Union

import numpy as np

from .linop import SensingOperator, dense_operator, make_partial_fft_haar

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


def operator_from_config(cfg: dict, matrix_path: Union[str, Path, None] = None) -> SensingOperator:
    """Rebuild an operator from a manifest entry.

    Dense configs need ``matrix_path`` to supply the column-normalized
    matrix; the implicit kind rebuilds from dimensions, depth, and seed.
    """
    kind = cfg.get("kind")
    if kind == "dense":
        if matrix_path is None:
            raise ValueError("dense operator config needs a matrix file")
        return dense_operator(read_array(matrix_path))
    if kind == "partial-fft-haar":
        return make_partial_fft_haar(
            p=int(cfg["p"]), n=int(cfg["n"]), levels=int(cfg["levels"]), seed=int(cfg["seed"])
        )
    raise ValueError(f"unknown operator kind {kind!r}")
