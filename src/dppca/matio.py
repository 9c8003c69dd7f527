"""Matrix serialization: the DPM1 binary format.

DPM1 layout (little-endian throughout):

    offset 0   4 bytes   magic b"DPM1"
    offset 4   u16       format version, currently 1
    offset 6   u64       n (rows)
    offset 14  u64       d (columns)
    offset 22  n*d*8     float64 payload, row-major
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError
from .matcore import DenseMatrix

MAGIC = b"DPM1"
VERSION = 1
_HEADER = struct.Struct("<4sHQQ")


def save_dpm(a: DenseMatrix, path: str | Path) -> None:
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, a.n, a.d))
        # A view of the array's own bytes: no copy of the payload.
        fh.write(memoryview(np.ascontiguousarray(a.data, dtype="<f8")).cast("B"))


def load_dpm(path: str | Path) -> DenseMatrix:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise FormatError(f"{path}: truncated header")
        magic, version, n, d = _HEADER.unpack(header)
        if magic != MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        if n < 1 or d < 1:
            raise FormatError(f"{path}: degenerate shape ({n}, {d})")
        size = n * d * 8
        left = os.fstat(fh.fileno()).st_size - _HEADER.size
        if left < size:
            raise FormatError(
                f"{path}: payload is {left} bytes, expected {size} for n={n}, d={d}"
            )
        if left > size:
            raise FormatError(f"{path}: trailing bytes after payload")
        data = np.fromfile(fh, dtype="<f8", count=n * d).reshape(n, d)
    return DenseMatrix(data)
