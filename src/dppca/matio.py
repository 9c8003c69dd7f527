"""Matrix files: numpy's `.npy` format holding one C-order, native float64
n x d array with n, d >= 1, as `np.save` writes a `DenseMatrix`'s data.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
from numpy.lib import format as npy

from .errors import FormatError
from .matcore import DenseMatrix

_READ_HEADER = {(1, 0): npy.read_array_header_1_0, (2, 0): npy.read_array_header_2_0}


def save_npy(a: DenseMatrix, path: str | Path) -> None:
    with open(path, "wb") as fh:  # an open file: np.save appends no suffix
        np.save(fh, a.data)


def load_npy(path: str | Path) -> DenseMatrix:
    """Every check runs on the header and the file size, before the payload is read."""
    with open(path, "rb") as fh:
        try:
            version = npy.read_magic(fh)
            if version not in _READ_HEADER:
                raise ValueError(f"format version {version}")
            shape, fortran, dtype = _READ_HEADER[version](fh)
        except ValueError as exc:  # a short or wrong magic, a malformed header
            raise FormatError(f"{path}: no .npy 1.0 or 2.0 header ({exc})") from None
        if fortran or dtype != np.float64 or len(shape) != 2 or min(shape) < 1:
            raise FormatError(f"{path}: holds {'Fortran' if fortran else 'C'}-order "
                              f"{dtype.str} of shape {shape}, not a C-order native "
                              "float64 matrix with n, d >= 1")
        n, d = shape
        size, left = n * d * 8, os.fstat(fh.fileno()).st_size - fh.tell()
        if left != size:
            raise FormatError(
                f"{path}: payload is {left} bytes, expected {size} for n={n}, d={d}")
        data = np.fromfile(fh, dtype=np.float64, count=n * d).reshape(n, d)
    return DenseMatrix(data)
