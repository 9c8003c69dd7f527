"""Matrix serialization: the DPM1 binary format and plain CSV.

DPM1 layout (little-endian throughout):

    offset 0   4 bytes   magic b"DPM1"
    offset 4   u16       format version, currently 1
    offset 6   u64       n (rows)
    offset 14  u64       d (columns)
    offset 22  n*d*8     float64 payload, row-major

CSV files are headerless, one row per line, parsed as float64.
"""

from __future__ import annotations

import io
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


def save_csv(a: DenseMatrix, path: str | Path) -> None:
    buf = io.StringIO()
    for row in a.data:
        buf.write(",".join(repr(float(v)) for v in row))
        buf.write("\n")
    Path(path).write_text(buf.getvalue())


def load_csv(path: str | Path) -> DenseMatrix:
    rows = []
    width = None
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if width is None:
                    width = len(parts)
                elif len(parts) != width:
                    raise FormatError(
                        f"{path}:{lineno}: expected {width} fields, got {len(parts)}"
                    )
                try:
                    rows.append([float(p) for p in parts])
                except ValueError as exc:
                    raise FormatError(f"{path}:{lineno}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text: {exc}") from None
    if not rows:
        raise FormatError(f"{path}: no rows")
    return DenseMatrix(np.array(rows, dtype=np.float64))


def load_matrix(path: str | Path) -> DenseMatrix:
    """Dispatch on extension: .dpm -> DPM1, anything else -> CSV."""
    if str(path).endswith(".dpm"):
        return load_dpm(path)
    return load_csv(path)
