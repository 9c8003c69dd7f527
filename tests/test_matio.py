"""Round-trip and malformed-input tests for the `.npy` matrix files of
`dppca.matio`.  The `test_dpm_*` names are kept from the DPM1 format these
checks first covered.
"""

import io
import struct

import numpy as np
import pytest
from numpy.lib import format as npy

from dppca.errors import FormatError
from dppca.matcore import DenseMatrix
from dppca.matio import load_npy, save_npy


@pytest.fixture
def mat():
    return DenseMatrix(np.random.default_rng(0).normal(size=(7, 3)))


@pytest.fixture
def no_payload_read(monkeypatch):
    """A refusal must come from the header and the file size alone."""
    def fromfile(*args, **kwargs):
        raise AssertionError("the payload was read")
    monkeypatch.setattr(np, "fromfile", fromfile)


def _save(path, arr, version=None):
    with open(path, "wb") as fh:
        npy.write_array(fh, arr, version=version)


def test_dpm_roundtrip(mat, tmp_path):
    p = tmp_path / "m.npy"
    save_npy(mat, p)
    back = load_npy(p)
    assert back.data.tobytes() == mat.data.tobytes()
    assert back.data.flags.writeable and back.data.flags.c_contiguous


def test_dpm_header_layout(mat, tmp_path):
    # The payload starts on a 64-byte boundary, so a memory map of it is
    # aligned for float64.
    p = tmp_path / "m.npy"
    save_npy(mat, p)
    with open(p, "rb") as fh:
        assert npy.read_magic(fh) == (1, 0)
        assert npy.read_array_header_1_0(fh) == ((7, 3), False, np.dtype("<f8"))
        offset = fh.tell()
    assert offset % 64 == 0
    assert p.stat().st_size == offset + 7 * 3 * 8


def test_dpm_file_is_header_then_array_bytes(mat, tmp_path):
    p = tmp_path / "m.npy"
    save_npy(mat, p)
    plain = io.BytesIO()
    np.save(plain, mat.data)
    assert p.read_bytes() == plain.getvalue()


def test_dpm_bad_magic(tmp_path, no_payload_read):
    p = tmp_path / "m.npy"  # the retired DPM1 format: a 22-byte header, then the payload
    p.write_bytes(struct.pack("<4sHQQ", b"DPM1", 1, 2, 2) + np.eye(2).tobytes())
    with pytest.raises(FormatError, match="no .npy 1.0 or 2.0 header"):
        load_npy(p)


def test_dpm_truncated_header(tmp_path):
    p = tmp_path / "m.npy"
    p.write_bytes(b"\x93NUM")
    with pytest.raises(FormatError, match="no .npy 1.0 or 2.0 header"):
        load_npy(p)


def test_dpm_truncated_payload(mat, tmp_path, no_payload_read):
    p = tmp_path / "m.npy"
    save_npy(mat, p)
    p.write_bytes(p.read_bytes()[:-5])
    with pytest.raises(FormatError, match="payload is 163 bytes, expected 168"):
        load_npy(p)


def test_dpm_trailing_bytes(mat, tmp_path, no_payload_read):
    p = tmp_path / "m.npy"
    save_npy(mat, p)
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="payload is 169 bytes, expected 168"):
        load_npy(p)


@pytest.mark.parametrize("n,d", [(2**62, 2**62), (2**30, 2**10), (2**62, 0), (0, 3)])
def test_dpm_header_shape_checked_before_read(tmp_path, no_payload_read, n, d):
    # The payload size is checked against the file, so a header claiming an
    # unrepresentable (or merely huge) n*d is a FormatError, not an overflow
    # or a read of n*d*8 bytes.
    p = tmp_path / "m.npy"
    with open(p, "wb") as fh:
        npy.write_array_header_1_0(
            fh, {"descr": "<f8", "fortran_order": False, "shape": (n, d)})
    with pytest.raises(FormatError):
        load_npy(p)


def test_dpm_bad_version(mat, tmp_path, no_payload_read):
    p = tmp_path / "m.npy"
    _save(p, mat.data, version=(3, 0))
    with pytest.raises(FormatError, match=r"header \(format version \(3, 0\)\)"):
        load_npy(p)


def test_npy_version_2_is_read(mat, tmp_path):
    p = tmp_path / "m.npy"
    _save(p, mat.data, version=(2, 0))
    assert load_npy(p).data.tobytes() == mat.data.tobytes()


@pytest.mark.parametrize("arr", [
    np.asfortranarray(np.eye(3)[:, :2]),
    np.eye(3, dtype=np.float32),
    np.eye(3).astype(np.dtype(np.float64).newbyteorder()),
    np.zeros(3),
    np.zeros((2, 2, 2)),
    np.zeros((0, 3)),
], ids=["fortran", "float32", "byte-swapped", "1-d", "3-d", "zero-rows"])
def test_npy_not_a_matrix(tmp_path, no_payload_read, arr):
    p = tmp_path / "m.npy"
    _save(p, arr)
    with pytest.raises(FormatError, match="not a C-order native float64 matrix"):
        load_npy(p)


def test_npz_is_not_a_matrix_file(mat, tmp_path, no_payload_read):
    p = tmp_path / "m.npy"
    with open(p, "wb") as fh:
        np.savez(fh, a=mat.data)
    with pytest.raises(FormatError, match="no .npy 1.0 or 2.0 header"):
        load_npy(p)
