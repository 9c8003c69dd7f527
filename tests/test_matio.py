"""Round-trip and malformed-input tests for the DPM matrix file format."""

import struct

import numpy as np
import pytest

from dppca.errors import FormatError
from dppca.matcore import DenseMatrix
from dppca.matio import load_dpm, save_dpm


@pytest.fixture
def mat():
    return DenseMatrix(np.random.default_rng(0).normal(size=(7, 3)))


def test_dpm_roundtrip(mat, tmp_path):
    p = tmp_path / "m.dpm"
    save_dpm(mat, p)
    back = load_dpm(p)
    assert back.data.tobytes() == mat.data.tobytes()
    assert back.data.flags.writeable and back.data.flags.c_contiguous


def test_dpm_header_layout(mat, tmp_path):
    p = tmp_path / "m.dpm"
    save_dpm(mat, p)
    raw = p.read_bytes()
    magic, version, n, d = struct.unpack("<4sHQQ", raw[:22])
    assert magic == b"DPM1"
    assert version == 1
    assert (n, d) == (7, 3)
    assert len(raw) == 22 + 7 * 3 * 8


def test_dpm_file_is_header_then_array_bytes(mat, tmp_path):
    p = tmp_path / "m.dpm"
    save_dpm(mat, p)
    header = struct.pack("<4sHQQ", b"DPM1", 1, 7, 3)
    payload = np.ascontiguousarray(mat.data, dtype="<f8").tobytes()
    assert p.read_bytes() == header + payload


def test_dpm_bad_magic(tmp_path):
    p = tmp_path / "m.dpm"
    p.write_bytes(b"XXXX" + b"\x00" * 30)
    with pytest.raises(FormatError):
        load_dpm(p)


def test_dpm_truncated_header(tmp_path):
    p = tmp_path / "m.dpm"
    p.write_bytes(b"DPM1")
    with pytest.raises(FormatError, match="truncated header"):
        load_dpm(p)


def test_dpm_truncated_payload(mat, tmp_path):
    p = tmp_path / "m.dpm"
    save_dpm(mat, p)
    p.write_bytes(p.read_bytes()[:-5])
    with pytest.raises(FormatError):
        load_dpm(p)


def test_dpm_trailing_bytes(mat, tmp_path):
    p = tmp_path / "m.dpm"
    save_dpm(mat, p)
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(FormatError):
        load_dpm(p)


@pytest.mark.parametrize("n,d", [(2**62, 2**62), (2**30, 2**10), (2**62, 0), (0, 3)])
def test_dpm_header_shape_checked_before_read(tmp_path, n, d):
    # The payload size is checked against the file, so a header claiming an
    # unrepresentable (or merely huge) n*d is a FormatError, not an overflow
    # or a read of n*d*8 bytes.
    p = tmp_path / "m.dpm"
    p.write_bytes(struct.pack("<4sHQQ", b"DPM1", 1, n, d))
    with pytest.raises(FormatError):
        load_dpm(p)


def test_dpm_bad_version(mat, tmp_path):
    p = tmp_path / "m.dpm"
    save_dpm(mat, p)
    raw = bytearray(p.read_bytes())
    raw[4:6] = struct.pack("<H", 9)
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_dpm(p)
