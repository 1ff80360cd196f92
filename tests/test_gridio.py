"""CMAG binary grid round-trips and validation."""

import struct

import numpy as np
import pytest

from torusma.errors import PreconditionError
from torusma.geometry import Torus, GridFunction
from torusma.gridio import read_grid, write_grid


def test_roundtrip_exact(tmp_path):
    t = Torus(2, 8)
    rng = np.random.default_rng(5)
    f = GridFunction(t, rng.normal(size=t.shape))
    p = tmp_path / "f.cmag"
    write_grid(p, f)
    g = read_grid(p)
    assert g.torus == t
    assert np.array_equal(g.values, f.values)


def test_write_is_deterministic(tmp_path):
    t = Torus(1, 16)
    f = GridFunction(t, np.linspace(0, 1, t.npoints).reshape(t.shape))
    p1, p2 = tmp_path / "a.cmag", tmp_path / "b.cmag"
    write_grid(p1, f)
    write_grid(p2, f)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("n, N", [(1, 64), (2, 8)])
def test_bytes_as_written_with_a_copy(tmp_path, n, N):
    # the buffer is written as it lies; the file is the header and the
    # tobytes() copy the format was first written with
    t = Torus(n, N)
    f = GridFunction(t, np.random.default_rng(N).normal(size=t.shape))
    p = tmp_path / "f.cmag"
    write_grid(p, f)
    header = struct.pack("<4sIII", b"CMAG", 1, n, N)
    assert p.read_bytes() == header + f.values.astype("<f8").tobytes()
    assert read_grid(p).values.tobytes() == f.values.tobytes()


def test_write_copies_no_field(tmp_path):
    import tracemalloc
    t = Torus(1, 256)
    f = GridFunction(t, np.random.default_rng(0).random(t.shape))
    tracemalloc.start()
    try:
        write_grid(tmp_path / "f.cmag", f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < f.values.nbytes / 2


def test_bad_magic(tmp_path):
    p = tmp_path / "bad.cmag"
    p.write_bytes(b"NOPE" + b"\0" * 100)
    with pytest.raises(PreconditionError, match="magic"):
        read_grid(p)


def test_truncated_header(tmp_path):
    p = tmp_path / "short.cmag"
    p.write_bytes(b"CM")
    with pytest.raises(PreconditionError, match="truncated"):
        read_grid(p)


def test_payload_size_mismatch(tmp_path):
    p = tmp_path / "trunc.cmag"
    p.write_bytes(struct.pack("<4sIII", b"CMAG", 1, 1, 16) + b"\0" * 8)
    with pytest.raises(PreconditionError, match="payload"):
        read_grid(p)


def test_unsupported_version(tmp_path):
    p = tmp_path / "v9.cmag"
    p.write_bytes(struct.pack("<4sIII", b"CMAG", 9, 1, 8) + b"\0" * (8 * 8 * 8))
    with pytest.raises(PreconditionError, match="version"):
        read_grid(p)
