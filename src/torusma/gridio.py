"""Binary grid format: magic "CMAG", version u32, n u32, N u32, then
N^(2n) little-endian float64 values in row-major axis order (x1, y1, x2, y2).
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import PreconditionError
from .geometry import GridFunction, Torus

MAGIC = b"CMAG"
VERSION = 1
_HEADER = struct.Struct("<4sIII")


def write_grid(path, f: GridFunction) -> None:
    """Write f as a CMAG file: the header, then the buffer of its values
    (a little-endian float64 C-contiguous array is written as it lies,
    without a copy)."""
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, f.torus.n, f.torus.N))
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").data)


def read_grid(path) -> GridFunction:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise PreconditionError(f"{path}: truncated CMAG header")
    magic, version, n, N = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise PreconditionError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise PreconditionError(f"{path}: unsupported version {version}")
    torus = Torus(n=int(n), N=int(N))
    count = torus.npoints
    payload = raw[_HEADER.size:]
    if len(payload) != 8 * count:
        raise PreconditionError(f"{path}: payload size mismatch")
    values = np.frombuffer(payload, dtype="<f8", count=count).reshape(torus.shape)
    return GridFunction(torus, values.astype(float))
