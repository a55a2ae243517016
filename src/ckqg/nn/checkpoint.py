"""Named-tensor checkpoint container.

Byte layout (all integers little-endian, payloads little-endian float64,
C row-major order):

    magic    : 4 bytes  b"CKQG"
    version  : u32      (currently 1)
    count    : u32      number of tensors
    entry*count:
        name_len : u16
        name     : name_len bytes, UTF-8
        ndim     : u8
        dims     : u32 * ndim
        dtype    : u8   (1 = float64 LE; the only defined code)
        payload  : 8 * prod(dims) bytes

The format is deliberately simple so external tools (e.g. a standalone
checkpoint averager) can parse it without this package.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

MAGIC = b"CKQG"
VERSION = 1
DTYPE_F64 = 1


class CheckpointError(ValueError):
    pass


def save_checkpoint(path: str | Path, tensors: dict[str, np.ndarray]) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(tensors)))
        for name, arr in tensors.items():
            # ascontiguousarray would promote 0-d arrays to 1-d, so only
            # apply it where a copy is actually needed
            arr = np.asarray(arr, dtype="<f8")
            if arr.ndim and not arr.flags.c_contiguous:
                arr = np.ascontiguousarray(arr)
            raw_name = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw_name)))
            fh.write(raw_name)
            fh.write(struct.pack("<B", arr.ndim))
            for d in arr.shape:
                fh.write(struct.pack("<I", d))
            fh.write(struct.pack("<B", DTYPE_F64))
            fh.write(arr.tobytes())


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        def read(n: int, what: str) -> bytes:
            data = fh.read(n)
            if len(data) != n:
                raise CheckpointError(f"{path}: truncated {what}")
            return data

        if fh.read(4) != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
        version, count = struct.unpack("<II", read(8, "header"))
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        out: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", read(2, "name length"))
            name = read(name_len, "name").decode("utf-8")
            (ndim,) = struct.unpack("<B", read(1, f"ndim for '{name}'"))
            dims = struct.unpack(f"<{ndim}I", read(4 * ndim, f"dims for '{name}'"))
            (dtype_code,) = struct.unpack("<B", read(1, f"dtype for '{name}'"))
            if dtype_code != DTYPE_F64:
                raise CheckpointError(f"{path}: unknown dtype code {dtype_code} for '{name}'")
            n = int(np.prod(dims)) if dims else 1
            payload = read(8 * n, f"payload for '{name}'")
            out[name] = np.frombuffer(payload, dtype="<f8").reshape(dims).copy()
        return out
