"""Named-tensor checkpoint container.

Byte layout (all integers little-endian, payloads little-endian float64,
C row-major order):

    magic    : 4 bytes  b"CKQG"
    version  : u32      (currently 1)
    count    : u32      number of tensors (unique names; no bytes follow the last)
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

import math
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"CKQG"
VERSION = 1
DTYPE_F64 = 1

# Payloads are read into shared chunks of at least this many float64s
# (16 MiB), each array a view of its chunk. Numpy asks the OS for huge pages
# for an allocation of 4 MiB or more, so a chunk costs a few page faults
# where one array each costs thousands; below glibc's 32 MiB mmap ceiling a
# chunk can still reuse memory the process has freed.
CHUNK_ITEMS = 1 << 21


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
        size = os.fstat(fh.fileno()).st_size
        buf, used, total = np.empty(0, dtype="<f8"), 0, 0.0
        out: dict[str, np.ndarray] = {}
        for i in range(1, count + 1):
            (name_len,) = struct.unpack("<H", read(2, "name length"))
            try:
                name = read(name_len, "name").decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(
                    f"{path}: the name of entry {i} of {count} is not UTF-8") from None
            if name in out:
                raise CheckpointError(f"{path}: duplicate parameter '{name}'")
            (ndim,) = struct.unpack("<B", read(1, f"ndim for '{name}'"))
            dims = struct.unpack(f"<{ndim}I", read(4 * ndim, f"dims for '{name}'"))
            (dtype_code,) = struct.unpack("<B", read(1, f"dtype for '{name}'"))
            if dtype_code != DTYPE_F64:
                raise CheckpointError(f"{path}: unknown dtype code {dtype_code} for '{name}'")
            # exact in Python ints: u32 dims can claim more than int64 holds
            nbytes, left = 8 * math.prod(dims), size - fh.tell()
            if nbytes > left:
                raise CheckpointError(f"{path}: truncated payload for '{name}': "
                                      f"dims {dims} need {nbytes} bytes, {left} remain")
            if used + nbytes // 8 > buf.size:   # no larger than the rest of the file
                buf, used = np.empty(max(nbytes, min(8 * CHUNK_ITEMS, left)) // 8, "<f8"), 0
            arr = buf[used:used + nbytes // 8]
            used += arr.size
            if fh.readinto(arr) != nbytes:   # read once, straight into place
                raise CheckpointError(f"{path}: truncated payload for '{name}'")
            with np.errstate(over="ignore", invalid="ignore"):
                total += arr.sum()
            out[name] = arr.reshape(dims)
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after the last entry")
    # exact as a pass test: any NaN or inf entry makes the sum non-finite;
    # only then (or on overflow) scan the entries, to name the parameter
    if not math.isfinite(total):
        for name, arr in out.items():
            if not np.isfinite(arr).all():
                raise CheckpointError(f"{path}: parameter '{name}' holds non-finite values")
    return out
