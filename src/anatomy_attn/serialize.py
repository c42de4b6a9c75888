"""Binary tensor format, manifest-based checkpoints, and PGM output.

Tensor wire format: 16-byte little-endian header (4-byte magic b"AXT1",
uint32 rank, four uint16 extents) followed by the flat fp64 payload in C
order. Unused extent slots are zero.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

MAGIC = b"AXT1"
_HEADER = struct.Struct("<4sI4H")
MAX_EXTENT = 0xFFFF  # the largest extent a uint16 header slot holds


def _check_writable(arr: np.ndarray, name: str) -> None:
    """Raise ValueError naming `name` unless a header can hold arr's shape."""
    if arr.ndim > 4:
        raise ValueError(f"{name} has rank {arr.ndim} > 4, not serializable")
    if any(e > MAX_EXTENT for e in arr.shape):
        raise ValueError(f"{name} has shape {arr.shape}, an extent above "
                         f"the uint16 limit {MAX_EXTENT}")


def write_array(fh, arr: np.ndarray) -> None:
    arr = np.asarray(arr, dtype=np.float64)
    _check_writable(arr, "array")
    extents = list(arr.shape) + [0] * (4 - arr.ndim)
    fh.write(_HEADER.pack(MAGIC, arr.ndim, *extents))
    fh.write(arr.astype("<f8").tobytes(order="C"))


def read_array(fh) -> np.ndarray:
    header = fh.read(_HEADER.size)
    if len(header) < _HEADER.size:
        raise ValueError("truncated tensor header")
    magic, rank, *extents = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    if rank > 4:
        raise ValueError(f"tensor header rank {rank} > 4")
    if any(extents[rank:]):
        raise ValueError("nonzero extent in an unused header slot")
    shape = tuple(extents[:rank])
    count = int(np.prod(shape)) if rank else 1
    payload = fh.read(8 * count)
    if len(payload) < 8 * count:
        raise ValueError("truncated tensor payload")
    return np.frombuffer(payload, dtype="<f8").reshape(shape).copy()


def save_tensors(path, named_arrays) -> None:
    """Write (name, array) pairs to `path` plus a JSON manifest alongside.

    The manifest fixes the name order; loading validates it. A repeated
    name, or an array a header cannot describe, raises ValueError before
    anything is written.
    """
    path = Path(path)
    named_arrays = list(named_arrays)
    names = [name for name, _ in named_arrays]
    arrays = [np.asarray(arr, dtype=np.float64) for _, arr in named_arrays]
    for i, (name, arr) in enumerate(zip(names, arrays)):
        if name in names[:i]:
            raise ValueError(f"save_tensors: {path} repeats tensor {name!r}")
        _check_writable(arr, f"save_tensors: tensor {name!r}")
    with open(path, "wb") as fh:
        for arr in arrays:
            write_array(fh, arr)
    manifest = path.with_suffix(path.suffix + ".manifest.json")
    manifest.write_text(json.dumps({"tensors": names}, indent=1) + "\n")


def load_tensors(path) -> dict:
    path = Path(path)
    manifest = path.with_suffix(path.suffix + ".manifest.json")
    listing = json.loads(manifest.read_text())
    names = listing.get("tensors") if isinstance(listing, dict) else None
    if not (isinstance(names, list)
            and all(isinstance(name, str) for name in names)):
        raise ValueError(f"manifest {manifest} is not "
                         f"{{\"tensors\": [name, ...]}}")
    out = {}
    with open(path, "rb") as fh:
        for name in names:
            if name in out:
                raise ValueError(f"manifest {manifest} repeats tensor "
                                 f"{name!r}")
            out[name] = read_array(fh)
        if fh.read(1):
            raise ValueError(f"trailing bytes after the last of {len(names)} "
                             f"tensors in {path}")
    return out


def write_pgm(path, image: np.ndarray) -> None:
    """Write a 2-D array in [0,1] as an 8-bit binary PGM."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError("PGM output expects a 2-D array")
    pixels = np.clip(np.round(image * 255.0), 0, 255).astype(np.uint8)
    h, w = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes(order="C"))
