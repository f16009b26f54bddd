"""Checkpoint serialization: text manifest plus raw float32 blob.

A checkpoint is two files. `<path>` holds a line-oriented manifest
(header, optional embedded config keys, one line per tensor with name,
shape and byte offset, and a `blob <nbytes> <crc32>` line) and
`<path>.bin` holds every tensor concatenated as little-endian float32.
Round trips are bit-exact for float32 arrays, which is what run-to-run
determinism checks compare.

Both files are written through `serde.committed`, the blob first and
the manifest last, so the manifest is the commit point and a torn save
fails the blob line's check on load. A manifest without a blob line
gets only the length check.
"""

from __future__ import annotations

import os
import zlib

import numpy as np

from .errors import ContractError
from .serde import committed, read_text

_HEADER = "cramlab-checkpoint v1"


def blob_path(path: str) -> str:
    return path + ".bin"


def save_checkpoint(path: str, arrays: dict[str, np.ndarray], config: dict | None = None) -> None:
    """Write arrays (insertion order preserved) and optional config keys.

    Each array's buffer goes straight into the blob, with the blob's
    crc32 accumulated over it, so the save copies no array that is
    already contiguous little-endian float32.
    """
    for name in arrays:
        if " " in name or not name:
            raise ContractError(f"invalid tensor name {name!r}")
    lines = [_HEADER]
    for key in sorted(config or {}):
        lines.append(f"config {key} = {(config or {})[key]}")
    offset = crc = 0
    with committed(blob_path(path)) as fh:
        for name, arr in arrays.items():
            a = np.ascontiguousarray(arr, dtype="<f4")
            shape = "x".join(str(d) for d in a.shape) or "1"
            lines.append(f"tensor {name} {shape} {offset}")
            crc = zlib.crc32(a, crc)
            fh.write(a)
            offset += a.nbytes
    lines.append(f"blob {offset} {crc}")
    with committed(path) as fh:
        fh.write(("\n".join(lines) + "\n").encode("ascii"))


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Read back (arrays, config). Arrays come out float32 C-contiguous,
    as writable views into the one copy of the blob that is read."""
    lines = read_text(path, "ascii").split("\n")
    if not lines or lines[0] != _HEADER:
        raise ContractError(f"{path}: not a checkpoint manifest")
    config: dict[str, str] = {}
    entries: list[tuple[str, tuple, int]] = []
    stamp: tuple[int, int] | None = None
    for n, ln in enumerate(lines[1:], 2):
        if not ln.strip():
            continue
        try:
            if ln.startswith("config "):
                body = ln[len("config "):]
                key, _, value = body.partition(" = ")
                config[key.strip()] = value.strip()
            elif ln.startswith("tensor "):
                _, name, shape_s, offset_s = ln.split(" ")
                shape = tuple(int(d) for d in shape_s.split("x"))
                entries.append((name, shape, int(offset_s)))
            elif ln.startswith("blob "):
                _, nbytes_s, crc_s = ln.split(" ")
                stamp = (int(nbytes_s), int(crc_s))
            else:
                raise ContractError(f"{path}:{n}: unrecognized manifest line {ln!r}")
        except ValueError:
            raise ContractError(f"{path}:{n}: malformed manifest line {ln!r}") from None
    with open(blob_path(path), "rb") as fh:
        nbytes = os.fstat(fh.fileno()).st_size
        blob = np.fromfile(fh, dtype="<f4", count=nbytes // 4)
    if stamp is not None and stamp != (nbytes, zlib.crc32(blob)):
        raise ContractError(f"{path}: blob does not match its manifest (torn or corrupt save)")
    arrays: dict[str, np.ndarray] = {}
    for name, shape, offset in entries:
        if offset % 4:
            raise ContractError(f"{path}: misaligned offset for {name}")
        start = offset // 4
        count = int(np.prod(shape))
        if start + count > blob.size:
            raise ContractError(f"{path}: blob too short for tensor {name}")
        arrays[name] = blob[start:start + count].reshape(shape)
    return arrays, config
