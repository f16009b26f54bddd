"""Checkpoint serialization: text manifest plus raw float32 blob.

A checkpoint is two files. `<path>` holds a line-oriented manifest
(header, optional embedded config keys, one line per tensor with name,
shape and byte offset, and a `blob <nbytes> <crc32>` line) and
`<path>.bin` holds every tensor concatenated as little-endian float32.
Round trips are bit-exact for float32 arrays, which is what run-to-run
determinism checks compare.

Saving replaces the blob first and the manifest last, so the manifest
is the commit point and a torn save fails the blob line's check on
load. A manifest without a blob line gets only the length check.
"""

from __future__ import annotations

import os
import zlib

import numpy as np

from .errors import ContractError

_HEADER = "cramlab-checkpoint v1"


def blob_path(path: str) -> str:
    return path + ".bin"


def save_checkpoint(path: str, arrays: dict[str, np.ndarray], config: dict | None = None) -> None:
    """Write arrays (insertion order preserved) and optional config keys."""
    lines = [_HEADER]
    for key in sorted(config or {}):
        lines.append(f"config {key} = {(config or {})[key]}")
    offset = 0
    chunks = []
    for name, arr in arrays.items():
        if " " in name or not name:
            raise ContractError(f"invalid tensor name {name!r}")
        a = np.ascontiguousarray(arr, dtype="<f4")
        shape = "x".join(str(d) for d in a.shape) or "1"
        lines.append(f"tensor {name} {shape} {offset}")
        chunks.append(a.tobytes())
        offset += len(chunks[-1])
    blob = b"".join(chunks)
    lines.append(f"blob {len(blob)} {zlib.crc32(blob)}")
    tmp_manifest = path + ".tmp"
    tmp_blob = blob_path(path) + ".tmp"
    with open(tmp_manifest, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(tmp_blob, "wb") as fh:
        fh.write(blob)
    os.replace(tmp_blob, blob_path(path))
    os.replace(tmp_manifest, path)


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Read back (arrays, config). Arrays come out float32 C-contiguous."""
    with open(path, encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != _HEADER:
        raise ContractError(f"{path}: not a checkpoint manifest")
    config: dict[str, str] = {}
    entries: list[tuple[str, tuple, int]] = []
    stamp: tuple[int, int] | None = None
    for ln in lines[1:]:
        if not ln.strip():
            continue
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
            raise ContractError(f"{path}: unrecognized manifest line {ln!r}")
    with open(blob_path(path), "rb") as fh:
        raw = fh.read()
    if stamp is not None and stamp != (len(raw), zlib.crc32(raw)):
        raise ContractError(f"{path}: blob does not match its manifest (torn or corrupt save)")
    blob = np.frombuffer(raw, dtype="<f4", count=len(raw) // 4)
    arrays: dict[str, np.ndarray] = {}
    for name, shape, offset in entries:
        if offset % 4:
            raise ContractError(f"{path}: misaligned offset for {name}")
        start = offset // 4
        count = int(np.prod(shape))
        if start + count > blob.size:
            raise ContractError(f"{path}: blob too short for tensor {name}")
        arrays[name] = blob[start:start + count].reshape(shape).copy()
    return arrays, config
