"""Self-describing binary container for named parameter tensors.

Layout (all integers little-endian, data float64 little-endian):

    magic  b"PCST"
    version u8 (currently 1)
    meta_len u32, meta (UTF-8 JSON: model config, ablation, anything else)
    n_tensors u32
    per tensor: name_len u16, name UTF-8, rows u32, cols u32, raw float64
    sha256 digest (32 bytes) over every preceding byte

The digest makes corruption and truncation detectable, and doubles as the
checkpoint's identity for determinism checks.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from .errors import CheckpointError
from .neural import ParamStore

MAGIC = b"PCST"
VERSION = 1


def save_checkpoint(path: str | Path, store: ParamStore, meta: dict) -> str:
    """Write store + metadata; returns the hex content checksum."""
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<B", VERSION)
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    blob += struct.pack("<I", len(meta_bytes))
    blob += meta_bytes
    names = store.names()
    blob += struct.pack("<I", len(names))
    for name in names:
        t = store[name]
        name_bytes = name.encode("utf-8")
        blob += struct.pack("<H", len(name_bytes))
        blob += name_bytes
        blob += struct.pack("<II", t.rows, t.cols)
        blob += np.ascontiguousarray(t.data, dtype="<f8").tobytes()
    digest = hashlib.sha256(bytes(blob)).digest()
    blob += digest
    Path(path).write_bytes(bytes(blob))
    return digest.hex()


def load_checkpoint(path: str | Path) -> tuple[ParamStore, dict, str]:
    """Read a container back; returns (store, meta, hex checksum)."""
    raw = Path(path).read_bytes()
    if len(raw) < len(MAGIC) + 1 + 32:
        raise CheckpointError(f"{path}: truncated")
    body, digest = raw[:-32], raw[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise CheckpointError(f"{path}: checksum mismatch")
    try:
        store, meta = _parse(body, path)
    except (struct.error, ValueError) as exc:  # a header that overruns the body, bad UTF-8 or JSON
        raise CheckpointError(f"{path}: malformed: {exc}") from exc
    return store, meta, digest.hex()


def _parse(body: bytes, path: str | Path) -> tuple[ParamStore, dict]:
    if body[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic")
    pos = 4
    (version,) = struct.unpack_from("<B", body, pos)
    pos += 1
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    (meta_len,) = struct.unpack_from("<I", body, pos)
    pos += 4
    meta = json.loads(body[pos: pos + meta_len].decode("utf-8"))
    pos += meta_len
    (n_tensors,) = struct.unpack_from("<I", body, pos)
    pos += 4
    # Read every header first, then copy the tensors into one buffer.
    arrays = {}
    for _ in range(n_tensors):
        (name_len,) = struct.unpack_from("<H", body, pos)
        pos += 2
        name = body[pos: pos + name_len].decode("utf-8")
        pos += name_len
        rows, cols = struct.unpack_from("<II", body, pos)
        pos += 8
        if name in arrays:
            raise CheckpointError(f"{path}: duplicate tensor {name!r}")
        if pos + rows * cols * 8 > len(body):
            raise CheckpointError(f"{path}: tensor {name!r} overruns the file")
        arrays[name] = np.frombuffer(body, dtype="<f8", count=rows * cols, offset=pos).reshape(rows, cols)
        pos += rows * cols * 8
    if pos != len(body):
        raise CheckpointError(f"{path}: trailing bytes")
    return ParamStore.from_arrays(arrays), meta
