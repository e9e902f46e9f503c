"""Binary checkpoint format.

Layout: magic, u32 version, u32 meta length + UTF-8 JSON meta, u32 tensor
count, per-tensor header (u16 name length + name, u8 ndim, u32 dims), then
the raw little-endian float32 payloads in header order, and a trailing sha256
digest of everything before it. Names are written in strictly increasing
order, and the meta is a JSON object. Saving the result of a load reproduces
the file byte for byte; a file that breaks either rule could not, and is
rejected.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import CorruptCheckpoint, StorageError, UnsupportedVersion

MAGIC = b"DTCK"
FORMAT_VERSION = 1
_DIGEST_SIZE = 32


@dataclass
class Checkpoint:
    meta: dict
    tensors: dict[str, np.ndarray]
    version: int = FORMAT_VERSION
    digest: str = field(default="", compare=False)


def checkpoint_bytes(ckpt: Checkpoint) -> bytes:
    """Serialize; tensor order is the sorted name order, so equal contents
    always produce equal bytes."""
    parts = [MAGIC, struct.pack("<I", ckpt.version)]
    meta_blob = json.dumps(ckpt.meta, sort_keys=True).encode("utf-8")
    parts.append(struct.pack("<I", len(meta_blob)))
    parts.append(meta_blob)
    names = sorted(ckpt.tensors)
    parts.append(struct.pack("<I", len(names)))
    payloads = []
    for name in names:
        # asarray keeps 0-d ranks intact (ascontiguousarray would promote)
        arr = np.asarray(ckpt.tensors[name], dtype=np.float32)
        name_b = name.encode("utf-8")
        if len(name_b) > 0xFFFF:
            raise StorageError(f"tensor name too long: {name[:40]}...")
        if arr.ndim > 0xFF:
            raise StorageError(f"tensor rank {arr.ndim} unsupported")
        parts.append(struct.pack("<H", len(name_b)))
        parts.append(name_b)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        payloads.append(arr.astype("<f4").tobytes())
    parts.extend(payloads)
    body = b"".join(parts)
    return body + hashlib.sha256(body).digest()


def save_checkpoint(ckpt: Checkpoint, path) -> str:
    """Write the checkpoint; returns the hex digest of the file body."""
    blob = checkpoint_bytes(ckpt)
    with open(path, "wb") as fh:
        fh.write(blob)
    ckpt.digest = blob[-_DIGEST_SIZE:].hex()
    return ckpt.digest


class _Reader:
    """Reads a checkpoint body through a memoryview: each read is a view into
    the file's bytes, not a copy of them."""

    def __init__(self, blob: memoryview):
        self.blob = blob
        self.pos = 0

    def read(self, n: int) -> memoryview:
        if self.pos + n > len(self.blob):
            raise CorruptCheckpoint(
                f"truncated checkpoint: wanted {n} bytes at offset {self.pos}, "
                f"file body ends at {len(self.blob)}"
            )
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.read(struct.calcsize(fmt)))


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        return parse_checkpoint(fh.read())


def parse_checkpoint(blob: bytes | bytearray) -> Checkpoint:
    """The checkpoint `blob` holds. Each tensor is its own array, copied once
    out of `blob`."""
    if len(blob) < len(MAGIC) + 4 + _DIGEST_SIZE:
        raise CorruptCheckpoint(f"file too short ({len(blob)} bytes)")
    view = memoryview(blob)
    body, digest = view[:-_DIGEST_SIZE], view[-_DIGEST_SIZE:]
    if hashlib.sha256(body).digest() != digest:
        raise CorruptCheckpoint("digest mismatch: file corrupted or truncated")
    r = _Reader(body)
    if r.read(len(MAGIC)) != MAGIC:
        raise CorruptCheckpoint("bad magic bytes: not a checkpoint file")
    (version,) = r.unpack("<I")
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(
            f"checkpoint format version {version}; this build reads "
            f"{FORMAT_VERSION}"
        )
    (meta_len,) = r.unpack("<I")
    try:
        meta = json.loads(str(r.read(meta_len), "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptCheckpoint("unreadable checkpoint metadata") from exc
    if not isinstance(meta, dict):
        raise CorruptCheckpoint(
            f"checkpoint metadata is a JSON {type(meta).__name__}, not an object")
    (count,) = r.unpack("<I")
    headers: list[tuple[str, tuple[int, ...]]] = []
    for _ in range(count):
        (name_len,) = r.unpack("<H")
        try:
            name = str(r.read(name_len), "utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptCheckpoint(
                f"tensor name at offset {r.pos - name_len} is not UTF-8") from exc
        if headers and name <= headers[-1][0]:
            raise CorruptCheckpoint(
                f"tensor name {name!r} does not follow {headers[-1][0]!r}: "
                "names must be unique and sorted")
        (ndim,) = r.unpack("<B")
        shape = r.unpack(f"<{ndim}I") if ndim else ()
        headers.append((name, shape))
    tensors: dict[str, np.ndarray] = {}
    for name, shape in headers:
        # Python ints: an int64 product of u32 dims can wrap to a small size
        raw = r.read(4 * math.prod(shape))
        tensors[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
    if r.pos != len(body):
        raise CorruptCheckpoint(f"{len(body) - r.pos} trailing bytes after payload")
    ckpt = Checkpoint(meta=meta, tensors=tensors, version=version)
    ckpt.digest = digest.hex()
    return ckpt
