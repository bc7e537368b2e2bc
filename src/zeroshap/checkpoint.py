"""Single-file checkpoint format: JSON header followed by raw little-endian arrays.

Layout: 8-byte magic ``ZSHAPCK1``, little-endian uint64 header byte length,
UTF-8 JSON header, then each array's raw bytes in header order. The header
lists format_version, a kind tag, free-form config/metadata, and an array
table with name/shape/dtype. Float arrays are ``<f8``, integer arrays ``<i8``.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"ZSHAPCK1"
FORMAT_VERSION = 1

_DTYPES = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}


class CheckpointError(IOError):
    pass


def save_checkpoint(path, kind: str, arrays: dict[str, np.ndarray],
                    config: dict | None = None, metadata: dict | None = None) -> None:
    entries = []
    blobs = []
    for name in sorted(arrays):
        arr = np.asarray(arrays[name])  # tobytes() below writes C order
        if arr.dtype.kind == "f":
            arr = arr.astype("<f8", copy=False)
            dtype = "<f8"
        elif arr.dtype.kind in "iu":
            arr = arr.astype("<i8", copy=False)
            dtype = "<i8"
        else:
            raise CheckpointError(f"unsupported dtype {arr.dtype} for array {name!r}")
        entries.append({"name": name, "shape": list(arr.shape), "dtype": dtype})
        blobs.append(arr.tobytes())
    header = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "config": config or {},
        "metadata": metadata or {},
        "arrays": entries,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for blob in blobs:
            fh.write(blob)
    tmp.replace(path)


def load_checkpoint(path, expected_kind: str | None = None):
    """Return (arrays, config, metadata); raises CheckpointError on bad or unreadable files."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read ({exc.strerror})") from exc
    if len(raw) < len(MAGIC) + 8 or raw[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    (header_len,) = struct.unpack("<Q", raw[len(MAGIC) : len(MAGIC) + 8])
    body_start = len(MAGIC) + 8
    if len(raw) < body_start + header_len:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[body_start : body_start + header_len].decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise CheckpointError(f"{path}: header does not parse ({exc})") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: format version mismatch (file has {version}, reader supports {FORMAT_VERSION})"
        )
    if expected_kind is not None and header.get("kind") != expected_kind:
        raise CheckpointError(f"{path}: expected kind {expected_kind!r}, found {header.get('kind')!r}")
    try:
        table, config, metadata = header["arrays"], header["config"], header["metadata"]
        table = [(entry["name"], entry["dtype"], entry["shape"]) for entry in table]
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: malformed header ({type(exc).__name__}: {exc})") from exc
    if not (isinstance(config, dict) and isinstance(metadata, dict)):
        raise CheckpointError(f"{path}: malformed header (config and metadata must be objects)")
    arrays: dict[str, np.ndarray] = {}
    offset = body_start + header_len
    for name, tag, shape in table:
        if tag not in _DTYPES:
            raise CheckpointError(f"{path}: unknown dtype {tag!r} for array {name!r}")
        if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
            raise CheckpointError(f"{path}: bad shape {shape!r} for array {name!r}")
        dtype, shape = _DTYPES[tag], tuple(shape)
        count = math.prod(shape)
        nbytes = dtype.itemsize * count
        if len(raw) < offset + nbytes:
            raise CheckpointError(f"{path}: truncated array data for {name!r}")
        arrays[name] = np.frombuffer(raw, dtype=dtype, count=count, offset=offset).reshape(shape).copy()
        offset += nbytes
    if offset != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - offset} trailing bytes")
    return arrays, config, metadata
