"""Versioned binary container for named float64 arrays (model checkpoints).

Layout, all little-endian:

    bytes 0..7    magic ``b"CDUN0001"``
    bytes 8..11   uint32 header length H
    bytes 12..12+H  UTF-8 JSON header::

        {"format_version": 1,
         "meta": {...},                        # caller-supplied, JSON-safe
         "arrays": [{"name": str, "shape": [int, ...]}, ...]}

    then, for each entry of ``arrays`` in order, the raw C-order float64
    little-endian bytes of that array.

Writes are deterministic (sorted JSON keys, no timestamps), so identical
content produces identical files, and a save/load round trip is bit-exact.
"""

from __future__ import annotations

import json
import math
from typing import Mapping

import numpy as np

MAGIC = b"CDUN0001"
FORMAT_VERSION = 1


class ContainerError(ValueError):
    """The file is not a valid container or is from an unknown version."""


def save_bundle(path: str, arrays: Mapping[str, np.ndarray], meta: dict) -> None:
    names = list(arrays)
    header = {
        "format_version": FORMAT_VERSION,
        "meta": meta,
        "arrays": [
            {"name": n, "shape": list(np.asarray(arrays[n]).shape)} for n in names
        ],
    }
    payload = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(np.array([len(payload)], dtype="<u4").tobytes())
        f.write(payload)
        for n in names:
            arr = np.ascontiguousarray(np.asarray(arrays[n], dtype=np.float64))
            f.write(arr.astype("<f8", copy=False).tobytes())


def load_bundle(path: str) -> tuple[dict[str, np.ndarray], dict]:
    """The arrays and meta of a container; anything but a well-formed file of
    this format version raises :class:`ContainerError`."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:8] != MAGIC:
        raise ContainerError(f"{path}: bad magic {blob[:8]!r}")
    if len(blob) < 12:
        raise ContainerError(f"{path}: truncated preamble")
    offset = 12 + int.from_bytes(blob[8:12], "little")
    if offset > len(blob):
        raise ContainerError(f"{path}: header length runs past the end of the file")
    try:
        header = json.loads(blob[12:offset].decode("utf-8"))
    except ValueError as exc:
        raise ContainerError(f"{path}: header is not UTF-8 JSON ({exc})") from exc
    if not isinstance(header, dict) or header.get("format_version") != FORMAT_VERSION:
        raise ContainerError(f"{path}: not a format_version {FORMAT_VERSION} header")
    if not isinstance(header.get("arrays"), list) or not isinstance(header.get("meta"), dict):
        raise ContainerError(f"{path}: header needs an 'arrays' list and a 'meta' object")
    arrays: dict[str, np.ndarray] = {}
    for entry in header["arrays"]:
        fields = entry if isinstance(entry, dict) else {}
        name, shape = fields.get("name"), fields.get("shape")
        if not (
            isinstance(name, str)
            and isinstance(shape, list)
            and all(type(n) is int and n >= 0 for n in shape)
        ):
            raise ContainerError(
                f"{path}: array entry {entry!r} needs a 'name' and a 'shape' of counts >= 0"
            )
        if name in arrays:
            raise ContainerError(f"{path}: array {name!r} is named twice")
        count = math.prod(shape)
        if offset + 8 * count > len(blob):
            raise ContainerError(f"{path}: truncated array {name!r}")
        values = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        arrays[name] = values.astype(np.float64).reshape(shape)
        offset += 8 * count
    if offset != len(blob):
        raise ContainerError(f"{path}: trailing bytes after the last array")
    return arrays, header["meta"]
