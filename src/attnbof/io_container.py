"""Binary container shared by checkpoints and feature files, with the one
array-manifest format and header type schema that both use, and the one
atomic writer, :func:`write_file`, that every file the package writes takes.

Layout: 4 magic bytes, format version (u32 LE), header length (u32 LE),
UTF-8 JSON header, raw payload, CRC32 of the payload (u32 LE).  Readers
reject unknown versions, truncated files and checksum mismatches.
"""

from __future__ import annotations

import contextlib
import json
import os
import stat
import struct
import zlib
from typing import get_args, get_type_hints

import numpy as np

from .errors import ChecksumError, DataFormatError, VersionError

_U32 = struct.Struct("<I")


def check_destination(path: str) -> None:
    """Reject a destination :func:`write_file` would not replace: an existing
    path that is not a regular file (a symlink, FIFO, device node or
    directory), or a path whose directory does not exist."""
    try:
        if not stat.S_ISREG(os.lstat(path).st_mode):
            raise FileExistsError(f"{path} exists and is not a regular file")
    except FileNotFoundError:
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(f"{path}: no such directory") from None


def write_file(path: str, *chunks) -> None:
    """Write ``chunks`` (bytes or C-contiguous arrays) to ``path`` in order,
    atomically: into a unique sibling temp file, then ``os.replace``, so a
    failed or killed process never leaves a partial file at ``path`` (a power
    loss can: nothing is fsynced).  The file gets the mode ``open`` gives a
    new one, ``0o666`` less the umask."""
    check_destination(path)
    while True:   # a unique sibling, so concurrent writers cannot collide
        tmp = f"{path}.{os.urandom(4).hex()}.tmp"
        with contextlib.suppress(FileExistsError):
            fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
            break
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_container(path: str, magic: bytes, version: int, header: dict,
                    *payload) -> None:
    """Write a container through :func:`write_file`; the payload is
    ``payload``'s buffers (bytes or C-contiguous arrays), in order."""
    if len(magic) != 4:
        raise ValueError("magic must be exactly 4 bytes")
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    crc = 0
    for buf in payload:
        crc = zlib.crc32(buf, crc)
    write_file(path, magic + _U32.pack(version) + _U32.pack(len(header_bytes)) + header_bytes,
               *payload, _U32.pack(crc))


def read_container(path: str, magic: bytes, max_version: int) -> tuple[dict, memoryview]:
    """The header and payload of a container; the file is read once into one
    buffer, and the payload is a writable view of it."""
    with open(path, "rb") as fh:
        blob = bytearray(os.fstat(fh.fileno()).st_size)
        del blob[fh.readinto(blob):]
        blob += fh.read()   # a pipe or FIFO reports size 0
    if len(blob) < 12:
        raise DataFormatError(f"{path}: truncated (only {len(blob)} bytes)")
    if blob[:4] != magic:
        raise DataFormatError(
            f"{path}: bad magic {bytes(blob[:4])!r}, expected {magic!r}")
    version = _U32.unpack_from(blob, 4)[0]
    if version > max_version or version < 1:
        raise VersionError(
            f"{path}: format version {version} not supported (max {max_version})")
    header_len = _U32.unpack_from(blob, 8)[0]
    if len(blob) < 12 + header_len + 4:
        raise DataFormatError(f"{path}: truncated header or payload")
    try:
        header = json.loads(blob[12:12 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"{path}: malformed header ({exc})") from exc
    if not isinstance(header, dict):
        raise DataFormatError(f"{path}: header is not a JSON object")
    payload = memoryview(blob)[12 + header_len:-4]
    stored = _U32.unpack_from(blob, len(blob) - 4)[0]
    actual = zlib.crc32(payload) & 0xFFFFFFFF
    if stored != actual:
        raise ChecksumError(
            f"{path}: payload CRC32 {actual:08x} does not match stored {stored:08x}")
    return header, payload


# ---------------------------------------------------------------------------
# schema


def field_types(source) -> dict[str, tuple[type, ...]]:
    """Field name -> the types its value may have, from the type hints of a
    config dataclass or a function's parameters.  ``int | None`` allows (int,
    NoneType) and an int stands for a float; the first type parses from text."""
    types = {}
    for name, hint in get_type_hints(source).items():
        if name != "return":
            allowed = get_args(hint) or (hint,)
            types[name] = allowed + (int,) if float in allowed else allowed
    return types


def check_types(path: str, what: str, values: dict,
                types: dict[str, tuple[type, ...]]) -> None:
    """Reject ``values`` unless each key of ``types`` holds a value of exactly
    an allowed type (a bool is no int); a missing key reads as None."""
    bad = [name for name, allowed in types.items() if type(values.get(name)) not in allowed]
    if bad:
        raise DataFormatError(f"{path}: {what} has missing or mistyped fields {bad}")


# ---------------------------------------------------------------------------
# array manifest

_ENTRY_TYPES = {"rows": (int,), "cols": (int,), "offset": (int,)}


def pack_arrays(key: str, entries) -> tuple[list[dict], list[np.ndarray]]:
    """Manifest and payload buffers for ``(value, matrix)`` pairs: each matrix
    is stored row-major as little-endian float64, right after the previous
    one, under a ``{key: value, rows, cols, offset}`` entry.  A matrix already
    in that form is its own buffer; any other is copied into one."""
    manifest, arrays, offset = [], [], 0
    for value, arr in entries:
        arr = np.ascontiguousarray(arr, dtype="<f8")
        manifest.append({key: value, "rows": int(arr.shape[0]),
                         "cols": int(arr.shape[1]), "offset": offset})
        arrays.append(arr)
        offset += arr.nbytes
    return manifest, arrays


def unpack_arrays(path: str, key: str, manifest, payload
                  ) -> list[tuple[object, np.ndarray]]:
    """The ``(value, matrix)`` pairs of a manifest from :func:`pack_arrays`.

    Entries carry ``key`` and int ``rows``, ``cols`` >= 1 and ``offset``,
    and tile the payload in order: each starts where the previous one ends,
    and the last ends with the payload.  Every payload value is finite.  Each
    matrix is a view into the payload buffer, writable where the buffer is.
    """
    if not isinstance(manifest, list):
        raise DataFormatError(f"{path}: manifest is not a list")
    starts, end = [], 0
    for i, entry in enumerate(manifest):
        if not isinstance(entry, dict) or key not in entry:
            raise DataFormatError(f"{path}: manifest entry {i} has no {key!r}")
        rows, cols, offset = entry.get("rows"), entry.get("cols"), entry.get("offset")
        if not (type(rows) is type(cols) is type(offset) is int):
            check_types(path, f"manifest entry {i}", entry, _ENTRY_TYPES)
        if rows < 1 or cols < 1 or offset != end:
            raise DataFormatError(
                f"{path}: manifest entry {i} ({rows} x {cols} at byte {offset}) is "
                f"empty or does not start at byte {end}, where the previous one ends")
        starts.append(end // 8)
        end += 8 * rows * cols
    if end != len(payload):
        raise DataFormatError(
            f"{path}: manifest covers {end} payload bytes, payload has {len(payload)}")
    flat = np.frombuffer(payload, dtype="<f8")
    finite = np.isfinite(flat)
    if not finite.all():
        i = int(np.searchsorted(starts, np.argmin(finite), side="right")) - 1
        raise DataFormatError(f"{path}: manifest entry {i} ({key} "
                              f"{manifest[i][key]!r}) has non-finite values")
    return [(entry[key], flat[s:s + entry["rows"] * entry["cols"]]
             .reshape(entry["rows"], entry["cols"]))
            for entry, s in zip(manifest, starts)]
