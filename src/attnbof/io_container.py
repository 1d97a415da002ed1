"""Binary container shared by checkpoints and feature files.

Layout: 4 magic bytes, format version (u32 LE), header length (u32 LE),
UTF-8 JSON header, raw payload, CRC32 of the payload (u32 LE).  Readers
reject unknown versions, truncated files and checksum mismatches.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import tempfile
import zlib

from .errors import ChecksumError, DataFormatError, VersionError

_U32 = struct.Struct("<I")


def write_container(path: str, magic: bytes, version: int, header: dict,
                    payload: bytes) -> None:
    """Write atomically: a partial file is never left at ``path``."""
    if len(magic) != 4:
        raise ValueError("magic must be exactly 4 bytes")
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    blob = b"".join([
        magic,
        _U32.pack(version),
        _U32.pack(len(header_bytes)),
        header_bytes,
        payload,
        _U32.pack(zlib.crc32(payload) & 0xFFFFFFFF),
    ])
    # a unique sibling, so concurrent writers and stale files cannot collide
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def read_container(path: str, magic: bytes, max_version: int) -> tuple[int, dict, bytes]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12:
        raise DataFormatError(f"{path}: truncated (only {len(blob)} bytes)")
    if blob[:4] != magic:
        raise DataFormatError(
            f"{path}: bad magic {blob[:4]!r}, expected {magic!r}")
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
    payload = blob[12 + header_len:-4]
    stored = _U32.unpack_from(blob, len(blob) - 4)[0]
    actual = zlib.crc32(payload) & 0xFFFFFFFF
    if stored != actual:
        raise ChecksumError(
            f"{path}: payload CRC32 {actual:08x} does not match stored {stored:08x}")
    return version, header, payload
