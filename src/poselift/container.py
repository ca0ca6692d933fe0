"""The one binary container behind checkpoints and datasets; the only
module that knows their byte layout.

    file   = magic(8) | u32 version | record* | u32 crc32 (zlib, of all bytes before it)
    record = u32 tag 1 | u32 ndim | u32 shape[ndim] | <f4 data[prod(shape)]
           | u32 tag 2 | u32 ndim | u32 shape[ndim] | <u4 data[prod(shape)]
           | u32 tag 3 | u32 nbytes | UTF-8 bytes | zero padding to a multiple of 4
           | u32 tag 4 | f64 scalar

Integers are little-endian and records start at multiples of 4, so tensors
are aligned views of the file's bytes. Every read is bounded by the bytes left
(a tensor's size is computed with Python ints before anything is allocated);
any problem raises `FormatError` naming what was being read and its byte
offset. The checksum is checked last, so truncation reports the record it hit.
"""

from __future__ import annotations

import math
import struct
import zlib
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import FormatError

_TAGS = {"<f4": 1, "<u4": 2, "string": 3, "scalar": 4}
_TAG_U32 = struct.Struct("<II")      # tag, then ndim or string length
_TAG_F64 = struct.Struct("<Id")      # tag, then a scalar


def _encode(value) -> list[bytes]:
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return [_TAG_U32.pack(_TAGS["string"], len(raw)), raw, bytes(-len(raw) % 4)]
    if isinstance(value, (int, float)):
        if isinstance(value, int) and abs(value) > 2 ** 53:
            raise FormatError(f"cannot write {value} as a scalar record: "
                              "a float64 holds integers exactly only up to 2**53")
        return [_TAG_F64.pack(_TAGS["scalar"], value)]
    arr = np.asarray(value)
    arr = arr.astype("<u4" if arr.dtype.kind in "biu" else "<f4", copy=False)
    header = struct.pack(f"<II{arr.ndim}I", _TAGS[arr.dtype.str], arr.ndim, *arr.shape)
    return [header, np.ascontiguousarray(arr).data]        # written without a copy


def write_container(path: str | Path, magic: bytes, version: int, records: Iterable) -> None:
    """Write strings, numbers (f64 scalars) and arrays (<u4 if integer, else <f4)."""
    parts = [magic, struct.pack("<I", version)]
    for value in records:
        parts += _encode(value)
    crc = 0
    with open(path, "wb") as fh:
        for part in parts:
            fh.write(part)
            crc = zlib.crc32(part, crc)
        fh.write(struct.pack("<I", crc))


class Reader:
    """Reads records in written order; tensors are read-only views of the file."""

    def __init__(self, path: str | Path, magic: bytes, version: int, kind: str):
        self.kind = kind
        try:
            self._raw = Path(path).read_bytes()
        except OSError as exc:
            raise FormatError(f"cannot read {kind}: {exc}") from None
        if len(self._raw) < 16:
            raise FormatError(f"truncated {kind}: {len(self._raw)} bytes at byte 0, need 16")
        if self._raw[:8] != magic:
            raise FormatError(f"bad {kind} magic {self._raw[:8]!r} at byte 0, want {magic!r}")
        (found,) = struct.unpack_from("<I", self._raw, 8)
        if found != version:
            raise FormatError(f"unsupported {kind} version {found} at byte 8, want {version}")
        self._pos, self._end = 12, len(self._raw) - 4    # the checksum trails the records

    def _take(self, size: int, what: str) -> int:
        start, left = self._pos, self._end - self._pos
        if size > left:
            raise FormatError(f"truncated {self.kind}: {what} at byte {start} needs "
                              f"{size} bytes, {left} left")
        self._pos += size
        return start

    def _record(self, tag: str, fields: struct.Struct, what: str):
        """Check the record's tag and return the field after it."""
        start = self._take(fields.size, what)
        found, value = fields.unpack_from(self._raw, start)
        if found != _TAGS[tag]:
            raise FormatError(f"{self.kind}: {what} at byte {start} is not a {tag} record")
        return value

    def tensor(self, what: str, dtype: str = "<f4") -> np.ndarray:
        ndim = self._record(dtype, _TAG_U32, what)
        if ndim > 8:
            raise FormatError(f"{self.kind}: {what} at byte {self._pos - 4} has ndim {ndim}")
        shape = struct.unpack_from(f"<{ndim}I", self._raw, self._take(4 * ndim, what + " shape"))
        count = math.prod(shape)                 # Python ints: cannot overflow
        offset = self._take(4 * count, what + " data")
        return np.frombuffer(self._raw, dtype, count, offset).reshape(shape)

    def string(self, what: str) -> str:
        size = self._record("string", _TAG_U32, what)
        start = self._take(size + -size % 4, what + " bytes")
        try:
            return self._raw[start:start + size].decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{self.kind}: {what} at byte {start} is not UTF-8") from None

    def scalar(self, what: str) -> float:
        return self._record("scalar", _TAG_F64, what)

    def count(self, what: str) -> int:
        start = self._pos
        value = self.scalar(what)
        if not (value.is_integer() and value >= 0):
            raise FormatError(f"{self.kind}: {what} at byte {start} is not a count")
        return int(value)

    def finish(self) -> None:
        if self._pos != self._end:
            raise FormatError(f"{self.kind}: unread bytes at byte {self._pos}")
        (stored,) = struct.unpack_from("<I", self._raw, self._end)
        if zlib.crc32(memoryview(self._raw)[:self._end]) != stored:
            raise FormatError(f"{self.kind}: checksum mismatch at byte {self._end}")
