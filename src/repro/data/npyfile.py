"""Readers for NumPy's ``.npy`` and ``.npz`` files, without ``np.load``.

Every array this package reads back from disk (shard members, subsample
artifacts, checkpoints) comes through this module, for two reasons:

* ``np.load`` parses every ``.npy`` header with ``ast.literal_eval``.  Some
  CPython releases (3.11.7 among them) keep the AST constructor's
  recursion bookkeeping in interpreter-wide state, so threads that build
  ASTs at the same time — SPMD thread ranks, the shard prefetcher, serve
  workers — can raise ``SystemError: AST constructor recursion depth
  mismatch``.  The header is a fixed-form dict literal, so a strict regular
  expression reads it here instead.
* ``np.load`` of an ``.npz`` parses the zip central directory again on
  every open.  :class:`NpzFile` parses it once into a member table
  (offsets, sizes, CRC-32s) and reads each member with one seek, checking
  its size and CRC-32 on every read.

The formats are the NPY v1.0/v2.0/v3.0 layout in the ``numpy.lib.format``
documentation and the ZIP layout in PKWARE's APPNOTE (stored and deflated
members, ZIP64 records).  Only the dtypes this package writes are accepted —
booleans, integers, floats, complex numbers and unicode strings, in C or
Fortran order.  Object, structured and any other headers, headers over
numpy's 10 000-byte limit, truncated payloads, bad CRCs, encrypted members,
other compression methods and zip archive comments (numpy writes none)
raise :class:`ValueError`.
"""

from __future__ import annotations

import math
import os
import re
import struct
import zlib
from collections.abc import Iterator, Mapping
from typing import NamedTuple

import numpy as np

__all__ = ["NpyHeader", "read_header", "array_from_buffer", "load_npy", "NpzFile"]

_MAGIC = b"\x93NUMPY"
#: numpy's own cap on the header it parses (``max_header_size``)
MAX_HEADER_SIZE = 10_000
#: NPY version -> (header-length field, header text encoding)
_VERSIONS = {(1, 0): ("<H", "latin1"), (2, 0): ("<I", "latin1"), (3, 0): ("<I", "utf8")}
#: the header numpy writes: sorted keys, a repr'd dtype string and shape
#: tuple, space padding, one newline
_HEADER = re.compile(
    r"\{'descr': '([<>|][biufcU][1-9]\d*)', "
    r"'fortran_order': (True|False), 'shape': \((|\d+,|\d+(?:, \d+)+)\), \} *\n"
)
#: uncompressed bytes read to find a member's header (numpy pads to 64)
_PEEK = 256


class NpyHeader(NamedTuple):
    """A parsed ``.npy`` header; the array data starts at ``offset``."""

    dtype: np.dtype
    shape: tuple[int, ...]
    fortran_order: bool
    offset: int

    @property
    def nbytes(self) -> int:
        return math.prod(self.shape) * self.dtype.itemsize


def _header_end(buf) -> tuple[int, int, str]:
    """(text start, text end, encoding) of the header at the start of `buf`."""
    if len(buf) < 8 or bytes(buf[:6]) != _MAGIC:
        raise ValueError("not an NPY payload: bad magic string")
    version = (buf[6], buf[7])
    if version not in _VERSIONS:
        raise ValueError(f"unsupported NPY format version {version}")
    field, encoding = _VERSIONS[version]
    start = 8 + struct.calcsize(field)
    if len(buf) < start:
        raise ValueError("truncated NPY header")
    (length,) = struct.unpack_from(field, buf, 8)
    if length > MAX_HEADER_SIZE:
        raise ValueError(
            f"NPY header of {length} bytes is over the {MAX_HEADER_SIZE}-byte limit"
        )
    return start, start + length, encoding


def read_header(buf) -> NpyHeader:
    """Parse the ``.npy`` header at the start of the bytes-like `buf`."""
    start, end, encoding = _header_end(buf)
    if len(buf) < end:
        raise ValueError("truncated NPY header")
    text = bytes(buf[start:end]).decode(encoding)
    match = _HEADER.fullmatch(text)
    if match is None:
        raise ValueError(
            f"unsupported NPY header {text.rstrip()!r}: only boolean, numeric "
            "and unicode dtypes are read"
        )
    descr, fortran_order, shape = match.groups()
    try:
        dtype = np.dtype(descr)
    except TypeError:
        raise ValueError(f"unsupported NPY dtype {descr!r}") from None
    return NpyHeader(
        dtype, tuple(int(n) for n in shape.replace(",", " ").split()),
        fortran_order == "True", end,
    )


def _shaped(flat: np.ndarray, header: NpyHeader) -> np.ndarray:
    if header.fortran_order:
        return flat.reshape(header.shape[::-1]).transpose()
    return flat.reshape(header.shape)


def array_from_buffer(buf) -> np.ndarray:
    """The array held by one complete ``.npy`` payload.  It is writable, like
    ``np.load``'s: it shares a writable `buf`, and copies an immutable one."""
    header = read_header(buf)
    if len(buf) - header.offset != header.nbytes:
        raise ValueError(
            f"NPY payload holds {len(buf) - header.offset} data bytes; its "
            f"header describes {header.nbytes}"
        )
    flat = np.frombuffer(
        buf, dtype=header.dtype, count=header.nbytes // header.dtype.itemsize,
        offset=header.offset,
    )
    return _shaped(flat if flat.flags.writeable else flat.copy(), header)


def load_npy(path: str, mmap: bool = False) -> np.ndarray:
    """Read the ``.npy`` file at `path`, or with ``mmap=True`` map it
    read-only (an ``np.memmap``; nothing is read but the header)."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if not mmap:
            buf = bytearray(size)
            if fh.readinto(buf) != size:
                raise ValueError(f"{path!r} changed size while being read")
            return array_from_buffer(buf)
        head = fh.read(_PEEK)
        _, end, _ = _header_end(head)
        head += fh.read(max(0, end - len(head)))
    header = read_header(head)
    if size - header.offset != header.nbytes:
        raise ValueError(
            f"{path!r} holds {size - header.offset} data bytes; its header "
            f"describes {header.nbytes}"
        )
    return np.memmap(
        path, dtype=header.dtype, mode="r", offset=header.offset, shape=header.shape,
        order="F" if header.fortran_order else "C",
    )


# ---- npz ----------------------------------------------------------------------

_EOCD = struct.Struct("<4s4H2LH")  # end of central directory
_LOCATOR = struct.Struct("<4sLQL")  # ZIP64 end of central directory locator
_EOCD64 = struct.Struct("<4sQ2H2L4Q")  # ZIP64 end of central directory
_CENTRAL = struct.Struct("<4s4B4HL2L5H2L")  # central directory file header
_LOCAL_SIZE = 30  # local file header, up to the name
_STORED, _DEFLATED = 0, 8
_U32 = 0xFFFFFFFF


class _Member(NamedTuple):
    offset: int  # of the local file header
    csize: int
    size: int
    crc: int
    method: int
    flags: int


def _zip64_extra(extra: bytes, size: int, csize: int, offset: int) -> tuple[int, int, int]:
    """Resolve the central-directory fields a ZIP64 extra field overrides."""
    pos = 0
    while pos + 4 <= len(extra):
        tag, length = struct.unpack_from("<2H", extra, pos)
        if tag == 1:
            values = list(struct.unpack_from(f"<{length // 8}Q", extra, pos + 4))
            if size == _U32:
                size = values.pop(0)
            if csize == _U32:
                csize = values.pop(0)
            if offset == _U32:
                offset = values.pop(0)
            return size, csize, offset
        pos += 4 + length
    raise ValueError("zip entry lacks its ZIP64 extra field")


def _read_table(fh) -> dict[str, _Member]:
    """Member name (``.npy`` suffix dropped) -> its central-directory entry."""
    # numpy writes no archive comment, so the record ends the file.
    end = fh.seek(0, os.SEEK_END)
    fh.seek(max(0, end - _LOCATOR.size - _EOCD.size))
    tail = fh.read()
    at = len(tail) - _EOCD.size
    if at < 0 or tail[at : at + 4] != b"PK\x05\x06":
        raise ValueError(
            "not a zip archive without a comment: no end-of-central-directory "
            "record at its end"
        )
    _, _, _, _, count, cd_size, cd_offset, _ = _EOCD.unpack_from(tail, at)
    if _U32 in (cd_size, cd_offset) or count == 0xFFFF:
        if at < _LOCATOR.size:
            raise ValueError("ZIP64 archive without its end-of-directory locator")
        _, _, record, _ = _LOCATOR.unpack_from(tail, at - _LOCATOR.size)
        fh.seek(record)
        sig, *_, count, cd_size, cd_offset = _EOCD64.unpack(fh.read(_EOCD64.size))
        if sig != b"PK\x06\x06":
            raise ValueError("corrupt ZIP64 end-of-central-directory record")
    fh.seek(cd_offset)
    directory = fh.read(cd_size)
    members: dict[str, _Member] = {}
    pos = 0
    for _ in range(count):
        if pos + _CENTRAL.size > len(directory):
            raise ValueError("truncated zip central directory")
        (sig, _, _, _, _, flags, method, _, _, crc, csize, size,
         n_name, n_extra, n_comment, _, _, _, offset) = _CENTRAL.unpack_from(directory, pos)
        if sig != b"PK\x01\x02":
            raise ValueError("corrupt zip central directory")
        name_at = pos + _CENTRAL.size
        name = directory[name_at : name_at + n_name].decode(
            "utf8" if flags & 0x800 else "cp437"
        )
        if _U32 in (size, csize, offset):
            extra = directory[name_at + n_name : name_at + n_name + n_extra]
            size, csize, offset = _zip64_extra(extra, size, csize, offset)
        members[name.removesuffix(".npy")] = _Member(offset, csize, size, crc, method, flags)
        pos = name_at + n_name + n_extra + n_comment
    return members


class NpzFile(Mapping):
    """The arrays of one ``.npz`` file, read on access.

    Construction parses the zip central directory once; each ``[name]``
    then opens the file, seeks to that member, and inflates and checks only
    it.  No file handle stays open between reads, so readers in several
    threads share one instance, and a path whose file is replaced between
    reads (a re-staged shard) is simply re-opened.
    """

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        with open(self.path, "rb") as fh:
            try:
                self._members = _read_table(fh)
            except struct.error:
                raise ValueError(f"{self.path!r}: truncated zip archive") from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, name: object) -> bool:
        return name in self._members

    def __getitem__(self, name: str) -> np.ndarray:
        with open(self.path, "rb") as fh:
            return array_from_buffer(self._payload(fh, name))

    def header(self, name: str) -> NpyHeader:
        """Member `name`'s ``.npy`` header, inflating only its first bytes."""
        with open(self.path, "rb") as fh:
            head = self._payload(fh, name, limit=_PEEK)
            _, end, _ = _header_end(head)
            if end > len(head):
                head = self._payload(fh, name, limit=end)
        return read_header(head)

    def _payload(self, fh, name: str, limit: int | None = None):
        """Member `name`'s uncompressed bytes, size- and CRC-checked; with a
        `limit`, only its first `limit` bytes, unchecked."""
        member = self._members.get(name)
        if member is None:
            raise KeyError(f"{name!r} is not a member of {self.path!r}")
        where = f"{self.path!r} member {name!r}"
        if member.flags & 0x1:
            raise ValueError(f"{where} is encrypted")
        if member.method not in (_STORED, _DEFLATED):
            raise ValueError(f"{where} uses unsupported compression method {member.method}")
        fh.seek(member.offset)
        local = fh.read(_LOCAL_SIZE)
        if len(local) != _LOCAL_SIZE or local[:4] != b"PK\x03\x04":
            raise ValueError(f"{where}: bad local file header")
        fh.seek(sum(struct.unpack_from("<2H", local, 26)), os.SEEK_CUR)
        try:
            if limit is not None:
                return self._head(fh, member, limit)
            if member.method == _STORED:
                data = bytearray(member.size)
                got = fh.readinto(data)
            else:
                data = zlib.decompress(fh.read(member.csize), -15, member.size)
                got = len(data)
        except zlib.error as exc:
            raise ValueError(f"{where}: corrupt deflate stream ({exc})") from None
        if got != member.size:
            raise ValueError(f"{where}: {got} bytes, expected {member.size}")
        if zlib.crc32(data) != member.crc:
            raise ValueError(f"{where}: bad CRC-32")
        return data

    @staticmethod
    def _head(fh, member: _Member, limit: int) -> bytes:
        if member.method == _STORED:
            return fh.read(min(limit, member.size))
        # Inflate chunk by chunk until `limit` bytes are out: a member may be
        # far larger than its header.  Each call either stops at the limit
        # or consumes its whole chunk, so no input is left behind.
        inflate = zlib.decompressobj(-15)
        head, left = b"", member.csize
        while len(head) < limit and left:
            chunk = fh.read(min(left, 4096))
            if not chunk:
                break
            left -= len(chunk)
            head += inflate.decompress(chunk, limit - len(head))
        return head
