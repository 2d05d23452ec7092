"""Length + CRC record framing for the append-only log files.

Every log in :mod:`repro.store` is a file header followed by a sequence
of self-delimiting records::

    file   := magic(8) version(u16 LE) record*
    record := length(u32 LE) crc32(u32 LE) payload(length bytes)

The CRC covers the payload only; the length field is bounded by
:data:`MAX_RECORD_SIZE` so a corrupted length cannot make the scanner
swallow the rest of the file as one giant record.

A crash can leave a *torn tail*: a partially written record (short
header, short payload) or a record whose payload no longer matches its
CRC.  :func:`scan_records` stops at the first bad record and reports the
byte offset up to which the file is trustworthy; the writer truncates
there before appending again.  Everything before that offset is intact —
framing errors never propagate backwards.
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from dataclasses import dataclass, field

FILE_VERSION = 1
_FILE_HEADER = struct.Struct("<8sH")
_RECORD_HEADER = struct.Struct("<II")

# A single record larger than this is evidence of corruption, not data
# (our largest payload is one max-size block plus a few bytes of framing).
MAX_RECORD_SIZE = 16 * 1024 * 1024


class FramingError(ValueError):
    """A log file has an unrecognized header (wrong magic or version)."""


@dataclass
class ScanResult:
    """Outcome of scanning one log file."""

    records: list[tuple[int, bytes]] = field(default_factory=list)
    """(offset_of_record_start, payload) for every intact record."""

    valid_length: int = 0
    """File is trustworthy up to this byte offset (truncate here)."""

    truncated_bytes: int = 0
    """Bytes past ``valid_length`` dropped by the torn/corrupt tail."""

    crc_failures: int = 0
    """1 if the scan stopped on a CRC mismatch (0 for a clean or torn end)."""


def write_file_header(fh, magic: bytes) -> int:
    """Write the 10-byte file header; returns its size."""
    header = _FILE_HEADER.pack(magic, FILE_VERSION)
    fh.write(header)
    return len(header)


def encode_record(payload: bytes) -> bytes:
    """Frame one payload as ``length crc payload``."""
    if len(payload) > MAX_RECORD_SIZE:
        raise ValueError("record exceeds maximum size")
    return (
        _RECORD_HEADER.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF)
        + payload
    )


def scan_records(path: str | os.PathLike, magic: bytes) -> ScanResult:
    """Read every intact record of ``path``; tolerate a torn/corrupt tail.

    Raises :class:`FramingError` if the file header itself is wrong (a
    log that never finished its 10-byte header counts as empty instead —
    that, too, is a torn tail).
    """
    result = ScanResult()
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return result
    header_size = _FILE_HEADER.size
    if len(data) < header_size:
        # Torn before the header finished: the whole file is discarded.
        result.truncated_bytes = len(data)
        return result
    got_magic, version = _FILE_HEADER.unpack_from(data, 0)
    if got_magic != magic or version != FILE_VERSION:
        raise FramingError(
            f"{os.fspath(path)}: bad log header "
            f"(magic={got_magic!r}, version={version})"
        )
    offset = header_size
    result.valid_length = offset
    while offset < len(data):
        if offset + _RECORD_HEADER.size > len(data):
            break  # torn record header
        length, crc = _RECORD_HEADER.unpack_from(data, offset)
        if length > MAX_RECORD_SIZE:
            result.crc_failures = 1  # corrupt length field
            break
        start = offset + _RECORD_HEADER.size
        end = start + length
        if end > len(data):
            break  # torn payload
        payload = data[start:end]
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            result.crc_failures = 1
            break
        result.records.append((offset, payload))
        offset = end
        result.valid_length = offset
    result.truncated_bytes = len(data) - result.valid_length
    return result


def open_for_append(
    path: str | os.PathLike, magic: bytes, valid_length: int
) -> io.BufferedWriter:
    """Open a log for appending, truncating any torn tail first.

    A missing or header-torn file (``valid_length == 0``) is recreated
    from scratch with a fresh file header.
    """
    if valid_length < _FILE_HEADER.size:
        fh = open(path, "wb")
        write_file_header(fh, magic)
        fh.flush()
        return fh
    fh = open(path, "r+b")
    fh.truncate(valid_length)
    fh.seek(valid_length)
    return fh
