"""Output writers: persist job results in record formats.

The paper's jobs end with results in memory; a usable system also writes
them back out.  ``write_terasort_output`` emits the standard
``key<SP>payload\\r\\n`` records (round-trippable through
:class:`~repro.io.records.TeraRecordCodec`), ``write_text_pairs`` a
``key<TAB>value`` text dump for the aggregate jobs.

:class:`FramedRecordWriter` is the binary framing the out-of-core spill
subsystem (:mod:`repro.spill`) stores its run files in: each frame is a
4-byte big-endian payload length and a 4-byte count of the logical
records inside, followed by that many payload bytes, with a running
CRC-32 so readers can reject corrupted or truncated files.  The one
decoder lives beside the container format that owns the layout
(:class:`repro.spill.runfile.RunReader`).
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path
from typing import Any, BinaryIO, Hashable, Iterable

from repro.errors import WorkloadError
from repro.io.records import TeraRecordCodec

_FLUSH_BYTES = 1 << 20

#: payload_len(I) records(I): one frame carries a block of records, and
#: its count sits outside the payload so a scan can total the counts
#: without decoding anything.
_FRAME_PREFIX = struct.Struct(">II")


def write_terasort_output(
    path: str | Path,
    pairs: Iterable[tuple[bytes, bytes]],
    codec: TeraRecordCodec | None = None,
) -> int:
    """Write (key, payload) pairs as terasort records; returns bytes."""
    codec = codec or TeraRecordCodec()
    written = 0
    buf: list[bytes] = []
    buffered = 0
    with open(path, "wb") as fh:
        for key, payload in pairs:
            if len(key) != codec.key_len:
                raise WorkloadError(
                    f"key {key!r} is not {codec.key_len} bytes"
                )
            record = key + b" " + payload + codec.delimiter
            buf.append(record)
            buffered += len(record)
            if buffered >= _FLUSH_BYTES:
                fh.write(b"".join(buf))
                written += buffered
                buf, buffered = [], 0
        if buf:
            fh.write(b"".join(buf))
            written += buffered
    return written


class FramedRecordWriter:
    """Length-prefixed binary block framing with a running CRC-32.

    Writes go through a caller-supplied binary file object; the writer
    buffers small frames and tracks ``records``, ``payload_bytes`` and
    ``crc32`` so a container format (e.g. a spill run file) can persist
    them in its header.
    """

    def __init__(self, fh: BinaryIO) -> None:
        self._fh = fh
        self._buf: list[bytes] = []
        self._buffered = 0
        self.records = 0
        self.payload_bytes = 0
        self.crc32 = 0

    def write(self, payload: bytes, records: int = 1) -> None:
        """Append one frame whose payload encodes ``records`` records."""
        prefix = _FRAME_PREFIX.pack(len(payload), records)
        self.crc32 = zlib.crc32(payload, zlib.crc32(prefix, self.crc32))
        self._buf += (prefix, payload)
        size = len(prefix) + len(payload)
        self._buffered += size
        self.records += records
        self.payload_bytes += size
        if self._buffered >= _FLUSH_BYTES:
            self.flush()

    def flush(self) -> None:
        """Push buffered frames to the underlying file."""
        if self._buf:
            self._fh.write(b"".join(self._buf))
            self._buf, self._buffered = [], 0


def write_text_pairs(
    path: str | Path,
    pairs: Iterable[tuple[Hashable, Any]],
) -> int:
    """Write key<TAB>value lines (keys/values stringified; bytes decoded)."""

    def render(x: Any) -> str:
        if isinstance(x, bytes):
            return x.decode("utf-8", "backslashreplace")
        return str(x)

    lines = 0
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in pairs:
            fh.write(f"{render(key)}\t{render(value)}\n")
            lines += 1
    return lines
