"""Output writers: persist job results in record formats.

The paper's jobs end with results in memory; a usable system also writes
them back out.  ``write_terasort_output`` emits the standard
``key<SP>payload\\r\\n`` records (round-trippable through
:class:`~repro.io.records.TeraRecordCodec`), ``write_text_pairs`` a
``key<TAB>value`` text dump for the aggregate jobs.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Hashable, Iterable

from repro.errors import WorkloadError
from repro.io.records import TeraRecordCodec

_FLUSH_BYTES = 1 << 20


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
