r"""Record codecs: how raw input bytes decompose into records.

The chunking layer needs exactly one fact about the data — the record
*delimiter* — to adjust split points so no key or value straddles two
ingest chunks (paper section III.A.1: "each key-value pair in the input
for Terasort is terminated with \r\n, so the split function continually
increases the split point until reaching a newline").  The map phase
additionally needs to parse records into key/value pairs; both concerns
live here.

Codecs operate on ``bytes`` and never copy more than the records they
yield — ingest chunks can be hundreds of MB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import WorkloadError

#: How much of its split a map task parses at once.  The bundled apps
#: fold one window with C primitives (``bytes.split``, ``Counter``) and
#: hand the container the result, so a task's transient memory is a few
#: times this — not a few times a 1 GB paper-scale chunk.  A constant,
#: not an option: 256 KiB already amortizes the per-window Python to
#: noise, and nothing is gained by tuning it per job.
MAP_WINDOW_BYTES = 256 * 1024


def corrupt_record(record: bytes, salt: int = 0) -> bytes:
    """A deterministically damaged copy of ``record`` (fault injection).

    Models bit rot the way the ``record.corrupt`` fault site needs it:
    a delimiter-free garbage prefix replaces the head of the record, so
    the result still parses as *one* record but fails structural
    validation wherever the codec can check structure.  Pure function of
    ``(record, salt)`` — same plan seed, same corruption.
    """
    garbage = bytes((salt + 0x9E + i * 31) % 251 + 1 for i in range(8))
    garbage = garbage.replace(b"\n", b"\x01").replace(b"\r", b"\x02")
    return garbage + record[len(garbage):]


@dataclass(frozen=True)
class RecordCodec:
    """Base codec: newline-delimited records, whole line is the payload."""

    delimiter: bytes = b"\n"

    def validate(self, record: bytes) -> bool:
        """Best-effort structural check of one raw record.

        The base codec has no structure to check (any byte run is a
        legal line), so detection of corrupt records falls back to the
        injector's ground truth — mirroring real pipelines, where
        *record-level checksums*, not parsers, catch rot in free text.
        Structured codecs override this with real checks.
        """
        return self.delimiter not in record

    def iter_records(self, data: bytes) -> Iterator[bytes]:
        """Yield raw records (without the delimiter)."""
        if not data:
            return
        start = 0
        dlen = len(self.delimiter)
        while True:
            idx = data.find(self.delimiter, start)
            if idx == -1:
                if start < len(data):
                    yield data[start:]
                return
            yield data[start:idx]
            start = idx + dlen

    def split_records(self, data: bytes) -> list[bytes]:
        """``list(iter_records(data))`` from one C-level ``split``.

        ``data`` must be real ``bytes`` (a window from
        :meth:`iter_windows`).  Empty records between two delimiters are
        kept; the empty fragment after a final delimiter is not.
        """
        records = data.split(self.delimiter)
        if not records[-1]:
            records.pop()
        return records

    def record_end(self, data: bytes, pos: int) -> int:
        """Smallest offset >= ``pos`` that ends a record (after delimiter).

        Returns ``len(data)`` when no delimiter follows (the final,
        possibly unterminated record).
        """
        if pos >= len(data):
            return len(data)
        idx = data.find(self.delimiter, pos)
        if idx == -1:
            return len(data)
        return idx + len(self.delimiter)

    def iter_windows(self, data: bytes) -> Iterator[bytes]:
        """Yield ``data`` as consecutive record-aligned ``bytes`` windows.

        Each window is cut at the first record end at or past
        :data:`MAP_WINDOW_BYTES`, so no record straddles two windows and
        the windows concatenate back to ``data``.  Windows are real
        ``bytes`` whatever ``data`` is (``bytearray``, an mmap-backed
        :class:`~repro.io.span.ByteSpan`), so their pieces are hashable.
        """
        start, size = 0, len(data)
        while start < size:
            end = self.record_end(data, min(start + MAP_WINDOW_BYTES, size))
            yield bytes(data[start:end])
            start = end


@dataclass(frozen=True)
class TeraRecordCodec(RecordCodec):
    r"""Terasort-style records: ``<key> <payload>\r\n``.

    ``key_len`` ASCII bytes of key, one space, a payload, CRLF terminator —
    100 bytes per record by default, mirroring gensort's layout in the
    textual form the paper describes.
    """

    delimiter: bytes = b"\r\n"
    key_len: int = 10
    record_len: int = 100

    def validate(self, record: bytes) -> bool:
        """Terasort records have checkable structure: printable-ASCII
        key, separator space, full payload length."""
        if len(record) < self.key_len + 1:
            return False
        if record[self.key_len:self.key_len + 1] != b" ":
            return False
        return all(0x20 <= b < 0x7F for b in record[: self.key_len])

    def split_record(self, record: bytes) -> tuple[bytes, bytes]:
        """(key, payload) for one raw record."""
        if len(record) < self.key_len + 1:
            raise WorkloadError(f"terasort record too short: {record!r}")
        return record[: self.key_len], record[self.key_len + 1:]

    def iter_pairs(self, data: bytes) -> Iterator[tuple[bytes, bytes]]:
        """Yield (key, payload) per record in ``data``."""
        for record in self.iter_records(data):
            if record:  # tolerate a trailing empty fragment
                yield self.split_record(record)

    def split_pairs(self, data: bytes) -> list[tuple[bytes, bytes]]:
        """``list(iter_pairs(data))`` from one ``split`` and one slicing
        pass; ``data`` must be real ``bytes``.  A short record raises
        the same :class:`~repro.errors.WorkloadError`.
        """
        records = [r for r in data.split(self.delimiter) if r]
        klen = self.key_len
        if records and min(map(len, records)) <= klen:
            for record in records:
                self.split_record(record)  # raises on the first short one
        return [(r[:klen], r[klen + 1:]) for r in records]


@dataclass(frozen=True)
class TextCodec(RecordCodec):
    """Plain text: newline-delimited lines, whitespace-separated words."""

    delimiter: bytes = b"\n"

    def iter_words(self, data: bytes) -> Iterator[bytes]:
        """Yield whitespace-separated words across lines."""
        for line in self.iter_records(data):
            yield from line.split()


@dataclass(frozen=True)
class WholeLineCodec(RecordCodec):
    """Each line is one record whose key is the entire line (grep/index)."""

    delimiter: bytes = b"\n"

    def iter_lines(self, data: bytes) -> Iterator[bytes]:
        """Yield each line as one record."""
        yield from self.iter_records(data)
