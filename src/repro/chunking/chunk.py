"""Chunk data structures: what the ingest thread loads and mappers see.

A :class:`Chunk` is a *description* (which byte ranges of which files);
:meth:`Chunk.load` materializes it into memory — that load is the ingest
work the pipeline overlaps with map computation.  This mirrors the
paper's external ingest-chunk library: "the chunk struct, a struct for
passing around the job state, and functions for reading chunks and
locating chunk boundaries" (section V.A).
"""

from __future__ import annotations

import mmap
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.errors import ChunkingError, FaultInjected
from repro.io.datafile import read_slice

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector
    from repro.qos.throttle import TokenBucket

#: Per-thread scratch buffer for :meth:`Chunk.warm`.  Warm is called once
#: per chunk per ingest reader; with multi-reader prefetch that is a hot
#: path, and reusing one buffer per thread (threads never share it, so no
#: locking) avoids a fresh megabyte allocation per chunk.
_warm_local = threading.local()


def _warm_scratch(size: int) -> memoryview:
    """Return this thread's warm buffer, growing it to ``size`` if needed."""
    buf = getattr(_warm_local, "buf", None)
    if buf is None or len(buf) < size:
        buf = bytearray(size)
        _warm_local.buf = buf
    return memoryview(buf)


@dataclass(frozen=True)
class ChunkSource:
    """One contiguous byte range of one file."""

    path: Path
    offset: int
    length: int

    def __post_init__(self) -> None:
        if self.offset < 0 or self.length < 0:
            raise ChunkingError(f"bad source range {self!r}")


@dataclass(frozen=True)
class Chunk:
    """An ingest chunk: ordered source ranges totalling ``length`` bytes."""

    index: int
    sources: tuple[ChunkSource, ...]

    @property
    def length(self) -> int:
        return sum(s.length for s in self.sources)

    @property
    def paths(self) -> tuple[Path, ...]:
        return tuple(s.path for s in self.sources)

    def load(
        self,
        injector: "FaultInjector | None" = None,
        attempt: int = 0,
        throttle: "TokenBucket | None" = None,
    ) -> "bytes | bytearray":
        """Read the chunk into memory (the ingest-phase work).

        With an armed ``injector`` this is the retry *unit* for the
        ``ingest.read`` fault site: every source is checked on each
        attempt before the first injected error fails it, and injected
        short reads are detected against the planned chunk length, so
        the runtime's bounded retry re-loads the whole chunk.

        With a ``throttle`` (:class:`repro.qos.throttle.TokenBucket`)
        the chunk's bytes are charged against the job's I/O budget
        before they are read — the ingest half of bandwidth isolation.
        Retries re-charge, because a retry re-reads the bytes.

        The fault-free paths avoid ``read_slice``'s seek+read+concat
        copy chain: single-source chunks slice one copy straight out of
        an ``mmap`` of the file, and multi-source chunks ``readinto`` a
        preallocated buffer so the parts are never joined.  The injector
        path keeps ``read_slice`` because that is where the
        ``ingest.read`` fault site lives.
        """
        if injector is None:
            if throttle is not None:
                throttle.acquire(self.length)
            if len(self.sources) == 1:
                return self._load_single_mmap(self.sources[0])
            return self._load_multi_readinto()
        parts, failed = [], None
        for i, src in enumerate(self.sources):
            try:
                parts.append(read_slice(
                    src.path, src.offset, src.length,
                    injector=injector, scope=(self.index, i),
                    attempt=attempt, throttle=throttle,
                ))
            except FaultInjected as exc:
                failed = failed or exc
        if failed is not None:
            raise failed
        data = parts[0] if len(parts) == 1 else b"".join(parts)
        if len(data) != self.length:
            from repro.faults.plan import SITE_INGEST_READ

            raise FaultInjected(
                f"chunk {self.index}: short read "
                f"({len(data)} of {self.length} bytes)",
                site=SITE_INGEST_READ,
            )
        return data

    @staticmethod
    def _load_single_mmap(src: ChunkSource) -> bytes:
        """One mmap slice: a single kernel-to-user copy, no seek dance."""
        if src.length == 0:
            return b""
        with open(src.path, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            if size == 0:
                return b""
            with mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ) as mm:
                start = min(src.offset, size)
                return mm[start:min(src.offset + src.length, size)]

    def _load_multi_readinto(self) -> bytearray:
        """All sources read straight into one preallocated buffer.

        Each source lands at its final position via ``readinto`` on a
        ``memoryview`` window, so there is no per-part bytes object and
        no ``b"".join`` pass.  Short files shrink the buffer (matching
        the old path, where ``read_slice`` simply returned fewer bytes).
        """
        buf = bytearray(self.length)
        view = memoryview(buf)
        filled = 0
        for src in self.sources:
            if src.length == 0:
                continue
            try:
                f = open(src.path, "rb")
            except OSError:
                continue
            with f:
                f.seek(src.offset)
                want = src.length
                while want:
                    got = f.readinto(view[filled:filled + want])
                    if not got:
                        break
                    filled += got
                    want -= got
        del view
        if filled != len(buf):
            del buf[filled:]
        return buf

    def warm(
        self,
        buffer_size: int = 1 << 20,
        throttle: "TokenBucket | None" = None,
    ) -> int:
        """Touch every source byte so it lands in the page cache.

        The process backend's ingest phase: the pipeline's background
        loader warms the chunk instead of materializing it, and the
        forked mappers then fault their split windows in from cache.
        Returns the number of bytes touched.  A ``throttle`` charges the
        chunk's bytes up front, same as :meth:`load` — exactly once per
        chunk, regardless of how many prefetch readers are running.

        Reads go through a per-thread reusable scratch buffer: warm is
        never the consumer of the bytes, so the buffer's contents are
        discarded and each ingest reader can recycle one allocation
        across every chunk it touches.
        """
        if throttle is not None:
            throttle.acquire(self.length)
        view = _warm_scratch(buffer_size)
        touched = 0
        for src in self.sources:
            try:
                f = open(src.path, "rb")
            except OSError:
                continue
            with f:
                f.seek(src.offset)
                want = src.length
                while want:
                    got = f.readinto(view[:min(want, buffer_size)])
                    if not got:
                        break
                    touched += got
                    want -= got
        return touched


@dataclass(frozen=True)
class ChunkPlan:
    """The full ordered chunk stream for a job."""

    chunks: tuple[Chunk, ...]
    strategy: str  # "inter-file" | "intra-file" | "whole-input"
    requested_size: int | None = None  # bytes (inter) or files (intra)
    notes: tuple[str, ...] = field(default=())

    @property
    def n_chunks(self) -> int:
        return len(self.chunks)

    @property
    def total_bytes(self) -> int:
        return sum(c.length for c in self.chunks)

    def __iter__(self) -> Iterator[Chunk]:
        return iter(self.chunks)

    def validate_contiguous(self) -> None:
        """Sanity check: chunks tile their files without gaps or overlap."""
        cursor: dict[Path, int] = {}
        for chunk in self.chunks:
            for src in chunk.sources:
                expected = cursor.get(src.path, 0)
                if src.offset != expected:
                    raise ChunkingError(
                        f"chunk {chunk.index}: {src.path} resumes at "
                        f"{src.offset}, expected {expected}"
                    )
                cursor[src.path] = src.offset + src.length
