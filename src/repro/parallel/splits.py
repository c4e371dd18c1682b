"""Split descriptors: name a mapper's input without shipping its bytes.

The process backend's ingest contract: the parent decides *where* each
mapper's split begins and ends (record-aligned, exactly as
``split_for_mappers`` would cut it), but only the worker ever reads the
split's bytes — through an ``mmap`` of the source file, so the kernel
pages data straight into the worker that consumes it.  A
:class:`SplitRef` is that decision: ``(path, offset, length)`` in
absolute file coordinates.

To plan the cuts without reading the chunk, the parent mmaps the file
itself and runs the *same* ``split_for_mappers`` over a zero-copy
:class:`~repro.io.span.ByteSpan` window — only the pages around each
candidate boundary actually fault in.  Because planner and worker share
one splitting function, their boundaries agree by construction.

Chunks backed by multiple file ranges (intra-file chunking packs many
small inputs into one chunk) have no single contiguous window to
describe, so :func:`split_refs_for_chunk` declines (returns ``None``)
and the caller loads the bytes in the parent and ships each task its
own window through the same pool — still parallel, just not zero-copy.
"""

from __future__ import annotations

import mmap
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.io.span import ByteSpan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.chunking.chunk import Chunk


@dataclass(frozen=True)
class SplitRef:
    """One mapper's input: a record-aligned byte range of a file."""

    path: str
    offset: int
    length: int

    def resolve(self) -> ByteSpan:
        """Open the range as a zero-copy window (mmap-backed).

        Called in the worker.  The file descriptor is closed immediately
        — the mapping survives it — and the mapping itself is released
        when the returned span (which keeps the ``mmap`` alive via its
        ``base`` reference) is garbage collected.
        """
        if self.length == 0:
            return ByteSpan(b"")
        with open(self.path, "rb") as f:
            mm = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
        stop = min(self.offset + self.length, len(mm))
        return ByteSpan(mm, min(self.offset, stop), stop)


class ChunkHandle:
    """A chunk the runtime has *named* but deliberately not loaded.

    The SupMR ingest pipeline hands each round's input to the mapper
    wave as a bytes-like object.  Under the process backend the parent
    should not materialize those bytes at all — the workers read them
    through :class:`SplitRef` windows — so the pipeline carries this
    handle instead.  It knows its length (the pipeline and the wave size
    splits from it) and still produces real bytes when a chunk has no
    one file range to name.
    """

    __slots__ = ("chunk",)

    def __init__(self, chunk: "Chunk") -> None:
        self.chunk = chunk

    def __len__(self) -> int:
        return self.chunk.length

    def load(self) -> bytes:
        """Materialize the chunk's bytes (multi-source chunks)."""
        return bytes(self.chunk.load())

    def __repr__(self) -> str:
        return f"ChunkHandle(chunk={self.chunk.index}, {len(self)}B)"


def split_refs_for_chunk(
    chunk: "Chunk", n_splits: int, delimiter: bytes
) -> list[SplitRef] | None:
    """Plan record-aligned :class:`SplitRef` ranges for ``chunk``.

    Returns ``None`` when the chunk cannot be described as one
    contiguous file range (multi-source chunks, vanished files) — the
    caller then loads the bytes in the parent.  Boundary planning
    reuses :func:`~repro.core.execution.split_for_mappers` over an
    mmap-backed span, so the cuts are byte-identical to what the
    load-everything path would produce.
    """
    # Imported here: core.execution imports this module for its process
    # dispatch, and planning needs execution's splitter back.
    from repro.core.execution import split_for_mappers

    if len(chunk.sources) != 1:
        return None
    src = chunk.sources[0]
    try:
        size = os.path.getsize(src.path)
    except OSError:
        return None
    start = min(src.offset, size)
    stop = min(src.offset + src.length, size)
    if start >= stop:
        return []
    with open(src.path, "rb") as f:
        mm = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    try:
        window = ByteSpan(mm, start, stop)
        spans = split_for_mappers(window, n_splits, delimiter)
        return [
            SplitRef(src.path, span.start, span.stop - span.start)
            for span in spans
        ]
    finally:
        mm.close()
