"""Job specification: what the application supplies to the runtime.

Mirrors the Phoenix++ application contract (section V): the app provides
map/reduce callbacks and a container choice; SupMR apps additionally may
provide the ``set_data()`` callback, which the runtime invokes once per
ingest chunk to hand back "the chunk length and ingest chunk pointer"
(Table I) before mappers run on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Hashable, Iterable, Mapping, Sequence

from repro.chunking.chunk import Chunk
from repro.containers.base import Container, Emitter
from repro.containers.combiners import Combiner
from repro.errors import ConfigError
from repro.io.records import RecordCodec
from repro.io.span import ByteSpan

#: ``map_fn(ctx)`` parses ``ctx.data`` and emits via ``ctx.emit`` —
#: applications parse their own input, as Phoenix++ map tasks do.
MapFn = Callable[["MapContext"], None]
#: ``reduce_fn(key, values) -> iterable of (key, value)`` output pairs.
ReduceFn = Callable[[Hashable, Sequence[Any]], Iterable[tuple[Hashable, Any]]]
#: SupMR's set_data callback: (chunk, length) -> None.
SetDataFn = Callable[[Chunk, int], None]
#: Sort key for the merge phase, applied to output (key, value) pairs.
OutputKeyFn = Callable[[tuple[Hashable, Any]], Any]


@dataclass
class MapContext:
    """Everything one map task sees: its split bytes and an emit handle.

    ``data`` is bytes-like, not always ``bytes``: the zero-copy ingest
    path hands map functions a :class:`~repro.io.span.ByteSpan` window
    over the ingest buffer (thread/serial backends) or over a worker's
    ``mmap`` of the input file (process backend).  Spans support the
    full codec surface — ``find``, ``len``, slicing, ``endswith`` — and
    record slices come out as real ``bytes``; call ``bytes(ctx.data)``
    only if a whole-split copy is genuinely needed.

    Three ways to emit, all landing in the same container with the same
    result.  ``emit(key, value)`` is the per-record form: simplest, and
    each call pays the container's checks (for the hash container a
    Python-level hash, a lock and a combiner call).  A map function
    that parses a window of its split at once —
    ``codec.iter_windows(ctx.data)`` yields record-aligned ``bytes``
    windows of :data:`~repro.io.records.MAP_WINDOW_BYTES` — can hand
    over the whole batch instead: ``emit_many(pairs)`` for raw pairs
    (sort), or ``emit_combined(states, emits)`` for per-key combiner
    states it already folded from ``emits`` raw emits (word count's
    ``Counter(window.split())``).  The folded form takes the path a
    worker's :class:`~repro.containers.base.ContainerDelta` takes:
    ``Combiner.merge`` once per distinct key, and ``emits`` added to
    the stats once.
    """

    data: "bytes | bytearray | ByteSpan"
    emitter: Emitter
    task_id: int
    chunk_index: int = 0

    def emit(self, key: Hashable, value: Any) -> None:
        """Emit one intermediate (key, value) pair."""
        self.emitter.emit(key, value)

    def emit_many(self, pairs: Iterable[tuple[Hashable, Any]]) -> None:
        """Emit a batch of raw pairs (same meaning as a loop of ``emit``)."""
        self.emitter.emit_many(pairs)

    def emit_combined(self, states: Mapping[Hashable, Any], emits: int) -> None:
        """Emit per-key combiner states folded from ``emits`` raw emits."""
        self.emitter.emit_combined(states, emits)


def identity_reduce(
    key: Hashable, values: Sequence[Any]
) -> Iterable[tuple[Hashable, Any]]:
    """Default reduce: pass every value through unchanged."""
    for value in values:
        yield (key, value)


#: The pair's key, read in C: the merge calls this once per pair.
_default_output_key = itemgetter(0)


@dataclass
class JobSpec:
    """A MapReduce job: inputs, callbacks, container, codec."""

    name: str
    inputs: tuple[Path, ...]
    map_fn: MapFn
    container_factory: Callable[[], Container]
    reduce_fn: ReduceFn = identity_reduce
    codec: RecordCodec = field(default_factory=RecordCodec)
    #: Merge-phase sort key over output (key, value) pairs.
    output_key: OutputKeyFn = _default_output_key
    #: SupMR callback (Table I): observe each chunk before mapping it.
    set_data: SetDataFn | None = None
    #: Skip the merge phase entirely (jobs with unordered output).
    sorted_output: bool = True
    #: Emit-level combiner safe to fold *raw* emitted values at spill
    #: time (combine-on-spill under a memory budget).  Jobs whose
    #: container already combines on insert (hash container) can leave
    #: this None — the spill subsystem picks the container's combiner up
    #: automatically.
    spill_combiner: Combiner | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("job needs a name")
        self.inputs = tuple(Path(p) for p in self.inputs)
        if not self.inputs:
            raise ConfigError(f"job {self.name!r} has no input files")

    @property
    def total_input_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.inputs)
