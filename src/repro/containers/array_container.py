"""Unlocked array container (Phoenix's "unlocked storage").

For sort-shaped applications every key is unique, so combining is wasted
work and key lookups are pure overhead.  Phoenix's answer — adopted by
SupMR for sort (paper section V.B) — is an array all threads write
without synchronization: "each mapper outputs to its key range in the
array and each reducer operates only on its key range".

Here each map task appends to its own segment (segments are disjoint by
construction), the job's container adopts a task's segments whole, and
``partitions(n)`` hands reducers contiguous groups of segments.
Persistence across SupMR's many map rounds falls out naturally: segments
accumulate per (round, task).
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Any, Hashable, Iterable, Iterator, Mapping

from repro.containers.base import (
    Container,
    ContainerDelta,
    ContainerStats,
    Emitter,
    RecordPartition,
)
from repro.errors import ContainerError

_KEY, _VALUE = itemgetter(0), itemgetter(1)


def _cells_as_groups(
    segment: list[tuple[Hashable, Any]],
) -> Iterator[tuple[Hashable, tuple[Any]]]:
    """Every cell its own group, ``(key, (value,))``, zipped straight
    off the segment as a reducer consumes it."""
    return zip(map(_KEY, segment), zip(map(_VALUE, segment)))


class _SegmentEmitter(Emitter):
    __slots__ = ("segment",)

    def __init__(self, container: "ArrayContainer", task_id: int,
                 segment: list) -> None:
        super().__init__(container, task_id)
        self.segment = segment

    def emit(self, key: Hashable, value: Any) -> None:
        self.container._check_open()
        self.segment.append((key, value))

    def emit_many(self, pairs: Iterable[tuple[Hashable, Any]]) -> None:
        """One open-check, one ``list.extend`` for the whole batch."""
        self.container._check_open()
        self.segment.extend(pairs)

    def emit_combined(self, states: Mapping[Hashable, Any], emits: int) -> None:
        """There is no combiner here, so each state is stored as the one
        value of its key — what reduce would have been handed had the
        job's own container combined.  ``emits`` is not kept: this
        container counts cells.
        """
        self.emit_many(states.items())


class ArrayContainer(Container):
    """Per-task append-only segments; zero synchronization on the emit path."""

    def __init__(self) -> None:
        super().__init__()
        self._segments: list[list[tuple[Hashable, Any]]] = []

    def emitter(self, task_id: int) -> Emitter:
        """Register a fresh private segment for one map task."""
        segment: list[tuple[Hashable, Any]] = []
        self._segments.append(segment)
        return _SegmentEmitter(self, task_id, segment)

    def _partition_segments(
        self, n: int
    ) -> list[list[list[tuple[Hashable, Any]]]]:
        """Partition ``i`` of ``n`` holds segments ``i, i + n, i + 2n, …``."""
        if n < 1:
            raise ContainerError("need at least one reducer partition")
        if not self.sealed:
            raise ContainerError("partitions() before seal()")
        return [self._segments[i::n] for i in range(n)]

    def partitions(self, n: int) -> list[list[tuple[Hashable, Any]]]:
        """Group segments into ``n`` reducer partitions.

        Values are wrapped in single-element lists to match the reduce
        signature (`reduce(key, values)`); keys are *not* assumed sorted.
        """
        return [
            [(key, [value]) for segment in segments for key, value in segment]
            for segments in self._partition_segments(n)
        ]

    def iter_partitions(self, n: int) -> list[RecordPartition]:
        """``partitions(n)`` as the segments themselves: a wrapper is
        built only for a reducer that asks for groups, and does not
        outlive its reduce call."""
        return [
            RecordPartition(segments, _cells_as_groups)
            for segments in self._partition_segments(n)
        ]

    def pairs(self) -> list[tuple[Hashable, Any]]:
        """The emitted records themselves, segment after segment."""
        if not self.sealed:
            raise ContainerError("pairs() before seal()")
        return list(chain.from_iterable(self._segments))

    def drain(self) -> ContainerDelta:
        """Pack this container's segments (non-empty only) for transport."""
        emits = sum(len(s) for s in self._segments)
        return ContainerDelta(
            kind="array",
            emits=emits,
            items=[s for s in self._segments if s],
        )

    def absorb(self, delta: ContainerDelta) -> None:
        """Adopt a worker's segments; they stay disjoint by construction."""
        if delta.kind != "array":
            raise ContainerError(
                f"ArrayContainer cannot absorb a {delta.kind!r} delta"
            )
        self._check_open()
        self._segments.extend(delta.items)

    def stats(self) -> ContainerStats:
        """Emit counters (every emit is a distinct cell here)."""
        emits = sum(len(s) for s in self._segments)
        return ContainerStats(emits=emits, distinct_keys=emits, rounds=self.rounds)

    def __len__(self) -> int:
        return sum(len(s) for s in self._segments)
