"""Hash container with on-insert combining.

The Phoenix++ default: each key has a cell; emitting checks the cell and
combines.  Good when the intermediate set is much smaller than the input
(word count), poor for sort-shaped jobs with unique keys — the per-emit
key lookup and the reduce-phase sweep over cells are exactly the costs
the paper calls out in section V.B.

The cells are one ``dict``, in first-emit order, with one writer: a
map task writes its own private container, and the round thread absorbs
the tasks' deltas into the job's.  A key is hashed once, by
``partitions(n)``, when the reducer partitions are cut; nothing on the
way in hashes it.
"""

from __future__ import annotations

from typing import Any, Hashable, Mapping

from repro.containers.base import (
    Container,
    ContainerDelta,
    ContainerStats,
    Emitter,
)
from repro.containers.combiners import Combiner, ListCombiner
from repro.errors import ContainerError
from repro.util.hashing import stable_hash_many


class _HashEmitter(Emitter):
    __slots__ = ()

    def emit(self, key: Hashable, value: Any) -> None:
        self.container._insert(key, value)  # type: ignore[attr-defined]

    def emit_combined(self, states: Mapping[Hashable, Any], emits: int) -> None:
        """Merge the task's folded states as a worker's delta is merged."""
        self.container.absorb(
            ContainerDelta(kind="hash", emits=emits, items=states.items())
        )


class HashContainer(Container):
    """Hash of key -> combined state, in first-emit order."""

    def __init__(self, combiner: Combiner | None = None) -> None:
        super().__init__()
        self.combiner = combiner or ListCombiner()
        self._cells: dict[Hashable, Any] = {}
        self._emits = 0

    def emitter(self, task_id: int) -> Emitter:
        """A task-bound emit handle (the container's cells underneath)."""
        return _HashEmitter(self, task_id)

    def _insert(self, key: Hashable, value: Any) -> None:
        self._check_open()
        cells = self._cells
        self._emits += 1
        if key in cells:
            cells[key] = self.combiner.update(cells[key], value)
        else:
            cells[key] = self.combiner.initial(value)

    def partitions(self, n: int) -> list[list[tuple[Hashable, Any]]]:
        """Reducer partitions by key hash; values are combiner-finished."""
        if n < 1:
            raise ContainerError("need at least one reducer partition")
        if not self.sealed:
            raise ContainerError("partitions() before seal()")
        finish = self.combiner.finish
        if n == 1:  # one partition takes every key: nothing to hash
            return [[(key, finish(state)) for key, state in self._cells.items()]]
        parts: list[list[tuple[Hashable, Any]]] = [[] for _ in range(n)]
        hashes = stable_hash_many(self._cells)
        for (key, state), h in zip(self._cells.items(), hashes):
            parts[h % n].append((key, finish(state)))
        return parts

    def pairs(self) -> list[tuple[Hashable, Any]]:
        """Key after key, each key's finished values in order."""
        if not self.sealed:
            raise ContainerError("pairs() before seal()")
        finish = self.combiner.finish
        return [
            (key, value)
            for key, state in self._cells.items()
            for value in finish(state)
        ]

    def drain(self) -> ContainerDelta:
        """Pack combined (key, state) pairs for the parent to absorb.

        States are *pre-finish* combiner states, so absorbing merges
        them with :meth:`~repro.containers.combiners.Combiner.merge`
        instead of re-running ``initial``/``update`` per original emit —
        that is the in-worker-combining payoff: the pipe carries one
        pair per distinct key, not one per emit.
        """
        items = list(self._cells.items())
        return ContainerDelta(kind="hash", emits=self._emits, items=items)

    def absorb(self, delta: ContainerDelta) -> None:
        """Merge a worker's combined pairs into the live cells."""
        if delta.kind != "hash":
            raise ContainerError(
                f"HashContainer cannot absorb a {delta.kind!r} delta"
            )
        self._check_open()
        cells, merge = self._cells, self.combiner.merge
        for key, state in delta.items:
            if key in cells:
                cells[key] = merge(cells[key], state)
            else:
                cells[key] = state
        self._emits += delta.emits

    def stats(self) -> ContainerStats:
        """Emit/key counters."""
        return ContainerStats(
            emits=self._emits, distinct_keys=len(self._cells), rounds=self.rounds
        )

    def __len__(self) -> int:
        return len(self._cells)
