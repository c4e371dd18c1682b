"""Sharded hash container with on-insert combining.

The Phoenix++ default: each key hashes to a cell; emitting checks the
cell and combines.  Good when the intermediate set is much smaller than
the input (word count), poor for sort-shaped jobs with unique keys — the
per-emit key lookup and the reduce-phase sweep over cells are exactly the
costs the paper calls out in section V.B.

Sharding bounds lock contention: each shard has its own mutex, and a map
task only locks the shard its key hashes to.  (Under CPython the GIL
already serializes bytecode, but the locking discipline keeps the
implementation faithful and safe for alternative interpreters.)
"""

from __future__ import annotations

import threading
from operator import itemgetter
from typing import Any, Hashable, Mapping

from repro.containers.base import (
    Container,
    ContainerDelta,
    ContainerStats,
    Emitter,
)
from repro.containers.combiners import Combiner, ListCombiner
from repro.errors import ContainerError
from repro.util.hashing import stable_hash, stable_hash_many

_KEY = itemgetter(0)


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
    """Thread-safe hash of key -> combined state."""

    def __init__(self, combiner: Combiner | None = None, shards: int = 16) -> None:
        super().__init__()
        if shards < 1:
            raise ContainerError("shards must be >= 1")
        self.combiner = combiner or ListCombiner()
        self._shards = [dict() for _ in range(shards)]
        self._locks = [threading.Lock() for _ in range(shards)]
        # Emits are counted per shard, under the lock the insert already
        # holds; a batch (absorb / emit_combined) adds its pre-combine
        # count once, under its own lock.  No counter has two writers.
        self._shard_emits = [0] * shards
        self._batch_lock = threading.Lock()
        self._batch_emits = 0

    def emitter(self, task_id: int) -> Emitter:
        """A task-bound emit handle (shared shards underneath)."""
        return _HashEmitter(self, task_id)

    def _emit_count(self) -> int:
        return sum(self._shard_emits) + self._batch_emits

    def _insert(self, key: Hashable, value: Any) -> None:
        self._check_open()
        idx = stable_hash(key) % len(self._shards)
        shard = self._shards[idx]
        with self._locks[idx]:
            self._shard_emits[idx] += 1
            if key in shard:
                shard[key] = self.combiner.update(shard[key], value)
            else:
                shard[key] = self.combiner.initial(value)

    def partitions(self, n: int) -> list[list[tuple[Hashable, Any]]]:
        """Reducer partitions by key hash; values are combiner-finished."""
        if n < 1:
            raise ContainerError("need at least one reducer partition")
        if not self.sealed:
            raise ContainerError("partitions() before seal()")
        items = [item for shard in self._shards for item in shard.items()]
        finish = self.combiner.finish
        if n == 1:  # one partition takes every key: nothing to hash
            return [[(key, finish(state)) for key, state in items]]
        parts: list[list[tuple[Hashable, Any]]] = [[] for _ in range(n)]
        for (key, state), h in zip(items, stable_hash_many(map(_KEY, items))):
            parts[h % n].append((key, finish(state)))
        return parts

    def pairs(self) -> list[tuple[Hashable, Any]]:
        """Shard after shard, each key's finished values in order."""
        if not self.sealed:
            raise ContainerError("pairs() before seal()")
        finish = self.combiner.finish
        return [
            (key, value)
            for shard in self._shards
            for key, state in shard.items()
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
        items = [
            (key, state) for shard in self._shards for key, state in shard.items()
        ]
        return ContainerDelta(kind="hash", emits=self._emit_count(), items=items)

    def absorb(self, delta: ContainerDelta) -> None:
        """Merge a worker's combined pairs into the live shards."""
        if delta.kind != "hash":
            raise ContainerError(
                f"HashContainer cannot absorb a {delta.kind!r} delta"
            )
        self._check_open()
        # One hash over the key column, then each shard's share of the
        # batch under one hold of its lock, in the delta's order.  The
        # batch lock is held throughout (numpy drops the GIL while it
        # hashes), so concurrent deltas land whole, in arrival order.
        with self._batch_lock:
            items = list(delta.items)
            batches: list[list[tuple[Hashable, Any]]] = [
                [] for _ in self._shards
            ]
            for item, h in zip(items, stable_hash_many(map(_KEY, items))):
                batches[h % len(batches)].append(item)
            merge = self.combiner.merge
            for shard, lock, batch in zip(self._shards, self._locks, batches):
                if not batch:
                    continue
                with lock:
                    for key, state in batch:
                        if key in shard:
                            shard[key] = merge(shard[key], state)
                        else:
                            shard[key] = state
            self._batch_emits += delta.emits

    def stats(self) -> ContainerStats:
        """Emit/key counters across all shards."""
        return ContainerStats(
            emits=self._emit_count(),
            distinct_keys=sum(len(s) for s in self._shards),
            rounds=self.rounds,
        )

    def __len__(self) -> int:
        return sum(len(s) for s in self._shards)
