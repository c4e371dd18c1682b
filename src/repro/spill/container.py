"""Budget-enforcing container wrapper: the spill subsystem's front door.

:class:`SpillableContainer` wraps any :class:`repro.containers.base.Container`
and gives it out-of-core semantics: every emit is charged to the
manager's :class:`~repro.spill.accountant.MemoryAccountant` *before* it
lands, and when the next emit would cross the budget the live inner
container is drained — its flat ``(key, value)`` records sorted,
optionally combined — into a run file and replaced by a fresh one.  A
batch of emits is sized as a whole and cut by bisection at exactly
those pairs, so the gate costs one charge and one inner call per run
file, not per pair.  ``iter_partitions(n)`` then streams all runs plus
the resident container through the external p-way merge, a block of
records at a time, and hands each partition over as those records: a
reducer that wants groups gets them built as it walks its partition, the
identity reducer takes the records, and nothing is wrapped in between.

Two properties the rest of the system relies on:

* **Zero-spill transparency** — if the budget is never crossed,
  ``partitions(n)`` delegates to the inner container untouched, so a
  budgeted run that happens to fit in memory is *bit-identical* to an
  unbudgeted one by construction.
* **Spilled equivalence** — with spills, partitions are formed by key
  hash over the merged stream (the same
  :func:`~repro.util.hashing.stable_hash` discipline the hash container
  uses), values of equal keys in oldest-run-first order.  Jobs with
  unique keys (sort) or per-key aggregation (word count) produce
  byte-identical final output either way; the tests pin this.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from itertools import accumulate
from typing import Any, Callable, Hashable, Iterable, Mapping, Sequence

from repro.containers.base import (
    Container,
    ContainerDelta,
    ContainerStats,
    Emitter,
)
from repro.errors import ContainerError, SpillError
from repro.spill.accountant import estimate_pair_bytes, estimate_pairs_bytes
from repro.spill.external_merge import ExternalPwayMerge
from repro.spill.manager import (
    Group,
    SpillManager,
    distinct_sorted_keys,
    hash_buckets,
    sorted_record_partition,
)
from repro.spill.runfile import Pair

class _SpillEmitter(Emitter):
    """Task-bound handle routing emits through the budget gate."""

    __slots__ = ()

    def emit(self, key: Hashable, value: Any) -> None:
        """Charge the pair against the budget, spilling first if needed."""
        self.emit_many(((key, value),))

    def emit_many(self, pairs: Iterable[tuple[Hashable, Any]]) -> None:
        """A batch through the same gate: run files cut where a loop of
        ``emit`` would have cut them."""
        self.container._insert_each(pairs, self.task_id)  # type: ignore[attr-defined]

    def emit_combined(self, states: Mapping[Hashable, Any], emits: int) -> None:
        """Folded states, charged one per state as an absorbed delta's are."""
        self.container._insert_each(  # type: ignore[attr-defined]
            states.items(), self.task_id, combined_from=emits
        )


class SpillableContainer(Container):
    """Wraps an inner container with memory accounting and spilling."""

    def __init__(
        self,
        inner_factory: Callable[[], Container],
        manager: SpillManager,
    ) -> None:
        super().__init__()
        self._inner_factory = inner_factory
        self.manager = manager
        self._inner = inner_factory()
        # Hash-style containers combine on insert; their drains carry
        # per-key aggregates, which combine-on-spill must not re-fold.
        self._inner_combines = hasattr(self._inner, "combiner")
        if manager.combiner is None and self._inner_combines:
            manager.combiner = self._inner.combiner  # type: ignore[attr-defined]
        self._lock = threading.RLock()
        self._task_emitters: dict[int, Emitter] = {}
        self._emits = 0
        self._emits_at_spill = 0
        self._distinct_keys: int | None = None
        # Synthetic task ids for absorbed segments (negative so they can
        # never collide with real mapper task ids).
        self._absorb_task_id = -1

    # -- lifecycle ---------------------------------------------------------

    def begin_round(self) -> None:
        """Start a mapper wave on the wrapper and the live inner container."""
        super().begin_round()
        with self._lock:
            self._inner.begin_round()

    def seal(self) -> None:
        """No more emits; the inner container is sealed alongside."""
        super().seal()
        with self._lock:
            if not self._inner.sealed:
                self._inner.seal()

    # -- emit path ---------------------------------------------------------

    def emitter(self, task_id: int) -> Emitter:
        """A task-bound handle; inner handles are re-bound after spills."""
        return _SpillEmitter(self, task_id)

    def _insert_each(
        self,
        pairs: Iterable[tuple[Hashable, Any]],
        task_id: int,
        combined_from: int | None = None,
    ) -> None:
        """The one charge-or-spill gate every pair and state passes.

        ``pairs`` are raw emits, or — when ``combined_from`` gives the
        pre-combine emit count they were folded from — per-key combiner
        states, which reach the live container through its emitter's
        ``emit_combined`` (``Combiner.merge``) instead of ``emit_many``.
        """
        accountant = self.manager.accountant
        combined = combined_from is not None
        batch = pairs if isinstance(pairs, list) else list(pairs)
        # totals[i] = cost of batch[:i + 1]; a run file is cut wherever
        # the running total would cross what room the budget has left.
        totals = list(accumulate(estimate_pairs_bytes(batch)))
        with self._lock:
            self._check_open()
            before = self._emits
            start = charged = 0
            while start < len(batch):
                cut = bisect_right(totals, charged + accountant.room, start)
                if cut == start:
                    self._spill_live()
                    cut = bisect_right(
                        totals, charged + accountant.room, start
                    )
                    if cut == start:
                        # Larger than the whole budget: the typed error.
                        accountant.charge(totals[start] - charged)
                cost = totals[cut - 1] - charged
                accountant.charge(cost, pairs=cut - start)
                self._live_put(task_id, batch[start:cut], combined)
                # Per cut, so the next _spill_live sees the progress.
                self._emits += cut - start
                start, charged = cut, charged + cost
            if combined:
                # True up to the pre-combine emit count for stats parity.
                self._emits = before + combined_from

    def _live_put(
        self, task_id: int, pairs: list[tuple[Hashable, Any]], combined: bool
    ) -> None:
        """Hand ``task_id``'s pairs — or folded states — to the live inner
        container in one call (inner handles are re-bound after spills)."""
        emitter = self._task_emitters.get(task_id)
        if emitter is None:
            emitter = self._inner.emitter(task_id)
            self._task_emitters[task_id] = emitter
        if combined:
            emitter.emit_combined(dict(pairs), len(pairs))
        else:
            emitter.emit_many(pairs)

    def _spill_live(self) -> None:
        """Drain the live inner container to a run file and start fresh."""
        if self._emits == self._emits_at_spill:
            raise SpillError(
                "memory budget too small to hold a single emitted pair; "
                "raise RuntimeOptions.memory_budget"
            )
        self._inner.seal()
        self.manager.spill_records(
            self._inner.pairs(), raw=not self._inner_combines
        )
        self.manager.accountant.release_all()
        self._inner = self._inner_factory()
        self._inner.begin_round()
        self._task_emitters.clear()
        self._emits_at_spill = self._emits

    # -- process-boundary transport ----------------------------------------

    def drain(self) -> ContainerDelta:
        """Pack the *live* inner container's contents for transport.

        Spilled runs are already durable on disk and travel separately
        (the job journal records their inventory); this drains only the
        resident, post-last-spill state — exactly what a checkpoint
        snapshot needs.
        """
        with self._lock:
            return self._inner.drain()

    def absorb(self, delta: ContainerDelta) -> None:
        """Fold a worker's delta in while honoring the memory budget.

        Workers run the *unwrapped* inner container (the budget is a
        parent-side resource), so the deltas arriving here are plain
        hash/array/fixed deltas.  Every absorbed pair passes the same
        charge-or-spill gate as a directly emitted one, which keeps
        budgeted process runs within budget — and spill-file contents
        deterministic, because absorption happens in task order.
        """
        with self._lock:
            self._check_open()
            if delta.kind == "hash" and self._inner_combines:
                self._absorb_hash(delta)
            elif delta.kind == "array":
                self._absorb_array(delta)
            elif delta.kind == "fixed":
                self._absorb_fixed(delta)
            else:
                raise ContainerError(
                    f"SpillableContainer cannot absorb a {delta.kind!r} delta"
                )

    def _next_absorb_task_id(self) -> int:
        task_id = self._absorb_task_id
        self._absorb_task_id -= 1
        return task_id

    def _absorb_hash(self, delta: ContainerDelta) -> None:
        self._insert_each(
            delta.items, self._next_absorb_task_id(), combined_from=delta.emits
        )

    def _absorb_array(self, delta: ContainerDelta) -> None:
        # One synthetic task id per segment keeps the inner array
        # container's segment structure (and thus its reducer
        # partitioning) identical to the serial backend's
        # one-segment-per-task layout.
        for segment in delta.items:
            self._insert_each(segment, self._next_absorb_task_id())

    def _absorb_fixed(self, delta: ContainerDelta) -> None:
        cost = int(getattr(delta.items, "nbytes", 0)) or estimate_pair_bytes(
            0, delta.items
        )
        if self.manager.accountant.would_exceed(cost):
            self._spill_live()
        self.manager.accountant.charge(cost)
        self._inner.absorb(delta)
        self._emits += delta.emits

    # -- reduce-side -------------------------------------------------------

    def iter_partitions(self, n: int) -> Sequence[Iterable[Group]]:
        """Reducer partitions, merged externally when spills happened.

        The merge runs here, to the end.  Each partition is the merged
        blocks' own records — split by key hash when ``n > 1`` — as a
        :class:`~repro.containers.base.RecordPartition`: a reducer that
        walks it gets ``(key, values)`` from
        :func:`~repro.spill.manager.group_sorted_block`, built as it
        goes, once; one that takes the records builds nothing.
        """
        if n < 1:
            raise ContainerError("need at least one reducer partition")
        if not self.sealed:
            raise ContainerError("partitions() before seal()")
        if not self.manager.runs:
            # Never spilled: the inner container's own partitioning,
            # bit-identical to an unbudgeted run.
            self.manager.record_merge(0)
            return self._inner.iter_partitions(n)
        resident = self._inner.pairs()
        resident.sort(key=self.manager.entry_key)
        sources: list[Any] = [
            self.manager.open_run(info) for info in self.manager.runs
        ]
        sources.append(resident)
        parts: list[list[list[Pair]]] = [[] for _ in range(n)]
        distinct = 0
        for block in ExternalPwayMerge(self.manager).merge_blocks(sources):
            distinct += distinct_sorted_keys(block)
            # Whole keys in, whole keys out: a key hashes to one bucket.
            for part, bucket in zip(parts, hash_buckets(block, n)):
                if bucket:
                    part.append(bucket)
        self._distinct_keys = distinct
        self.manager.accountant.release_all()
        return [sorted_record_partition(part) for part in parts]

    def partitions(self, n: int) -> list[list[tuple[Hashable, Any]]]:
        """:meth:`iter_partitions`, materialized as lists of
        ``(key, list_of_values)``."""
        return [
            [(key, list(values)) for key, values in part]
            for part in self.iter_partitions(n)
        ]

    # -- reporting ---------------------------------------------------------

    def stats(self) -> ContainerStats:
        """Emit/key counters across every generation of the inner container.

        ``distinct_keys`` is exact after ``partitions()`` ran over a
        spilled job; before that it falls back to the live container
        plus spilled-record counts (an upper bound when keys repeat
        across runs).
        """
        inner = self._inner.stats()
        if self._distinct_keys is not None:
            distinct = self._distinct_keys
        else:
            distinct = inner.distinct_keys + self.manager.stats().spilled_records
        return ContainerStats(
            emits=self._emits, distinct_keys=distinct, rounds=self.rounds
        )
