"""Container protocol shared by all intermediate k/v stores."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from repro.errors import ContainerError


@dataclass
class ContainerStats:
    """Counters the runtime reports in :class:`repro.core.result.JobResult`."""

    emits: int = 0
    distinct_keys: int = 0
    rounds: int = 0


@dataclass(frozen=True)
class ContainerDelta:
    """A container's contents, packed to leave a map task.

    Every backend runs each map task against a private container (so
    combining happens inside the task, before any serialization), then
    :meth:`Container.drain`\\ s it into one of these — shipped back over
    a transport when the task ran in a forked worker — and the round
    thread folds it into the job's real container with
    :meth:`Container.absorb`.  ``kind`` names the producing container
    family so a mismatched absorb fails loudly, ``emits`` preserves the
    pre-combine emit count for stats, and ``items`` is family-specific
    (key/state pairs, value segments, or a summed histogram array).
    """

    kind: str
    emits: int
    items: Any


class RecordPartition:
    """One reducer partition held as flat ``(key, value)`` records.

    A partition that is *stored* as records — the array container's
    segments, a spilled job's merged hash buckets, the shard exchange's
    merged blocks — is handed to the reducer task in this shape.
    Iterating it yields the ``(key, values)`` groups every reducer is
    promised, built block by block by ``group`` as they are consumed;
    :meth:`records` is the same partition with no group built at all,
    for the reducer that would only take the groups apart again
    (:func:`repro.shard.exchange.reduce_partition` is the one caller
    that makes that choice).  ``blocks`` may be a one-shot iterable: a
    partition is walked once, one way or the other.
    """

    __slots__ = ("blocks", "group")

    def __init__(
        self,
        blocks: Iterable[list[tuple[Hashable, Any]]],
        group: Callable[
            [list[tuple[Hashable, Any]]],
            Iterable[tuple[Hashable, Sequence[Any]]],
        ],
    ) -> None:
        self.blocks = blocks
        self.group = group

    def __iter__(self) -> Iterator[tuple[Hashable, Sequence[Any]]]:
        return chain.from_iterable(map(self.group, self.blocks))

    def records(self) -> list[tuple[Hashable, Any]]:
        """The blocks' records, concatenated in order — the flattening
        of the groups — as a new list the caller owns."""
        return list(chain.from_iterable(self.blocks))


class Container(abc.ABC):
    """Abstract intermediate container.

    Lifecycle: ``begin_round()`` before each mapper wave (SupMR calls it
    once per ingest chunk; the container must persist, not reset), then
    emits via task-bound :class:`Emitter` handles, then one
    ``partitions(n)`` (or ``iter_partitions(n)``) call to hand
    per-reducer work out.
    """

    def __init__(self) -> None:
        self._rounds = 0
        self._sealed = False

    # -- lifecycle ---------------------------------------------------------

    def begin_round(self) -> None:
        """Called when a mapper wave starts.

        Persistent semantics (paper section III.C): the first call
        initializes, subsequent calls MUST keep accumulated state.
        """
        if self._sealed:
            raise ContainerError("begin_round() after the container was sealed")
        self._rounds += 1

    @property
    def rounds(self) -> int:
        return self._rounds

    def seal(self) -> None:
        """No more emits; reducers may start."""
        self._sealed = True

    @property
    def sealed(self) -> bool:
        return self._sealed

    def _check_open(self) -> None:
        if self._sealed:
            raise ContainerError("emit into a sealed container")
        if self._rounds == 0:
            raise ContainerError("emit before the first begin_round()")

    # -- data path -----------------------------------------------------------

    @abc.abstractmethod
    def emitter(self, task_id: int) -> "Emitter":
        """A per-map-task emit handle (cheap; one per task)."""

    @abc.abstractmethod
    def partitions(self, n: int) -> list[list[tuple[Hashable, Any]]]:
        """Split contents into ``n`` reducer partitions of (key, values)."""

    def iter_partitions(
        self, n: int
    ) -> Sequence[Iterable[tuple[Hashable, Sequence[Any]]]]:
        """``partitions(n)`` for a consumer that walks each partition once.

        Same groups in the same order, but each partition may be a lazy
        iterable and each ``values`` any sequence, so a container whose
        groups are only wrappers (the array container's one value per
        key) need not build ``n`` lists of them before the first reduce
        call.  A container that stores a partition as records hands it
        out as a :class:`RecordPartition`.  The default is the
        materialized form.
        """
        return self.partitions(n)

    def pairs(self) -> list[tuple[Hashable, Any]]:
        """The sealed container's contents as flat ``(key, value)``
        records, in ``partitions(1)`` order — a new list the caller owns.

        What leaves memory leaves it in this shape (a spill run, a
        shard's exchange runs): one record per value, no per-key
        wrapper.  The default flattens ``partitions(1)``; containers
        that can hand their records over without building the groups
        first override it.
        """
        (groups,) = self.partitions(1)
        return [(key, value) for key, values in groups for value in values]

    @abc.abstractmethod
    def stats(self) -> ContainerStats:
        """Emit/key counters for reporting."""

    # -- task-to-job transport -----------------------------------------------

    @abc.abstractmethod
    def drain(self) -> ContainerDelta:
        """Pack this container's contents as a :class:`ContainerDelta`.

        Called on a map task's private container once the task sealed
        it, in whichever process ran the task.
        """

    @abc.abstractmethod
    def absorb(self, delta: ContainerDelta) -> None:
        """Fold a map task's :class:`ContainerDelta` into this container.

        Called by the round thread, once per completed map task, in task
        order, so the result does not depend on the backend.
        """


class Emitter:
    """Map-task-bound handle routing emits to the container.

    ``emit`` is the per-record surface; ``emit_many`` and
    ``emit_combined`` are the bulk surface a map task uses when it has
    parsed or folded a whole window of its split with C primitives
    (``bytes.split``, ``collections.Counter``) and wants to pay the
    container's checks once per batch instead of once per record.
    """

    __slots__ = ("container", "task_id")

    def __init__(self, container: Container, task_id: int) -> None:
        self.container = container
        self.task_id = task_id

    def emit(self, key: Hashable, value: Any) -> None:
        """Route one (key, value) pair into the container."""
        raise NotImplementedError  # pragma: no cover - subclasses bind this

    def emit_many(self, pairs: Iterable[tuple[Hashable, Any]]) -> None:
        """Route a batch of raw pairs; same meaning as a loop of ``emit``."""
        for key, value in pairs:
            self.emit(key, value)

    def emit_combined(self, states: Mapping[Hashable, Any], emits: int) -> None:
        """Route per-key combiner states the task folded from ``emits``
        raw emits.

        The states must be what the container's combiner would have
        built from those emits; the container merges them exactly as it
        merges a worker's :class:`ContainerDelta`, and ``stats().emits``
        grows by ``emits`` (the pre-combine count), not by
        ``len(states)``.
        """
        raise ContainerError(
            f"{type(self.container).__name__} cannot take pre-combined states"
        )

    def __call__(self, key: Hashable, value: Any) -> None:
        self.emit(key, value)
