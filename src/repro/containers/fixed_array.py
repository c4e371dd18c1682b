"""Fixed-width array container for dense small key spaces.

Phoenix++ ships **three** container families; beyond the hash and the
variable/unlocked arrays this reproduction already has, the third is the
*fixed-width array*: when keys are small dense integers (histogram
buckets, pixel values), the container is just a preallocated array of
combined cells indexed by key — no hashing, no lookups.

Each map task gets a private NumPy accumulator; ``partitions()`` sums
them (a vectorized reduction) and hands reducers contiguous key ranges,
exactly Phoenix++'s "each reducer operates only on its key range"
discipline.  Only numeric combine-by-sum is supported, which is what the
container family exists for.
"""

from __future__ import annotations

from typing import Any, Hashable, Mapping

import numpy as np

from repro.containers.base import (
    Container,
    ContainerDelta,
    ContainerStats,
    Emitter,
)
from repro.errors import ContainerError


class _FixedEmitter(Emitter):
    __slots__ = ("cells", "counter")

    def __init__(self, container: "FixedArrayContainer", task_id: int,
                 cells: np.ndarray) -> None:
        super().__init__(container, task_id)
        self.cells = cells

    def emit(self, key: Hashable, value: Any) -> None:
        container: FixedArrayContainer = self.container  # type: ignore[assignment]
        container._check_open()
        self.cells[container._cell(key)] += value
        container._emits += 1

    def emit_combined(self, states: Mapping[Hashable, Any], emits: int) -> None:
        """Add per-key partial sums to this task's cells; count once."""
        container: FixedArrayContainer = self.container  # type: ignore[assignment]
        container._check_open()
        for key, state in states.items():
            self.cells[container._cell(key)] += state
        container._emits += emits


class FixedArrayContainer(Container):
    """Dense integer keys 0..n_keys-1, combined by summation."""

    def __init__(self, n_keys: int, dtype: str = "int64") -> None:
        super().__init__()
        if n_keys < 1:
            raise ContainerError("n_keys must be >= 1")
        self.n_keys = n_keys
        self.dtype = np.dtype(dtype)
        if self.dtype.kind not in "iuf":
            raise ContainerError("fixed array cells must be numeric")
        self._task_cells: list[np.ndarray] = []
        self._emits = 0

    def _cell(self, key: Hashable) -> int:
        idx = int(key)  # type: ignore[call-overload]
        if not 0 <= idx < self.n_keys:
            raise ContainerError(
                f"key {key!r} outside the fixed key range [0, {self.n_keys})"
            )
        return idx

    def emitter(self, task_id: int) -> Emitter:
        """A per-task dense accumulator array."""
        cells = np.zeros(self.n_keys, dtype=self.dtype)
        self._task_cells.append(cells)
        return _FixedEmitter(self, task_id, cells)

    def combined(self) -> np.ndarray:
        """The summed cell array (available after seal)."""
        if not self.sealed:
            raise ContainerError("combined() before seal()")
        if not self._task_cells:
            return np.zeros(self.n_keys, dtype=self.dtype)
        return np.sum(self._task_cells, axis=0)

    def partitions(self, n: int) -> list[list[tuple[Hashable, Any]]]:
        """Contiguous key ranges; zero cells are skipped (never emitted
        keys produce no reduce calls, matching the other containers)."""
        if n < 1:
            raise ContainerError("need at least one reducer partition")
        total = self.combined()
        parts: list[list[tuple[Hashable, Any]]] = []
        for t in range(n):
            start = (t * self.n_keys) // n
            end = ((t + 1) * self.n_keys) // n
            part = [
                (int(idx), [total[idx].item()])
                for idx in range(start, end)
                if total[idx] != 0
            ]
            parts.append(part)
        return parts

    def drain(self) -> ContainerDelta:
        """Pack the worker's summed cell array (one ndarray, not per-task).

        Summing before transport is the vectorized analog of in-worker
        combining: however many tasks ran in the worker, the pipe
        carries ``n_keys`` cells once.
        """
        if self._task_cells:
            total = np.sum(self._task_cells, axis=0)
        else:
            total = np.zeros(self.n_keys, dtype=self.dtype)
        return ContainerDelta(kind="fixed", emits=self._emits, items=total)

    def absorb(self, delta: ContainerDelta) -> None:
        """Adopt a worker's summed cells as one more task array."""
        if delta.kind != "fixed":
            raise ContainerError(
                f"FixedArrayContainer cannot absorb a {delta.kind!r} delta"
            )
        if len(delta.items) != self.n_keys:
            raise ContainerError(
                f"fixed delta has {len(delta.items)} cells, container has "
                f"{self.n_keys}"
            )
        self._check_open()
        self._task_cells.append(np.asarray(delta.items, dtype=self.dtype))
        self._emits += delta.emits

    def stats(self) -> ContainerStats:
        """Emit counters; distinct keys = nonzero cells."""
        nonzero = 0
        if self._task_cells:
            nonzero = int(np.count_nonzero(np.sum(self._task_cells, axis=0)))
        return ContainerStats(emits=self._emits, distinct_keys=nonzero,
                              rounds=self.rounds)

    def __len__(self) -> int:
        return self.stats().distinct_keys
