"""Combiners: per-key on-insert aggregation for the hash container.

Phoenix++ combines on insert so the intermediate set stays small for jobs
like word count.  A combiner is a tiny strategy object: ``initial(value)``
builds per-key state from the first emit, ``update(state, value)`` folds
in later emits, ``merge(state, other)`` folds a map task's per-key state
into the job's, ``finish(state)`` yields the value list handed to reduce.
"""

from __future__ import annotations

import abc
from typing import Any, Sequence


class Combiner(abc.ABC):
    """Fold emitted values per key as they arrive."""

    @abc.abstractmethod
    def initial(self, value: Any) -> Any:
        """Per-key state from the first emitted value."""

    @abc.abstractmethod
    def update(self, state: Any, value: Any) -> Any:
        """Fold one more value into the per-key state."""

    def finish(self, state: Any) -> Sequence[Any]:
        """Values handed to the reducer for this key."""
        return [state]

    @abc.abstractmethod
    def merge(self, state: Any, other: Any) -> Any:
        """Fold two per-key states into one (parallel partial merge).

        Every map task combines into a private container, then the
        job's container merges each key's partial states in task order;
        ``merge`` must satisfy ``merge(fold(A), fold(B)) == fold(A + B)``
        for the job to be backend-independent.  ``state`` belongs to the
        job's container and may be updated in place.
        """


class SumCombiner(Combiner):
    """Running sum (word count's combiner)."""

    def initial(self, value: Any) -> Any:
        """Start the sum at the first value."""
        return value

    def update(self, state: Any, value: Any) -> Any:
        """Add the value to the running sum."""
        return state + value

    def merge(self, state: Any, other: Any) -> Any:
        """Partial sums add."""
        return state + other


class CountCombiner(Combiner):
    """Counts emits, ignoring values."""

    def initial(self, value: Any) -> int:
        """First emit counts as one."""
        return 1

    def update(self, state: int, value: Any) -> int:
        """Another emit: increment."""
        return state + 1

    def merge(self, state: int, other: int) -> int:
        """Partial counts add."""
        return state + other


class MinCombiner(Combiner):
    """Keeps the smallest value seen."""
    def initial(self, value: Any) -> Any:
        """Start with the first value."""
        return value

    def update(self, state: Any, value: Any) -> Any:
        """Keep the smaller of state and value."""
        return value if value < state else state

    def merge(self, state: Any, other: Any) -> Any:
        """Min of partial minima."""
        return other if other < state else state


class MaxCombiner(Combiner):
    """Keeps the largest value seen."""
    def initial(self, value: Any) -> Any:
        """Start with the first value."""
        return value

    def update(self, state: Any, value: Any) -> Any:
        """Keep the larger of state and value."""
        return value if value > state else state

    def merge(self, state: Any, other: Any) -> Any:
        """Max of partial maxima."""
        return other if other > state else state


class FirstCombiner(Combiner):
    """Keeps the first value seen (dedup-style jobs)."""

    def initial(self, value: Any) -> Any:
        """Remember the first value."""
        return value

    def update(self, state: Any, value: Any) -> Any:
        """Ignore later values."""
        return state

    def merge(self, state: Any, other: Any) -> Any:
        """The earlier partial (absorb order follows task order) wins."""
        return state


class ListCombiner(Combiner):
    """No combining: all values are kept (the default when reduce needs
    every value, e.g. inverted index)."""

    def initial(self, value: Any) -> list[Any]:
        """Start a value list."""
        return [value]

    def update(self, state: list[Any], value: Any) -> list[Any]:
        """Append the value."""
        state.append(value)
        return state

    def merge(self, state: list[Any], other: list[Any]) -> list[Any]:
        """Concatenate partial value lists in absorb order."""
        state.extend(other)
        return state

    def finish(self, state: list[Any]) -> Sequence[Any]:
        """Hand the full value list to the reducer."""
        return state
