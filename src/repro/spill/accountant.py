"""Memory accounting for the out-of-core spill subsystem.

The paper's runtimes assume the intermediate container fits in RAM — on
the 384 GB testbed it always does.  A production deployment needs a hard
ceiling instead: :class:`MemoryAccountant` charges every container
insert against a configurable byte budget so the runtime can spill the
live container to disk *before* the budget is crossed, never after.

Charges are estimates (Python object sizes are approximations by
nature), but they are deterministic and conservative: combining
containers are charged per emit — or per folded state, when a map task
or a worker hands over states it already combined — even when it
collapses into an existing cell, so the accountant over- rather than
under-states pressure.
"""

from __future__ import annotations

import sys
import threading
from itertools import repeat
from operator import add, itemgetter
from typing import Any, Sequence

from repro.errors import SpillError

#: Fixed per-pair overhead: the (key, value) tuple, the container cell
#: it lands in, and the bookkeeping references around it.
PAIR_OVERHEAD_BYTES = 64


def estimate_value_bytes(value: Any) -> int:
    """Approximate resident bytes of one key or value object.

    ``bytes``/``str`` dominate real workloads and are sized exactly via
    ``sys.getsizeof``; tuples and lists are sized recursively one level
    deep per element; everything else falls back to ``sys.getsizeof``
    with a small default for exotic objects that refuse it.
    """
    if isinstance(value, (list, tuple)):
        try:
            base = sys.getsizeof(value)
        except TypeError:  # pragma: no cover - exotic sequence type
            base = 56 + 8 * len(value)
        return base + sum(estimate_value_bytes(v) for v in value)
    try:
        return sys.getsizeof(value)
    except TypeError:  # pragma: no cover - objects without a C size
        return 64


def estimate_pair_bytes(key: Any, value: Any) -> int:
    """Charged size of one emitted (key, value) pair."""
    return (
        PAIR_OVERHEAD_BYTES
        + estimate_value_bytes(key)
        + estimate_value_bytes(value)
    )


#: ``sys.getsizeof`` of a ``bytes`` object beyond its payload.
_BYTES_HEADER = sys.getsizeof(b"")


def _column_bytes(column: list[Any]) -> list[int]:
    """``estimate_value_bytes`` of every object in one column of a batch.

    A column of exactly ``bytes`` — sort's keys and values — is sized
    from ``len``: header plus payload is what ``sys.getsizeof`` answers
    for that type (a subclass may answer otherwise, so it is not taken
    here), at a quarter of the cost per object.  Any other column with
    no list or tuple in it — the str/int keys and values of the other
    bundled apps — is sized by one C-level ``map(sys.getsizeof, …)``;
    anything else goes object by object.
    """
    kinds = set(map(type, column))
    if kinds == {bytes}:
        return [_BYTES_HEADER + len(value) for value in column]
    if not any(issubclass(kind, (list, tuple)) for kind in kinds):
        try:
            return list(map(sys.getsizeof, column))
        except TypeError:  # pragma: no cover - objects without a C size
            pass
    return [estimate_value_bytes(value) for value in column]


def estimate_pairs_bytes(pairs: Sequence[tuple[Any, Any]]) -> list[int]:
    """``[estimate_pair_bytes(k, v) for k, v in pairs]``, a column at a time.

    The bulk budget gate sizes a whole batch with this and finds its
    spill points by bisection over the running total; the values are
    exactly the per-pair ones, so the cuts land where a pair-by-pair
    loop would put them.
    """
    keys = _column_bytes(list(map(itemgetter(0), pairs)))
    values = _column_bytes(list(map(itemgetter(1), pairs)))
    return list(map(add, map(add, keys, values), repeat(PAIR_OVERHEAD_BYTES)))


class MemoryAccountant:
    """Charges container inserts against a byte budget.

    The contract the spill subsystem builds on: ``current`` never
    exceeds ``budget_bytes``, because callers ask :meth:`would_exceed`
    *before* charging and spill (then :meth:`release`) first when the
    answer is yes.  ``peak`` records the high-water mark so results can
    prove the invariant held for a whole job.
    """

    def __init__(self, budget_bytes: int) -> None:
        if budget_bytes < 1:
            raise SpillError("memory budget must be >= 1 byte")
        self.budget_bytes = int(budget_bytes)
        self._current = 0
        self._peak = 0
        self._charges = 0
        self._lock = threading.Lock()

    @property
    def current(self) -> int:
        """Bytes currently accounted to the live container."""
        return self._current

    @property
    def peak(self) -> int:
        """High-water mark of :attr:`current` over the accountant's life."""
        return self._peak

    @property
    def charges(self) -> int:
        """Pairs successfully charged (one per emit, however batched)."""
        return self._charges

    @property
    def room(self) -> int:
        """Bytes that can still be charged before the budget is crossed."""
        return self.budget_bytes - self._current

    def would_exceed(self, nbytes: int) -> bool:
        """True if charging ``nbytes`` now would cross the budget."""
        return self._current + nbytes > self.budget_bytes

    def charge(self, nbytes: int, pairs: int = 1) -> None:
        """Account ``nbytes`` — the cost of ``pairs`` pairs — to the live
        container.

        Raises :class:`~repro.errors.SpillError` if the charge would
        cross the budget — the caller must spill first.  A single pair
        larger than the whole budget is a configuration error surfaced
        the same way.
        """
        with self._lock:
            if self._current + nbytes > self.budget_bytes:
                raise SpillError(
                    f"charge of {nbytes} B would exceed the "
                    f"{self.budget_bytes} B budget "
                    f"({self._current} B accounted); spill first"
                )
            self._current += nbytes
            self._charges += pairs
            if self._current > self._peak:
                self._peak = self._current

    def release(self, nbytes: int) -> None:
        """Return ``nbytes`` to the budget (after a spill or teardown)."""
        with self._lock:
            if nbytes > self._current:
                raise SpillError(
                    f"release of {nbytes} B exceeds the "
                    f"{self._current} B currently accounted"
                )
            self._current -= nbytes

    def release_all(self) -> int:
        """Zero the account (the live container was fully drained)."""
        with self._lock:
            released = self._current
            self._current = 0
            return released
