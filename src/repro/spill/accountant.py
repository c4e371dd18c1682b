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
from typing import Any

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
        """Number of successful :meth:`charge` calls (one per emit)."""
        return self._charges

    def would_exceed(self, nbytes: int) -> bool:
        """True if charging ``nbytes`` now would cross the budget."""
        return self._current + nbytes > self.budget_bytes

    def charge(self, nbytes: int) -> None:
        """Account ``nbytes`` to the live container.

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
            self._charges += 1
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
