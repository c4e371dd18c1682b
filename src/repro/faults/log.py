"""The fault log: every injection and every recovery action, in order.

A :class:`FaultLog` is the audit trail the whole subsystem writes to —
the injector records injections, retries, recoveries and quarantines;
the simulated fault driver records hardware degradation and rebalances.
It is surfaced on :class:`~repro.core.result.JobResult` (``fault_log``)
and in ``SimJobResult.extras`` so experiments can report time-under-
faults against clean runs with the evidence attached.

Appends are thread-safe (the round thread and the prefetch reader both
write).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

#: Actions a :class:`FaultEvent` can record.
ACTION_INJECTED = "injected"
ACTION_RETRIED = "retried"
ACTION_RECOVERED = "recovered"
ACTION_EXHAUSTED = "exhausted"
ACTION_QUARANTINED = "quarantined"
ACTION_RESPILLED = "respilled"
ACTION_DEGRADED = "degraded"
ACTION_SPECULATIVE = "speculative"
ACTION_RESPAWNED = "respawned"
ACTION_CHECKPOINTED = "checkpointed"
ACTION_RESUMED = "resumed"
ACTION_REASSIGNED = "reassigned"
ACTION_REFETCHED = "refetched"
ACTION_REAPED = "reaped"


@dataclass(frozen=True)
class FaultEvent:
    """One injection or recovery action."""

    site: str
    action: str
    detail: str = ""
    scope: str = ""
    attempt: int = 0
    #: Wall-clock (real runtime) or simulated seconds (simrt) when the
    #: event was recorded; the clock is whatever the log was given.
    time_s: float = 0.0


class FaultLog:
    """Append-only, thread-safe record of fault activity for one run.

    ``clock`` supplies event timestamps — ``time.perf_counter`` for the
    real runtimes, ``lambda: sim.now`` for the simulated ones.
    """

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self._events: list[FaultEvent] = []
        self._lock = threading.Lock()
        self._clock = clock or (lambda: 0.0)
        self._local = threading.local()

    def record(
        self,
        site: str,
        action: str,
        detail: str = "",
        scope: str = "",
        attempt: int = 0,
    ) -> FaultEvent:
        """Append one event; returns it (timestamped by the log's clock)."""
        event = FaultEvent(
            site=site, action=action, detail=detail, scope=scope,
            attempt=attempt, time_s=self._clock(),
        )
        held = getattr(self._local, "held", None)
        with self._lock:
            (self._events if held is None else held).append(event)
        return event

    @contextmanager
    def held(self) -> Iterator[list[FaultEvent]]:
        """Rows this thread records inside the block go to the yielded
        list, not the log, for the caller to :meth:`extend` it with at a
        point of the run's own order."""
        self._local.held = rows = []
        try:
            yield rows
        finally:
            self._local.held = None

    def extend(self, rows: Iterable[FaultEvent]) -> None:
        """Append already-recorded rows, in order."""
        with self._lock:
            self._events.extend(rows)

    # -- queries -----------------------------------------------------------

    @property
    def events(self) -> tuple[FaultEvent, ...]:
        with self._lock:
            return tuple(self._events)

    def count(self, action: str | None = None, site: str | None = None) -> int:
        """Events matching an action and/or site (None matches all)."""
        return sum(
            1
            for e in self.events
            if (action is None or e.action == action)
            and (site is None or e.site == site)
        )

    @property
    def injected(self) -> int:
        return self.count(ACTION_INJECTED)

    @property
    def retries(self) -> int:
        return self.count(ACTION_RETRIED)

    @property
    def recoveries(self) -> int:
        return self.count(ACTION_RECOVERED)

    @property
    def quarantined(self) -> int:
        return self.count(ACTION_QUARANTINED)

    def summary(self) -> dict[str, int]:
        """Event counts per action (only actions that occurred)."""
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.action] = counts.get(event.action, 0) + 1
        return counts

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __bool__(self) -> bool:
        return len(self) > 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultLog {self.summary()!r}>"
