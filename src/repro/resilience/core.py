"""A forked worker's lease and the one sweep over it: no process, no clock.

The map pool's :class:`~repro.resilience.supervisor.Supervisor` and the
sharded :mod:`~repro.shard.coordinator` both lease their workers here
and hand :func:`casualties` their own sweep order and ``now``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable


@dataclass(kw_only=True)
class Worker:
    """One forked worker (local or remote) and its lease."""

    #: The shell's way to reach the process; the core never touches it.
    handle: Any = None
    #: ``True`` or the shell's task record while a command is out.
    busy: Any = False
    started: float = 0.0
    last_heard: float = 0.0

    def engage(self, now: float, task: Any = True) -> None:
        """A command was sent: the lease starts over."""
        self.busy = task
        self.started = self.last_heard = now

    def renew(self, now: float) -> None:
        """The worker was heard from."""
        self.last_heard = now


@dataclass
class Tally:
    """What the sweeps found: deaths and expired leases."""

    crashes: int = 0
    lease_expiries: int = 0


def casualties(
    now: float,
    workers: Iterable[Worker],
    alive: Callable[[Any], bool],
    lease_s: float,
    tally: Tally,
) -> list[tuple[Any, str]]:
    """The workers to bury, in input order, as ``(worker, lease text)``.

    A dead worker comes with an empty text (the shell asks its handle
    how it exited); a busy one silent for more than ``lease_s`` with
    the text for the log — the shell kills it first.
    """
    found = []
    for worker in workers:
        if not alive(worker):
            tally.crashes += 1
            found.append((worker, ""))
        elif worker.busy and now - worker.last_heard > lease_s:
            tally.lease_expiries += 1
            found.append((worker, f"exceeded its {lease_s:.3g}s lease"))
    return found
