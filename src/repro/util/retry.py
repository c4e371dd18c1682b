"""One reconnect budget for every network retry loop.

A failed network exchange is worth retrying over a fresh connection
only when the failure was the connection's: a refused, reset or timed
out socket, a clean EOF mid-exchange, or a frame torn (``truncated``)
or stalled (``stalled``) in transit.  :func:`transient` is that rule.
Damage from a live peer — a bad CRC, bad magic, version skew, an
oversize frame — would be damage again, so no loop retries it.

:class:`Retry` is the budget: up to ``retries`` consecutive failures
are absorbed, each followed by a seeded
:func:`~repro.util.backoff.exponential_jitter` sleep capped at
8 × ``base_s``; a loop that makes progress (a watch stream delivering a
frame) calls :meth:`Retry.reset`.  What exhaustion means stays with
the caller: the agent dial raises ``PeerUnreachable``, a command send
marks its link dead, a service RPC raises ``ServiceError``.

Fault-site retries (``faults/injector.Attempts``,
``shard/exchange.fetch_run``) are a different family: they write
fault-log rows and never redial, so they do not run on this budget.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.errors import ProtocolError
from repro.util.backoff import exponential_jitter


def transient(exc: BaseException) -> bool:
    """Whether a fresh connection can cure ``exc``."""
    if isinstance(exc, ProtocolError):
        return exc.reason in ("truncated", "stalled")
    return isinstance(exc, (EOFError, OSError))


class Retry:
    """A budget of ``retries`` consecutive transient failures."""

    def __init__(
        self,
        retries: int,
        base_s: float,
        seed: int = 0,
        sleep: "Callable[[float], None]" = time.sleep,
    ) -> None:
        self.retries = retries
        self.base_s = base_s
        self.seed = seed
        self.sleep = sleep
        #: Consecutive failures since the start or the last reset.
        self.failures = 0

    def again(self, exc: BaseException) -> bool:
        """Charge one failure; back off and return ``True`` when ``exc``
        is transient and the budget has room, else return ``False``."""
        self.failures += 1
        if not transient(exc) or self.failures > self.retries:
            return False
        self.sleep(exponential_jitter(
            self.failures - 1, base=self.base_s, cap=8 * self.base_s,
            seed=self.seed,
        ))
        return True

    def reset(self) -> None:
        """Progress was made: the next failure is the first again."""
        self.failures = 0
