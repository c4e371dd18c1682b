"""Worker-fault sites: one per-task schedule, stepped in two ways.

The ``worker.crash`` and ``task.hang`` sites model *process* deaths, but
the backend-equivalence contract says a fault plan's schedule — which
sites fire for which scopes, how many retries it costs, what gets
quarantined — must be identical across serial, thread, and process
backends.  :class:`WorkerSiteSchedule` is that schedule for one task: it
resolves the crash site fully, then the hang site, each over the
injector's retry protocol (:class:`~repro.faults.injector.Attempts`),
and quarantines the task when its budget runs out and the wave allows
skips.  :func:`gate_worker_sites` steps it in a blocking loop in the
round thread, task after task, before a serial / thread wave dispatches
any of them: each injected fault fails at once.  The process supervisor
(:mod:`repro.resilience.supervisor`) takes one step per worker it sees
die or overrun its lease.  Both write the same rows, in the same order.
"""

from __future__ import annotations

from typing import Hashable

from repro.errors import FaultInjected, RetryExhausted
from repro.faults.injector import FaultInjector
from repro.faults.plan import SITE_TASK_HANG, SITE_WORKER_CRASH

#: Sites the schedule resolves, in resolution order (crash fully, then
#: hang).
WORKER_SITES = (SITE_WORKER_CRASH, SITE_TASK_HANG)


def worker_sites_armed(injector: FaultInjector | None) -> bool:
    """True when the plan arms either worker-fault site."""
    if injector is None:
        return False
    return any(injector.armed(site) for site in WORKER_SITES)


class WorkerSiteSchedule:
    """The armed worker-fault sites of one task, resolved in order."""

    def __init__(
        self,
        injector: FaultInjector,
        scope: Hashable,
        allow_skip: bool,
        task_repr: bytes,
    ) -> None:
        self._injector = injector
        self._scope = scope
        self._allow_skip = allow_skip
        self._task_repr = task_repr
        self._open = [
            injector.attempts(site, scope)
            for site in WORKER_SITES if injector.armed(site)
        ]

    def fault(self) -> str | None:
        """The site whose fault fires on this attempt, or None to run.

        A site that checks clean is resolved (``recovered`` after a
        retry) and the next one is checked at its own attempt count.
        """
        while self._open:
            attempts = self._open[0]
            if self._injector.check(
                attempts.site, self._scope, attempts.attempt
            ) is not None:
                return attempts.site
            attempts.succeeded()
            self._open.pop(0)
        return None

    def failed(self) -> float | None:
        """The fault :meth:`fault` returned took the attempt down.

        Returns the backoff before the retry, or None once the task is
        poison and quarantined.  With skips off, exhaustion raises
        :class:`~repro.errors.RetryExhausted`.
        """
        attempts = self._open[0]
        site = attempts.site
        exc = FaultInjected(f"injected {site}", site=site)
        try:
            return attempts.failed(exc)
        except RetryExhausted:
            if not self._allow_skip:
                raise
            self._injector.quarantine(
                site, self._task_repr[:64], scope=self._scope
            )
            return None


def gate_worker_sites(
    injector: FaultInjector,
    scope: Hashable,
    allow_skip: bool = False,
    task_repr: bytes = b"",
) -> bool:
    """Resolve both worker-fault sites for one task scope (blocking).

    Returns True when the task should run; False when it was declared
    poison and quarantined against the skip budget (``allow_skip``).
    With ``allow_skip`` off, exhaustion raises
    :class:`~repro.errors.RetryExhausted` exactly as the supervisor's
    un-skippable waves do.
    """
    schedule = WorkerSiteSchedule(injector, scope, allow_skip, task_repr)
    while schedule.fault() is not None:
        delay = schedule.failed()
        if delay is None:
            return False
        injector.sleep(delay)
    return True
