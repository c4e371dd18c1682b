"""The armed injector: checks sites, quarantines records, runs retries.

One :class:`FaultInjector` exists per job run (armed from the plan by the
runtime), and is the only stateful piece of the subsystem: it tracks
per-site fire counts, which scopes already fired (for once-per-scope
specs), and the quarantine tally, all under one lock so the round
thread and the prefetch reader can check sites concurrently.

The retry protocol (:class:`Attempts`, one site's attempt count in one
scope) is the shared recovery primitive, stepped in two ways: the
blocking loop :meth:`FaultInjector.retrying` (chunk ingest, map tasks,
spill verification, the serial/thread worker-site gate) and the process
supervisor, which takes one step per observed worker death.  Backoff,
logging, and :class:`~repro.errors.RetryExhausted` semantics are
therefore identical at every site and on every backend.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Hashable, TypeVar

from repro.errors import QuarantineOverflow, RetryExhausted
from repro.faults.log import (
    ACTION_EXHAUSTED,
    ACTION_INJECTED,
    ACTION_QUARANTINED,
    ACTION_RECOVERED,
    ACTION_RETRIED,
    FaultLog,
)
from repro.faults.plan import FaultDecision, FaultPlan
from repro.faults.policy import DEFAULT_RETRYABLE, RecoveryPolicy
from repro.util.backoff import exponential_jitter

T = TypeVar("T")

#: Cap on one retry backoff; the delay doubles per attempt from
#: ``RecoveryPolicy.backoff_base_s`` until it reaches this.
BACKOFF_MAX_S = 0.25

#: ``fn(attempt)`` body run under :meth:`FaultInjector.retrying`.
AttemptFn = Callable[[int], T]


def _scope_str(scope: Hashable) -> str:
    return repr(scope) if scope != () else ""


class FaultInjector:
    """Stateful per-run view of a :class:`~repro.faults.plan.FaultPlan`."""

    def __init__(
        self,
        plan: FaultPlan,
        policy: RecoveryPolicy,
        clock: Callable[[], float] | None = None,
        sleep: Callable[[float], None] | None = None,
    ) -> None:
        self.plan = plan
        self.policy = policy
        self.log = FaultLog(clock=clock)
        self._sleep = sleep if sleep is not None else time.sleep
        self._lock = threading.Lock()
        self._fires: dict[str, int] = {}
        self._fired_scopes: set[tuple[str, Hashable]] = set()
        self._quarantined = 0

    # -- checking ----------------------------------------------------------

    def armed(self, site: str) -> bool:
        """True when the plan has a spec for ``site`` (cheap fast path)."""
        return self.plan.spec_for(site) is not None

    def check(
        self, site: str, scope: Hashable = (), attempt: int = 0
    ) -> FaultDecision | None:
        """Should a fault fire here, now?  Logs and returns the decision.

        Deterministic in ``(plan.seed, site, scope, attempt)`` regardless
        of thread interleaving; ``once_per_scope`` specs fire on the
        first check of each distinct scope only (so a retry of the same
        scope passes), and ``max_fires`` caps a site's total fires.
        """
        spec = self.plan.spec_for(site)
        if spec is None:
            return None
        with self._lock:
            fires = self._fires.get(site, 0)
            if spec.max_fires is not None and fires >= spec.max_fires:
                return None
            if spec.once_per_scope:
                key = (site, scope)
                if key in self._fired_scopes:
                    return None
                self._fired_scopes.add(key)
            elif self.plan.roll(site, scope, attempt) >= spec.probability:
                return None
            self._fires[site] = fires + 1
        decision = FaultDecision(site=site, kind=spec.kind, spec=spec)
        self.log.record(
            site, ACTION_INJECTED, decision.describe(),
            scope=_scope_str(scope), attempt=attempt,
        )
        return decision

    def fires(self, site: str) -> int:
        """How many times ``site`` has fired so far."""
        with self._lock:
            return self._fires.get(site, 0)

    # -- quarantine --------------------------------------------------------

    @property
    def quarantined(self) -> int:
        with self._lock:
            return self._quarantined

    def quarantine(
        self, site: str, record: bytes, scope: Hashable = ()
    ) -> None:
        """Skip one bad record, charging it against the skip budget.

        Raises :class:`~repro.errors.QuarantineOverflow` when the budget
        is exhausted — a skip budget of 0 aborts on the first bad record.
        """
        with self._lock:
            self._quarantined += 1
            tally = self._quarantined
        if tally > self.policy.skip_budget:
            raise QuarantineOverflow(
                f"{site}: quarantined {tally} records, skip budget is "
                f"{self.policy.skip_budget}",
                site=site,
                quarantined=tally,
            )
        preview = record[:64] + (b"..." if len(record) > 64 else b"")
        self.log.record(
            site, ACTION_QUARANTINED,
            f"skipped {len(record)}-byte record {preview!r}",
            scope=_scope_str(scope),
        )

    # -- retry protocol ----------------------------------------------------

    def attempts(self, site: str, scope: Hashable = ()) -> "Attempts":
        """A fresh retry budget for one ``site`` in one ``scope``."""
        return Attempts(self, site, scope)

    def sleep(self, seconds: float) -> None:
        """Back off for ``seconds`` through the injector's ``sleep``."""
        if seconds > 0:
            self._sleep(seconds)

    def retrying(
        self,
        site: str,
        fn: AttemptFn,
        scope: Hashable = (),
        retryable: tuple[type[BaseException], ...] | None = None,
    ) -> Any:
        """Run ``fn(attempt)`` under the bounded-backoff retry policy.

        ``fn`` is called with the attempt number (0-based) so injection
        sites inside it can re-roll per attempt.  Exceptions in
        ``retryable`` (default: injected faults and OSError) are caught
        and retried up to ``policy.max_retries`` times with exponential
        backoff; exhaustion raises :class:`~repro.errors.RetryExhausted`
        chained ``from`` the last failure.  Anything else propagates
        immediately.
        """
        kinds = retryable if retryable is not None else DEFAULT_RETRYABLE
        attempts = self.attempts(site, scope)
        while True:
            try:
                result = fn(attempts.attempt)
            except kinds as exc:
                self.sleep(attempts.failed(exc))
                continue
            attempts.succeeded()
            return result


class Attempts:
    """One site's attempt count in one scope: the retry protocol.

    Every ``retried`` / ``exhausted`` / ``recovered`` row the fault log
    holds for an injector site is written here.
    :meth:`FaultInjector.retrying` drives it in a blocking loop; the
    process supervisor drives it one observed worker death or lease
    expiry at a time.
    """

    def __init__(
        self, injector: FaultInjector, site: str, scope: Hashable
    ) -> None:
        self._injector = injector
        self.site = site
        self.scope = scope
        #: The 0-based number of the attempt now in progress.
        self.attempt = 0

    def failed(self, exc: BaseException) -> float:
        """The current attempt failed with ``exc``: the delay before the next.

        Logs ``retried`` and moves on to the next attempt while the
        budget lasts; past it, logs ``exhausted`` and raises
        :class:`~repro.errors.RetryExhausted` chained ``from`` ``exc``.
        """
        injector, site, attempt = self._injector, self.site, self.attempt
        policy = injector.policy
        scope = _scope_str(self.scope)
        if attempt >= policy.max_retries:
            injector.log.record(
                site, ACTION_EXHAUSTED,
                f"giving up after {attempt + 1} attempt(s): {exc}",
                scope=scope, attempt=attempt,
            )
            raise RetryExhausted(
                f"{site}: {attempt + 1} attempt(s) failed "
                f"(retry budget {policy.max_retries}); last error: {exc}",
                site=site,
                attempts=attempt + 1,
            ) from exc
        delay = exponential_jitter(
            attempt,
            base=policy.backoff_base_s,
            cap=BACKOFF_MAX_S,
            seed=injector.plan.seed,
        )
        injector.log.record(
            site, ACTION_RETRIED,
            f"attempt {attempt + 1} failed ({exc}); backing off {delay:.3g}s",
            scope=scope, attempt=attempt,
        )
        self.attempt += 1
        return delay

    def succeeded(self) -> None:
        """The current attempt succeeded; logs ``recovered`` after a retry."""
        if self.attempt > 0:
            self._injector.log.record(
                self.site, ACTION_RECOVERED,
                f"succeeded on attempt {self.attempt + 1}",
                scope=_scope_str(self.scope), attempt=self.attempt,
            )
