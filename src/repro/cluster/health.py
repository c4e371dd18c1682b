"""Per-agent health state machine: ``healthy → suspect → quarantined``.

Pure bookkeeping — no sockets, no threads, no wall clock of its own.
The registry feeds probe outcomes in (``record_success`` /
``record_failure``) with an explicit ``now``, and reads dispatchability
back out, so every transition is unit-testable with a fake clock and
the whole machine replays deterministically.

The states:

* **healthy** — probes answer; the scheduler may place work here.
  Re-probed every ``probe_interval_s``.
* **suspect** — a probe failed (or a runner reported the host lost
  mid-job).  No new work lands here, but the agent gets quick retries
  (:data:`SUSPECT_RETRY_S`): one success restores it,
  :data:`QUARANTINE_AFTER` consecutive failures condemn it.
* **quarantined** — repeatedly failing *or* flapping.  Re-probes back
  off exponentially with deterministic per-agent jitter
  (:func:`repro.util.backoff.exponential_jitter` seeded from the
  address), so a large pool of dead agents does not synchronize its
  probe storms.  Recovery demands :data:`RECOVER_AFTER` consecutive
  successful probes — one lucky pong does not un-quarantine a flapper.

Flap damping: every ``healthy → suspect`` fall counts as one flap, and
an agent that accumulates :data:`FLAP_QUARANTINE` of them goes straight to
quarantine on its next fall instead of bouncing through suspect again —
the registry stops handing work to a host that keeps coming back just
long enough to lose it.  A full quarantine recovery clears the tally.

Only the healthy cadence is a setting (the daemon's
``--health-interval``); the other numbers of the machine are the module
constants below.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.backoff import exponential_jitter
from repro.util.hashing import stable_hash

#: Probes answer; placeable.
STATE_HEALTHY = "healthy"
#: Last probe failed (or the runner reported the host lost); not
#: placeable, retried quickly.
STATE_SUSPECT = "suspect"
#: Condemned (consecutive failures or flapping); re-probed on backoff.
STATE_QUARANTINED = "quarantined"

HEALTH_STATES = (STATE_HEALTHY, STATE_SUSPECT, STATE_QUARANTINED)

#: Default seconds between probes of a healthy agent (the daemon's
#: ``--health-interval``).
DEFAULT_PROBE_INTERVAL_S = 1.0
#: Seconds between the quick retries of a suspect agent.
SUSPECT_RETRY_S = 0.25
#: Consecutive failures that turn suspect into quarantined.
QUARANTINE_AFTER = 3
#: Consecutive successes a quarantined agent needs to recover.
RECOVER_AFTER = 2
#: ``healthy → suspect`` falls before the next fall quarantines.
FLAP_QUARANTINE = 3
#: Base / cap of the quarantined re-probe backoff.
BACKOFF_BASE_S = 0.5
BACKOFF_CAP_S = 15.0


@dataclass
class AgentHealth:
    """One agent's live health record (owned by the registry)."""

    addr: str
    #: Seconds between probes of a healthy agent.
    probe_interval_s: float = DEFAULT_PROBE_INTERVAL_S
    #: New agents start *suspect*: unproven hosts take no work until
    #: their first probe answers, so a typo'd ``--agents`` entry never
    #: receives a job.
    state: str = STATE_SUSPECT
    probes: int = 0
    consecutive_failures: int = 0
    consecutive_successes: int = 0
    flaps: int = 0
    backoff_attempt: int = 0
    last_latency_s: "float | None" = None
    last_error: str = ""
    #: Monotonic deadline of the next probe (0.0 = due immediately).
    next_probe_at: float = 0.0

    # -- queries -----------------------------------------------------------

    @property
    def placeable(self) -> bool:
        """May the scheduler hand this agent work right now?"""
        return self.state == STATE_HEALTHY

    def due(self, now: float) -> bool:
        """Is a probe owed at monotonic time ``now``?"""
        return now >= self.next_probe_at

    # -- transitions ---------------------------------------------------------

    def record_success(self, now: float, latency_s: float) -> str:
        """Fold in one successful probe; returns the new state."""
        self.probes += 1
        self.consecutive_failures = 0
        self.last_latency_s = latency_s
        self.last_error = ""
        if self.state == STATE_HEALTHY:
            self.next_probe_at = now + self.probe_interval_s
        elif self.state == STATE_SUSPECT:
            # suspicion was transient — one answer restores service
            self.state = STATE_HEALTHY
            self.consecutive_successes = 0
            self.backoff_attempt = 0
            self.next_probe_at = now + self.probe_interval_s
        else:  # quarantined: demand sustained good behaviour
            self.consecutive_successes += 1
            if self.consecutive_successes >= RECOVER_AFTER:
                self.state = STATE_HEALTHY
                self.consecutive_successes = 0
                self.backoff_attempt = 0
                self.flaps = 0  # a full recovery earns a clean slate
                self.next_probe_at = now + self.probe_interval_s
            else:
                self.next_probe_at = now + SUSPECT_RETRY_S
        return self.state

    def record_failure(self, now: float, error: str) -> str:
        """Fold in one failed probe; returns the new state."""
        self.probes += 1
        self.consecutive_successes = 0
        self.consecutive_failures += 1
        self.last_error = error
        if self.state == STATE_HEALTHY:
            self.flaps += 1
            if self.flaps >= FLAP_QUARANTINE:
                self._quarantine(now)
            else:
                self.state = STATE_SUSPECT
                self.next_probe_at = now + SUSPECT_RETRY_S
        elif self.state == STATE_SUSPECT:
            if self.consecutive_failures >= QUARANTINE_AFTER:
                self._quarantine(now)
            else:
                self.next_probe_at = now + SUSPECT_RETRY_S
        else:  # already quarantined: back off further
            self.backoff_attempt += 1
            self.next_probe_at = now + self._reprobe_delay()
        return self.state

    def mark_lost(self, now: float, reason: str) -> str:
        """A runner reported this host lost mid-job: demote immediately.

        Counts as a flap when the agent was healthy (it was handed work
        and dropped it — the exact behaviour flap damping exists for)
        and pulls the next probe forward to *now* so truth is
        re-established promptly rather than on the old schedule.
        """
        self.last_error = reason
        if self.state == STATE_HEALTHY:
            self.consecutive_failures = max(self.consecutive_failures, 1)
            self.flaps += 1
            if self.flaps >= FLAP_QUARANTINE:
                self._quarantine(now)
                return self.state
            self.state = STATE_SUSPECT
        self.next_probe_at = now
        return self.state

    def _quarantine(self, now: float) -> None:
        self.state = STATE_QUARANTINED
        self.backoff_attempt = 0
        self.next_probe_at = now + self._reprobe_delay()

    def _reprobe_delay(self) -> float:
        """Jittered quarantine re-probe delay, deterministic per agent."""
        return exponential_jitter(
            self.backoff_attempt,
            base=BACKOFF_BASE_S,
            cap=BACKOFF_CAP_S,
            seed=stable_hash(self.addr),
        )
