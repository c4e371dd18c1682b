"""The service's agent pool: registration, probing, placement.

One :class:`AgentRegistry` owns every ``supmr agent`` the daemon knows
about — the ``--agents`` bootstrap list plus anything added or removed
through the ``register``/``deregister`` RPCs — and answers the two
questions dispatch needs:

* *who is healthy right now?* — :meth:`probe_round` drives each agent's
  :class:`~repro.cluster.health.AgentHealth` state machine from real
  pings (:func:`repro.net.remote.ping_agent`), honoring each record's
  own probe schedule (healthy cadence, suspect quick-retry, quarantined
  backoff).  The seeded ``cluster.agent.flap`` fault site turns
  individual probe results into failures, so flap-to-quarantine runs
  replay deterministically under test.
* *where should this job go?* — :meth:`place` draws up to ``want``
  healthy agents ordered by in-flight load (then registration order),
  so concurrent jobs spread across hosts instead of piling onto the
  first entry, and charges the chosen agents one in-flight job each
  until :meth:`release`.

Thread-safety: probing runs on an executor thread while the asyncio
scheduler places and releases; every mutation holds the registry lock.
The actual network pings happen *outside* the lock — a stalled probe
must never block dispatch.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.cluster.health import (
    DEFAULT_PROBE_INTERVAL_S,
    STATE_HEALTHY,
    AgentHealth,
)
from repro.faults.plan import SITE_CLUSTER_AGENT_FLAP
from repro.net.peers import format_addr, split_addr
from repro.util.logging import get_logger

logger = get_logger(__name__)

#: Default deadline for one health probe (connect + ping + pong).
DEFAULT_PROBE_TIMEOUT_S = 2.0


def _default_pinger(addr: str, timeout_s: float) -> tuple[float, dict]:
    from repro.net.remote import ping_agent

    return ping_agent(addr, timeout_s=timeout_s)


@dataclass
class AgentRecord:
    """One registered agent: health + load + last advertised stats."""

    health: AgentHealth
    #: Registration order (placement tie-breaker: deterministic spread).
    index: int
    #: Job ids currently placed on this agent.
    inflight: set = field(default_factory=set)
    #: Last pong payload (worker count, agent counters).
    info: dict = field(default_factory=dict)


class AgentRegistry:
    """Thread-safe agent pool with active health checks."""

    def __init__(
        self,
        agents: "tuple[str, ...] | list[str]" = (),
        probe_interval_s: float = DEFAULT_PROBE_INTERVAL_S,
        probe_timeout_s: float = DEFAULT_PROBE_TIMEOUT_S,
        injector: Any = None,
        pinger: "Callable[[str, float], tuple[float, dict]] | None" = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.probe_interval_s = probe_interval_s
        self.probe_timeout_s = probe_timeout_s
        self._injector = injector
        self._pinger = pinger or _default_pinger
        self._clock = clock
        self._lock = threading.Lock()
        self._agents: dict[str, AgentRecord] = {}
        self._next_index = 0
        for addr in agents:
            self.register(addr)

    # -- membership ----------------------------------------------------------

    @staticmethod
    def canonical(addr: str) -> str:
        """The ``host:port`` form records are keyed by (typed error on
        bad syntax)."""
        return format_addr(*split_addr(addr))

    def register(self, addr: str) -> tuple[str, bool]:
        """Add one agent; returns ``(canonical_addr, created)``.

        Idempotent: re-registering a known address is a no-op rather
        than a reset — a supervisor re-announcing its agent must not
        wipe the health history.
        """
        canonical = self.canonical(addr)
        with self._lock:
            if canonical in self._agents:
                return canonical, False
            self._agents[canonical] = AgentRecord(
                health=AgentHealth(
                    addr=canonical, probe_interval_s=self.probe_interval_s
                ),
                index=self._next_index,
            )
            self._next_index += 1
        logger.debug("registry: agent %s registered", canonical)
        return canonical, True

    def deregister(self, addr: str) -> bool:
        """Remove one agent; True when it was known.

        Jobs already placed on it keep running (the runner's host-loss
        ladder owns that outcome); the agent simply takes no new work.
        """
        canonical = self.canonical(addr)
        with self._lock:
            removed = self._agents.pop(canonical, None) is not None
        if removed:
            logger.debug("registry: agent %s deregistered", canonical)
        return removed

    def __len__(self) -> int:
        with self._lock:
            return len(self._agents)

    def addrs(self) -> tuple[str, ...]:
        """Every registered address, in registration order."""
        with self._lock:
            return tuple(self._agents)

    # -- probing -------------------------------------------------------------

    @property
    def settled(self) -> bool:
        """Has every registered agent been probed at least once?

        Dispatch gates placement-hungry jobs on this so the first job
        after daemon start is placed from *measured* health, not from
        the optimistic assumption that the bootstrap list is alive.
        """
        with self._lock:
            return all(r.health.probes > 0 for r in self._agents.values())

    def probe_round(self) -> int:
        """Probe every agent whose schedule says it is due; returns the
        number probed.  Network I/O happens outside the lock."""
        now = self._clock()
        with self._lock:
            due = [
                (addr, rec) for addr, rec in self._agents.items()
                if rec.health.due(now)
            ]
        for addr, rec in due:
            forced = None
            if self._injector is not None:
                # Seeded flap: the decision is a pure function of
                # (seed, site, (addr, probe#)), so the same plan yields
                # the same failed probes wherever the threads land.
                forced = self._injector.check(
                    SITE_CLUSTER_AGENT_FLAP, scope=(addr, rec.health.probes)
                )
            if forced is not None:
                with self._lock:
                    state = rec.health.record_failure(
                        self._clock(), "injected probe failure "
                        f"({SITE_CLUSTER_AGENT_FLAP})",
                    )
                logger.debug("registry: %s injected-fail -> %s", addr, state)
                continue
            try:
                latency_s, info = self._pinger(addr, self.probe_timeout_s)
            except Exception as exc:  # noqa: BLE001 - any probe failure
                with self._lock:
                    state = rec.health.record_failure(
                        self._clock(), f"{type(exc).__name__}: {exc}"
                    )
                logger.debug("registry: %s probe failed -> %s (%s)",
                             addr, state, exc)
            else:
                with self._lock:
                    rec.health.record_success(self._clock(), latency_s)
                    if isinstance(info, dict):
                        rec.info = {
                            "workers": info.get("workers"),
                            "counters": info.get("counters") or {},
                        }
        return len(due)

    def mark_lost(self, addr: str, reason: str = "host lost mid-job") -> None:
        """Fold a runner-observed host loss into the health record."""
        try:
            canonical = self.canonical(addr)
        except Exception:  # noqa: BLE001 - counter garbage is not fatal
            return
        with self._lock:
            rec = self._agents.get(canonical)
            if rec is None:
                return
            state = rec.health.mark_lost(self._clock(), reason)
        logger.debug("registry: %s marked lost -> %s", canonical, state)

    # -- placement -----------------------------------------------------------

    def healthy(self) -> tuple[str, ...]:
        """Addresses currently accepting work, in placement order."""
        with self._lock:
            ready = [
                (len(rec.inflight), rec.index, addr)
                for addr, rec in self._agents.items()
                if rec.health.placeable
            ]
        ready.sort()
        return tuple(addr for _, _, addr in ready)

    def place(self, job_id: str, want: int) -> tuple[str, ...]:
        """Choose up to ``want`` healthy *idle* agents for one job and
        lease them to it.  Empty when none is free — the caller runs
        the job locally.

        Leases are **exclusive**: an agent already carrying a running
        job's lease is never handed to a second concurrent job.  The
        agent control protocol is single-coordinator — a second
        coordinator's hello steals the control session and the two
        jobs' worker results cross, so one job silently adopts the
        other's exchange outboxes (and its digest).  A narrower
        placement (or a local run) is always digest-identical; a
        shared agent is not.
        """
        if want < 1:
            return ()
        with self._lock:
            ready = sorted(
                (rec.index, addr)
                for addr, rec in self._agents.items()
                if rec.health.placeable and not rec.inflight
            )
            chosen = tuple(addr for _, addr in ready[:want])
            for addr in chosen:
                self._agents[addr].inflight.add(job_id)
        return chosen

    def release(self, job_id: str) -> None:
        """Drop one job's in-flight charge from every agent."""
        with self._lock:
            for rec in self._agents.values():
                rec.inflight.discard(job_id)

    def inflight_total(self) -> int:
        """Total live leases across the pool (one per agent per job)."""
        with self._lock:
            return sum(len(r.inflight) for r in self._agents.values())

    # -- reporting -----------------------------------------------------------

    def snapshot(self) -> list[dict]:
        """JSON-safe rows for the ``agents`` RPC / CLI."""
        with self._lock:
            rows = []
            for addr, rec in self._agents.items():
                h = rec.health
                rows.append({
                    "addr": addr,
                    "state": h.state,
                    "latency_ms": (
                        round(h.last_latency_s * 1000.0, 3)
                        if h.last_latency_s is not None else None
                    ),
                    "inflight": len(rec.inflight),
                    "probes": h.probes,
                    "flaps": h.flaps,
                    "last_error": h.last_error,
                    "workers": rec.info.get("workers"),
                })
            return rows

    def healthy_count(self) -> int:
        """How many agents are currently in the healthy state."""
        with self._lock:
            return sum(
                1 for r in self._agents.values()
                if r.health.state == STATE_HEALTHY
            )
