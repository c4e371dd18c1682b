"""The daemon's decisions, as pure functions of what it knows.

No socket, no file, no event loop, no clock — the style of
:mod:`repro.cluster.health`.  The shell (:mod:`repro.service.server`)
gathers the facts (the job table, the attempts in flight, a runner's
exit) and carries out the answer (counters, durable writes, signals,
replies); what the answer *is* lives here, where a table of inputs
tests every arm without a daemon.  Every decision is a function of the
daemon's :class:`ServiceConfig` and:

* :func:`admission_verdict` — may this submission join the queue?
* :func:`io_share` — what bandwidth does this dispatch get?
* :func:`attempt_outcome` — an attempt ended; what becomes of the job?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.errors import ConfigError
from repro.faults.plan import FaultPlan
from repro.net.peers import parse_peers
from repro.qos.allocator import POLICIES, HostCapacityAllocator
from repro.qos.scheduling import DEFAULT_AGING_EVERY
from repro.service.jobspec import ServiceJobSpec
from repro.service.protocol import (
    ERR_BUDGET_EXCEEDED,
    ERR_OVERLOADED,
    ERR_QUEUE_FULL,
    ERR_TENANT_BUDGET,
)
from repro.service.state import (
    STATE_CANCELLED,
    STATE_DONE,
    STATE_FAILED,
    STATE_QUEUED,
)
from repro.util.units import parse_size


@dataclass(frozen=True)
class ServiceConfig:
    """Daemon knobs (the ``repro serve`` flags)."""

    state_dir: str
    host: str = "127.0.0.1"
    #: 0 asks the kernel for a free port; the bound port is advertised
    #: in ``state_dir/endpoint.json``.
    port: int = 0
    #: Runners allowed to execute at once.
    max_concurrent: int = 2
    #: Queued (not yet running) jobs allowed before ``queue-full``.
    max_queue_depth: int = 16
    #: Cap on the sum of admitted jobs' ``memory_budget`` ("1GB" ok);
    #: None disables budget admission control.
    service_budget: int | str | None = None
    #: Finished jobs whose checkpoint dirs are retained after their
    #: result has been fetched; older ones are purged.
    retention: int = 4
    #: Runner launches per job before it is failed outright.
    max_attempts: int = 3
    #: Hard wall-clock cap per runner attempt; None trusts the job's
    #: own ``job_deadline`` knob.
    job_timeout_s: float | None = None
    #: Seeded service-site fault plan (``service.conn.drop`` /
    #: ``service.job.crash`` / ``qos.tenant.surge``).
    fault_plan: FaultPlan | None = None
    #: The node's disk bandwidth in bytes/second ("200MB" ok); enables
    #: dispatch-time bandwidth share assignment (jobs that declared an
    #: ``io_budget`` get an allocator share of this) and overload
    #: shedding.  None disables both.
    node_bandwidth: int | str | None = None
    #: Bandwidth allocation policy for dispatch-time shares
    #: (:data:`repro.qos.allocator.POLICIES`).
    qos_policy: str = "max-min"
    #: Per-tenant cap on the sum of admitted jobs' memory budgets;
    #: None disables the per-tenant budget check.
    tenant_budget: int | str | None = None
    #: Per-tenant cap on admitted-but-unfinished (queued + running)
    #: jobs; None disables the per-tenant concurrency check.
    tenant_max_concurrent: int | None = None
    #: Memory budget charged to jobs submitted *without* one when the
    #: service enforces ``service_budget``/``tenant_budget``.  None
    #: keeps the strict behaviour: budgetless submissions are rejected.
    default_job_budget: int | str | None = None
    #: Dispatches per priority step of queue aging (0 disables aging).
    aging_every: int = DEFAULT_AGING_EVERY
    #: Overload shedding threshold: submissions are shed once the sum of
    #: declared ``io_budget`` demand would exceed
    #: ``node_bandwidth * shed_factor``.
    shed_factor: float = 2.0
    #: Bootstrap agent pool (``--agents host:port,...``); parsed to a
    #: canonical tuple.  More agents can join/leave at runtime via the
    #: register/deregister RPCs, so () still enables the registry.
    agents: "str | tuple[str, ...] | None" = None
    #: Seconds between health probes of a healthy agent.
    health_interval_s: float = 1.0
    #: Deadline for one agent probe (connect + ping + pong).
    probe_timeout_s: float = 2.0
    #: ``--net-timeout`` handed to placed runners (None keeps the
    #: runtime default).
    net_timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_concurrent < 1:
            raise ConfigError("max_concurrent must be >= 1")
        if self.max_queue_depth < 1:
            raise ConfigError("max_queue_depth must be >= 1")
        if self.retention < 0:
            raise ConfigError("retention must be >= 0")
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.service_budget is not None:
            object.__setattr__(
                self, "service_budget", parse_size(self.service_budget)
            )
        if self.node_bandwidth is not None:
            node_bw = parse_size(self.node_bandwidth)
            if node_bw < 1:
                raise ConfigError("node_bandwidth must be >= 1 byte/second")
            object.__setattr__(self, "node_bandwidth", node_bw)
        if self.qos_policy not in POLICIES:
            raise ConfigError(
                f"unknown qos_policy {self.qos_policy!r}; known policies: "
                + ", ".join(sorted(POLICIES))
            )
        if self.tenant_budget is not None:
            object.__setattr__(
                self, "tenant_budget", parse_size(self.tenant_budget)
            )
        if self.tenant_max_concurrent is not None and self.tenant_max_concurrent < 1:
            raise ConfigError("tenant_max_concurrent must be >= 1")
        if self.default_job_budget is not None:
            object.__setattr__(
                self, "default_job_budget", parse_size(self.default_job_budget)
            )
        if self.aging_every < 0:
            raise ConfigError("aging_every must be >= 0")
        if self.shed_factor <= 0:
            raise ConfigError("shed_factor must be positive")
        if self.agents:
            object.__setattr__(self, "agents", parse_peers(self.agents))
        else:
            object.__setattr__(self, "agents", ())
        if self.health_interval_s <= 0:
            raise ConfigError("health_interval_s must be positive")
        if self.probe_timeout_s <= 0:
            raise ConfigError("probe_timeout_s must be positive")
        if self.net_timeout_s is not None and self.net_timeout_s <= 0:
            raise ConfigError("net_timeout_s must be positive")


# -- admission ---------------------------------------------------------------


@dataclass(frozen=True)
class Rejection:
    """Why a submission was turned away, and what that is counted as."""

    #: The typed error code of the reply (``protocol.ERR_*``).
    code: str
    message: str
    #: The daemon counters this rejection bumps, by name.
    counters: tuple[str, ...] = ("rejected",)


def charged_budget(spec: ServiceJobSpec, config: ServiceConfig) -> int:
    """Memory bytes one spec is charged against the budget caps.

    Jobs submitted without a ``memory_budget`` are charged the
    configured ``default_job_budget`` — charged nothing, budgetless
    jobs would slip past the service-wide Σ-budget cap entirely.
    """
    if spec.memory_budget is not None:
        return parse_size(spec.memory_budget)
    return config.default_job_budget or 0


def admission_verdict(
    spec: ServiceJobSpec,
    active_specs: Iterable[ServiceJobSpec],
    queue_depth: int,
    config: ServiceConfig,
) -> "Rejection | None":
    """The first limit ``spec`` would break, or None to admit it.

    ``active_specs`` are the jobs the limits count — admitted and not
    finished, whether queued, forking or running — and are iterated at
    most once, and not at all on a daemon that configures no limit over
    them.  Checks run cheapest-first: queue depth, per-tenant
    concurrency and memory budget, the service-wide memory budget, and
    finally bandwidth-overload shedding.
    """
    if queue_depth >= config.max_queue_depth:
        return Rejection(
            ERR_QUEUE_FULL,
            f"queue depth {queue_depth} is at the limit "
            f"({config.max_queue_depth}); retry later",
        )
    if (
        config.tenant_max_concurrent is None and config.tenant_budget is None
        and config.service_budget is None and config.node_bandwidth is None
    ):
        return None
    active = list(active_specs)
    tenant_active = [s for s in active if s.tenant == spec.tenant]
    if (
        config.tenant_max_concurrent is not None
        and len(tenant_active) >= config.tenant_max_concurrent
    ):
        return Rejection(
            ERR_TENANT_BUDGET,
            f"tenant {spec.tenant!r} already has {len(tenant_active)} "
            f"admitted job(s); the per-tenant limit is "
            f"{config.tenant_max_concurrent}",
            counters=("tenant_rejected", "rejected"),
        )
    if config.tenant_budget is not None:
        asked = charged_budget(spec, config)
        admitted = sum(charged_budget(s, config) for s in tenant_active)
        if admitted + asked > config.tenant_budget:
            return Rejection(
                ERR_TENANT_BUDGET,
                f"admitting {asked} budget bytes for tenant "
                f"{spec.tenant!r} on top of {admitted} would "
                f"exceed its budget ({config.tenant_budget})",
                counters=("tenant_rejected", "rejected"),
            )
    if config.service_budget is not None:
        if spec.memory_budget is None and config.default_job_budget is None:
            return Rejection(
                ERR_BUDGET_EXCEEDED,
                "this service enforces a memory budget; submit with "
                "a per-job memory_budget",
            )
        asked = charged_budget(spec, config)
        admitted = sum(charged_budget(s, config) for s in active)
        if admitted + asked > config.service_budget:
            return Rejection(
                ERR_BUDGET_EXCEEDED,
                f"admitting {asked} budget bytes on top of {admitted} "
                f"would exceed the service budget ({config.service_budget})",
            )
    if config.node_bandwidth is not None and spec.io_budget is not None:
        demand = parse_size(spec.io_budget) + sum(
            parse_size(s.io_budget) for s in active if s.io_budget is not None
        )
        if demand > config.node_bandwidth * config.shed_factor:
            return Rejection(
                ERR_OVERLOADED,
                f"aggregate declared I/O demand ({demand} B/s) would "
                f"exceed {config.shed_factor}x the node bandwidth "
                f"({config.node_bandwidth} B/s); shedding load",
                counters=("shed", "rejected"),
            )
    return None


# -- dispatch ----------------------------------------------------------------


def io_share(
    job_id: str,
    contenders: Mapping[str, tuple[ServiceJobSpec, tuple[str, ...]]],
    config: ServiceConfig,
) -> "int | None":
    """Dispatch-time bandwidth share for ``job_id`` (bytes/second).

    ``contenders`` maps every dispatched job — forking or running, and
    ``job_id`` itself — to its spec and placement.  With
    ``node_bandwidth`` configured, the job's declared demand is run
    through the configured allocator policy alongside the demands of
    the contenders *on the same host*: two jobs placed on one agent
    split that host's capacity, while jobs on different hosts do not
    contend (each agent brings its own disk).  A placed job is charged
    to the first agent of its placement (where the coordinator lands
    the heaviest exchange traffic); local jobs all share the daemon
    host's capacity.  The job's share — not
    its raw ask — becomes the token-bucket rate the runner enforces.
    Jobs with no declared ``io_budget`` run unthrottled: None.
    """
    if config.node_bandwidth is None:
        return None
    if contenders[job_id][0].io_budget is None:
        return None
    allocator = HostCapacityAllocator(
        config.node_bandwidth, inner_policy=config.qos_policy
    )
    for contender, (spec, placement) in contenders.items():
        if spec.io_budget is not None:
            allocator.register(
                contender, parse_size(spec.io_budget),
                priority=spec.io_priority,
                host=placement[0] if placement else "local",
            )
    return max(1, int(allocator.allocate()[job_id]))


# -- settling ----------------------------------------------------------------


@dataclass(frozen=True)
class Outcome:
    """What becomes of a job whose attempt ended."""

    #: ``queued`` puts the job back in line for another attempt;
    #: ``done`` has the shell read the runner's ``result.json`` into the
    #: record; ``failed`` / ``cancelled`` finish it as given here.
    state: str
    exit_code: "int | None" = None
    error: "str | None" = None
    #: The daemon counters this outcome bumps, by name.
    counters: tuple[str, ...] = ()
    #: Agents of the placement to mark lost in the registry.
    lost_hosts: tuple[str, ...] = ()
    #: How the runner crashed, when it did (the fault log's wording).
    crashed: "str | None" = None


def attempt_outcome(
    rc: "int | None",
    timed_out: bool,
    draining: bool,
    cancelling: bool,
    error: "str | None",
    placement: tuple[str, ...],
    attempt: int,
    config: ServiceConfig,
) -> Outcome:
    """Classify the end of attempt number ``attempt``.

    ``rc`` is the runner's exit code (negative for a signal death), or
    None when the zygote died before forking it; ``error`` is the
    runner's own error report (exit codes 1–3).  What the daemon did to
    the runner outranks what the runner says: a timeout, a drain and a
    cancel each explain the exit code they caused.
    """
    if timed_out:
        return Outcome(
            STATE_FAILED, exit_code=4,
            error=f"runner exceeded the service job timeout "
                  f"({config.job_timeout_s}s)",
        )
    if draining:
        # drain terminated the runner; the job goes back for the next
        # daemon instance (the journal keeps its rounds)
        return Outcome(STATE_QUEUED)
    if cancelling:
        return Outcome(
            STATE_CANCELLED, exit_code=rc, error="cancelled while running"
        )
    if rc in (0, 4):
        return Outcome(STATE_DONE, exit_code=rc)
    if rc in (1, 2, 3):
        if not (
            rc == 2 and placement
            and error.partition(":")[0] == "PeerUnreachable"
        ):
            return Outcome(STATE_FAILED, exit_code=rc, error=error)
        # Stale dispatch: *we* handed the runner a peer that died between
        # the health check and the dial — not the user's mistake, so this
        # is retried, not failed.  The unreachable host is marked (all of
        # them, when the message names none) and the requeued attempt is
        # re-placed onto survivors; the journal turns the rerun into a
        # resume, so nothing is double-counted.
        blame = dict(
            counters=("stale_dispatches",),
            lost_hosts=tuple(a for a in placement if a in error) or placement,
        )
        code, error = rc, f"{error}; attempts exhausted ({attempt})"
    else:
        # Killed by a signal, an unclassified crash, or never forked: not
        # the job's verdict, so relaunch and resume from the journal.
        how = "the zygote died before the fork" if rc is None else f"exit {rc}"
        blame = dict(counters=("runner_crashes",), crashed=how)
        code = 1
        error = f"runner crashed ({how}) {attempt} time(s); attempts exhausted"
    if attempt < config.max_attempts:
        return Outcome(STATE_QUEUED, **blame)
    return Outcome(STATE_FAILED, exit_code=code, error=error, **blame)
