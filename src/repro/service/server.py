"""The job-service daemon: asyncio TCP server + queue + admission control.

One :class:`JobService` owns a state directory and serves many
concurrent clients over the framed protocol.  The moving parts:

* **Job queue** — a weighted-fair queue across tenants
  (:class:`repro.qos.scheduling.WeightedFairQueue`): each tenant's
  virtual clock advances per dispatch, within a tenant higher
  ``priority`` goes first (FIFO within a level) softened by priority
  aging so no class starves.  A scheduler fills up to
  ``max_concurrent`` runner slots from it.
* **Runners** — the daemon runs no MapReduce work itself.  It execs one
  **zygote** (:mod:`repro.service.runner`: a fresh interpreter that has
  imported everything a job touches) and each attempt is a ``fork`` of
  it, requested over a control socket (:class:`_Zygote`): an attempt
  costs its job, not an interpreter start.  The zygote forks, sweeps
  the ended runner's process group and reaps it, and reports pid, wait
  status and rusage; the daemon classifies the exit code and signals
  runners (cancel, timeout, drain) by the reported pid, which is also
  the runner's process group.  Control-socket EOF is the liveness
  signal both ways: a zygote that loses the daemon kills its runners
  and exits; a daemon that loses the zygote kills the runners in
  flight, requeues them as crashed attempts and starts another zygote.
* **Admission control** — submissions are *rejected with a typed error*
  rather than queued unboundedly: ``queue-full`` past
  ``max_queue_depth``, ``budget-exceeded`` when the sum of active
  jobs' charged memory budgets would pass the service budget (jobs
  without one are charged ``default_job_budget`` when configured),
  ``tenant-budget-exceeded`` past a tenant's concurrency or memory
  caps, ``overloaded`` when aggregate declared I/O demand would swamp
  the configured node bandwidth, ``draining`` during shutdown.  A job
  is *active* from admission until its record is terminal — queued,
  being dispatched (its runner forking) or running.
  Submitting a spec identical to a live or finished job
  reattaches/returns it (idempotent resubmission — the behaviour
  that makes "resubmit after a daemon restart" resume from the journal).
* **Bandwidth QoS** — with ``node_bandwidth`` configured, each
  dispatched job that declared an ``io_budget`` is assigned an
  allocator share (:mod:`repro.qos.allocator`) of the node bandwidth,
  handed to that attempt's runner in its spawn request; the runner
  enforces it with a token bucket on the real I/O edges.
* **One job table** — the daemon is the only writer of ``record.json``
  and ``spec.json``, so it reads them once, in ``_recover``, into
  :attr:`ServiceState.jobs <repro.service.state.ServiceState.jobs>`;
  from then on every decision (lookup, dedup, admission totals,
  dispatch, placement, shares, reaping) reads the table and every
  transition is written through it.
* **Crash safety** — every record mutation is durable before it is
  acknowledged; on startup, jobs found ``queued``/``running`` are
  re-queued (orphaned runners from a killed daemon are reaped first),
  and their journals turn the re-run into a resume.
* **Graceful drain** — SIGTERM stops the listener, terminates running
  runners (their journals hold the completed rounds), re-queues them
  durably, hangs up on the zygote and waits for it, and exits; a
  restarted daemon picks the queue back up.
* **Fault sites** — ``service.conn.drop`` severs accepted connections
  mid-exchange and ``service.job.crash`` SIGKILLs runners mid-job, so
  the seeded fault matrix covers the daemon the way it covers the
  runtimes.
* **Agent pool** — with ``--agents host:port,...`` (or dynamic
  ``register``/``deregister`` RPCs) the daemon owns an
  :class:`~repro.cluster.registry.AgentRegistry`: a health loop
  actively pings every agent between jobs, sharded jobs are dispatched
  with service-assigned ``--peers`` drawn from the healthy set
  (carried by that attempt's spawn request, never part of the spec
  hash), concurrent jobs spread across hosts, and the bandwidth
  allocator prices co-placed jobs against their *host's* capacity.
  ``cluster.agent.flap`` fails seeded probes; ``cluster.dispatch.stale``
  kills an agent in the window between health check and dispatch — the
  runner exits with ``PeerUnreachable``, the daemon marks the host and
  requeues onto survivors (journal resume keeps the digest identical).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import socket
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.cluster.health import HealthPolicy
from repro.cluster.registry import AgentRegistry
from repro.errors import AdmissionError, ConfigError, JobNotFound, ProtocolError
from repro.faults.log import ACTION_RESPAWNED
from repro.faults.plan import (
    SITE_CLUSTER_DISPATCH_STALE,
    SITE_QOS_TENANT_SURGE,
    SITE_SERVICE_CONN_DROP,
    SITE_SERVICE_JOB_CRASH,
    FaultPlan,
)
from repro.net.peers import parse_peers
from repro.qos.allocator import POLICIES, HostCapacityAllocator
from repro.qos.scheduling import DEFAULT_AGING_EVERY, QueueEntry, WeightedFairQueue
from repro.service import protocol
from repro.service.jobspec import ServiceJobSpec
from repro.service.state import (
    STATE_CANCELLED,
    STATE_DONE,
    STATE_FAILED,
    STATE_QUEUED,
    STATE_RUNNING,
    JobRecord,
    ServiceState,
)
from repro.util.atomic import publish
from repro.util.units import parse_size

#: Per-frame stall deadline for daemon-side reads: a frame that has
#: started must finish within this budget (idle between frames stays
#: untimed, so pooled keep-alive connections are unaffected).
FRAME_STALL_S = 30.0

#: The black hole ``cluster.dispatch.stale`` substitutes into a
#: placement: port 1 is reserved and essentially never listening, so
#: the runner's startup connect fails fast with ``PeerUnreachable`` —
#: exactly what an agent that died between health check and dispatch
#: looks like.
STALE_AGENT_ADDR = "127.0.0.1:1"

#: How long a drain waits for the zygote to exit on its own after the
#: control socket closed, before killing it.
ZYGOTE_EXIT_GRACE_S = 5.0


def signal_runner_tree(pid: int, sig: int = signal.SIGKILL) -> None:
    """Deliver ``sig`` to a runner's whole process tree.

    Runners are session leaders, so their process group holds every
    pool and shard worker they forked.  Killing only the runner pid leaves
    those workers alive as orphans that keep writing the attempt's
    checkpoint journal, spill runs, and exchange outboxes — and a
    relaunched attempt resuming from that journal then races a concurrent
    writer, which can silently corrupt the resumed container state (the
    digest diverges from the one-shot run).  The group kill closes that
    window; the direct pid kill keeps pre-session-leader runner pids
    (stale ``runner.pid`` files from an older daemon) covered.
    """
    with contextlib.suppress(OSError):
        os.killpg(pid, sig)
    with contextlib.suppress(OSError):
        os.kill(pid, sig)


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


class _ZygoteLost(Exception):
    """The zygote died (or hung up) with a fork request outstanding."""


class _Runner:
    """One forked runner as the daemon sees it: the awaitable stand-in
    for ``asyncio.subprocess.Process`` that ``_run_job`` drives."""

    def __init__(self, pid: int) -> None:
        self.pid = pid
        #: ``os.waitstatus_to_exitcode`` of the wait status; None while live.
        self.returncode: int | None = None
        #: The attempt's rusage as the zygote's ``wait4`` reported it
        #: (None when the zygote died before the runner did).
        self.cpu_s: float | None = None
        self.max_rss_mb: float | None = None
        self._ended = asyncio.Event()

    def _end(self, returncode: int) -> None:
        self.returncode = returncode
        self._ended.set()

    async def wait(self) -> int:
        """The exit code (negative signal number for a signal death)."""
        await self._ended.wait()
        return self.returncode


class _Zygote:
    """The daemon's end of one runner zygote (:mod:`repro.service.runner`).

    Construction execs the zygote and returns at once; requests written
    while it is still importing wait in the control socket.  The socket
    is the liveness signal both ways: the zygote treats EOF as "the
    daemon is gone" (kills its runners, exits), and ``_read_replies``
    treats EOF as "the zygote is gone" — it SIGKILLs the groups of the
    runners in flight, ends them as signal deaths so ``_run_job``
    requeues them, and tells the service through ``on_lost``.
    """

    def __init__(
        self, state_dir: Path, on_lost: "Callable[[_Zygote], None]"
    ) -> None:
        ours, theirs = socket.socketpair()
        try:
            # A fresh interpreter in its own session: nothing of the
            # event loop is inherited, and a terminal's ^C reaches the
            # daemon (which drains) but not the zygote.
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.service.runner", str(state_dir)],
                stdin=theirs, start_new_session=True,
            )
        except BaseException:
            ours.close()
            raise
        finally:
            theirs.close()
        self._on_lost = on_lost
        #: True once the zygote has answered anything, i.e. it booted.
        self.served = False
        self._forking: dict[str, asyncio.Future] = {}
        self._live: dict[str, _Runner] = {}
        self._closing = False
        self._streams = asyncio.ensure_future(
            asyncio.open_connection(sock=ours)
        )
        self._replies = asyncio.ensure_future(self._read_replies())

    async def spawn(self, request: dict[str, Any]) -> _Runner:
        """Fork one runner over ``request["job_id"]``'s directory; the
        rest of ``request`` is the attempt's parameters, which the
        forked runner reads (:func:`repro.service.runner.run_job_dir`).

        Raises ``OSError`` when the fork itself failed and
        :class:`_ZygoteLost` when the zygote died before answering.
        """
        _, writer = await self._streams
        if self._replies.done():
            raise _ZygoteLost()
        answer = asyncio.get_running_loop().create_future()
        self._forking[request["job_id"]] = answer
        try:
            await protocol.write_frame(writer, request)
        except ConnectionError:
            pass  # the reply loop sees the same hang-up and fails ``answer``
        return await answer

    async def _read_replies(self) -> None:
        reader, writer = await self._streams
        try:
            while True:
                msg = await protocol.read_frame(reader)
                self.served = True
                job_id = msg["job_id"]
                if "status" in msg:
                    runner = self._live.pop(job_id)
                    runner.cpu_s = msg["cpu_s"]
                    runner.max_rss_mb = msg["max_rss_mb"]
                    runner._end(os.waitstatus_to_exitcode(msg["status"]))
                elif "pid" in msg:
                    runner = self._live[job_id] = _Runner(msg["pid"])
                    self._forking.pop(job_id).set_result(runner)
                else:
                    self._forking.pop(job_id).set_exception(
                        OSError(msg["error"])
                    )
        except (EOFError, ProtocolError, OSError, KeyError):
            pass  # hung up, or answered something we never asked
        writer.close()
        # The conversation is over (a cancellation does not get here: the
        # loop is being torn down, and the socket closing with it tells
        # the zygote).  This zygote reaps nothing more for us, so its
        # runners die with it.
        for answer in self._forking.values():
            answer.set_exception(_ZygoteLost())
        self._forking.clear()
        for runner in self._live.values():
            signal_runner_tree(runner.pid, signal.SIGKILL)
            runner._end(-signal.SIGKILL)
        self._live.clear()
        if not self._closing:
            self._on_lost(self)

    async def close(self) -> None:
        """Hang up — the zygote kills whatever it still has and exits —
        and reap it, so it is gone before the daemon is."""
        self._closing = True
        _, writer = await self._streams
        writer.close()
        await asyncio.wait([self._replies])
        await asyncio.get_running_loop().run_in_executor(
            None, self.reap, ZYGOTE_EXIT_GRACE_S
        )

    def reap(self, grace_s: float = 0.0) -> None:
        """Wait for the zygote process (blocking), killing it if it is
        still there after ``grace_s``."""
        try:
            self.proc.wait(grace_s)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


@dataclass
class _RunningJob:
    record: JobRecord
    proc: _Runner
    cancelling: bool = False


@dataclass
class JobService:
    """A running daemon instance (construct, then :meth:`run_until_stopped`)."""

    config: ServiceConfig
    state: ServiceState = field(init=False)

    def __post_init__(self) -> None:
        self.state = ServiceState(Path(self.config.state_dir))
        self._queue = WeightedFairQueue(aging_every=self.config.aging_every)
        self._running: dict[str, _RunningJob] = {}
        self._job_tasks: set[asyncio.Task] = set()
        self._watchers: dict[str, list[asyncio.Queue]] = {}
        self._seq = 0
        self._conn_seq = 0
        self._draining = False
        self._stop = asyncio.Event()
        self._server: asyncio.AbstractServer | None = None
        #: The live runner zygote; None until the first need of one and
        #: between losing one and starting the next.
        self._zygote: _Zygote | None = None
        self._injector = (
            self.config.fault_plan.arm()
            if self.config.fault_plan is not None else None
        )
        #: Dispatch-time bandwidth shares of currently running jobs
        #: (job_id -> assigned bytes/second); must drain back to {} —
        #: a non-empty map at shutdown means tokens leaked.
        self._io_assigned: dict[str, int] = {}
        #: The agent pool.  Always constructed (dynamic registration
        #: works on a daemon started without ``--agents``); placement
        #: only engages while it is non-empty.
        self._registry = AgentRegistry(
            agents=self.config.agents or (),
            policy=HealthPolicy(
                probe_interval_s=self.config.health_interval_s,
            ),
            probe_timeout_s=self.config.probe_timeout_s,
            injector=self._injector,
        )
        #: Service-assigned peers of currently running jobs
        #: (job_id -> placement tuple); like ``_io_assigned``, must
        #: drain back to {} — a leftover entry means a leaked in-flight
        #: charge on some agent.
        self._placements: dict[str, tuple[str, ...]] = {}
        self._health_task: "asyncio.Task | None" = None
        #: Per-tenant completion tallies accumulated from finished jobs'
        #: result counters (jobs, throttled bytes, waiting done).
        self.tenant_stats: dict[str, dict[str, float]] = {}
        self.counters: dict[str, int] = {
            "admitted": 0, "reattached": 0, "rejected": 0,
            "completed": 0, "failed": 0, "cancelled": 0,
            "runner_crashes": 0, "conn_drops": 0, "reaped": 0,
            "shed": 0, "tenant_rejected": 0,
            "placed": 0, "stale_dispatches": 0, "hosts_lost": 0,
        }

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind, recover durable state, and start serving; returns the
        advertised (host, port)."""
        # first, so that it imports while the daemon recovers and binds
        self._ensure_zygote()
        self._recover()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host,
            port=self.config.port,
        )
        host, port = self._server.sockets[0].getsockname()[:2]
        self.state.write_endpoint(host, port)
        with contextlib.suppress(NotImplementedError, RuntimeError):
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(sig, self.request_stop)
        self._health_task = asyncio.ensure_future(self._health_loop())
        self._schedule()
        return host, port

    async def _health_loop(self) -> None:
        """Probe the agent pool on its schedule, forever.

        The probes themselves are blocking socket I/O, so each round
        runs on an executor thread; the tick is deliberately finer than
        ``health_interval_s`` because suspect quick-retries and
        quarantine re-probes come due off-cycle.  Every round that
        probed anything re-runs the scheduler — a pool that just
        settled (or an agent that just recovered) may unblock queued
        placement-hungry jobs.
        """
        loop = asyncio.get_running_loop()
        tick = max(0.05, min(0.25, self.config.health_interval_s / 4))
        while not self._stop.is_set():
            if len(self._registry):
                probed = await loop.run_in_executor(
                    None, self._registry.probe_round
                )
                if probed:
                    self._schedule()
            try:
                await asyncio.wait_for(self._stop.wait(), timeout=tick)
            except asyncio.TimeoutError:
                continue

    async def run_until_stopped(self) -> None:
        """Serve until :meth:`request_stop` (SIGTERM/shutdown), then drain."""
        if self._server is None:
            await self.start()
        await self._stop.wait()
        await self._drain()

    def request_stop(self) -> None:
        """Begin the graceful drain (idempotent, signal-safe)."""
        self._draining = True
        self._stop.set()

    async def _drain(self) -> None:
        """Stop accepting, stop runners (journals keep their progress),
        re-queue them durably, and clear the endpoint."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._health_task is not None:
            self._health_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._health_task
        for running in list(self._running.values()):
            signal_runner_tree(running.proc.pid, signal.SIGTERM)
        if self._job_tasks:
            done, pending = await asyncio.wait(
                list(self._job_tasks), timeout=10.0
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.wait(pending, timeout=5.0)
        # anything the tasks left running goes back to the queue
        for job_id, running in list(self._running.items()):
            signal_runner_tree(running.proc.pid, signal.SIGKILL)
            self._set_state(running.record.with_(state=STATE_QUEUED))
            del self._running[job_id]
        if self._zygote is not None:
            await self._zygote.close()
            self._zygote = None
        self.state.clear_endpoint()

    def _recover(self) -> None:
        """Load the job table — the daemon's one read of its records and
        specs; re-queue interrupted jobs; reap orphan runners."""
        self.state.load_jobs()
        for entry in self.state.jobs.values():
            record = entry.record
            self._seq = max(self._seq, record.seq + 1)
            if record.state == STATE_RUNNING:
                self._kill_orphan_runner(record.job_id)
                record = record.with_(state=STATE_QUEUED)
                self.state.save_record(record)
            if record.state == STATE_QUEUED:
                self._push(record)

    def _kill_orphan_runner(self, job_id: str) -> None:
        """SIGKILL a runner left over from a daemon that died mid-job —
        the whole process group, not just the runner pid, so its forked
        shard workers can never race the relaunched attempt over the
        checkpoint journal."""
        pid_path = self.state.job_dir(job_id) / "runner.pid"
        try:
            pid = int(pid_path.read_text().strip())
        except (OSError, ValueError):
            return
        signal_runner_tree(pid, signal.SIGKILL)
        pid_path.unlink(missing_ok=True)

    # -- queue + scheduler ---------------------------------------------------

    def _push(self, record: JobRecord) -> None:
        self._queue.push(QueueEntry(
            job_id=record.job_id,
            tenant=self.state.jobs[record.job_id].spec.tenant,
            priority=record.priority,
            seq=record.seq,
        ))

    def _needs_placement(self, job_id: str) -> bool:
        """Does this job want service-assigned peers at dispatch?

        Sharded jobs without user-pinned ``peers`` are placed from the
        registry whenever the pool is non-empty; everything else runs
        locally exactly as before.
        """
        spec = self.state.jobs[job_id].spec
        return bool(len(self._registry) and spec.shards and not spec.peers)

    def _pop_next(self) -> JobRecord | None:
        eligible = None
        if len(self._registry) and not self._registry.settled:
            # Health-gated dispatch: until the first probe round has
            # measured the pool, placement-hungry jobs wait (the health
            # loop re-schedules the moment the pool settles); jobs that
            # never wanted placement flow through unimpeded.
            def eligible(entry: QueueEntry) -> bool:
                return not self._needs_placement(entry.job_id)
        # None from the queue: empty, or nothing eligible right now
        while (entry := self._queue.pop(eligible)) is not None:
            record = self.state.jobs[entry.job_id].record
            if record.state == STATE_QUEUED:  # else cancelled while queued
                return record
        return None

    def queue_depth(self) -> int:
        """Jobs admitted but not yet dispatched."""
        return len(self._queue)

    def _schedule(self) -> None:
        """Fill free runner slots from the queue (never blocks).

        Slots are counted via ``_job_tasks`` (one task per live runner
        attempt) rather than ``_running``: a task occupies its slot from
        the synchronous moment it is created, so a burst of submissions
        cannot launch more than ``max_concurrent`` runners.
        """
        if self._draining:
            return
        while len(self._job_tasks) < self.config.max_concurrent:
            record = self._pop_next()
            if record is None:
                return
            task = asyncio.ensure_future(self._run_job(record))
            self._job_tasks.add(task)
            task.add_done_callback(self._job_done)

    def _job_done(self, task: asyncio.Task) -> None:
        """Free the slot and refill (runs after ``_run_job`` returns)."""
        self._job_tasks.discard(task)
        self._schedule()

    # -- admission -----------------------------------------------------------

    def _charged_budget(self, spec: ServiceJobSpec) -> int:
        """Memory bytes one spec is charged against the budget caps.

        Jobs submitted without a ``memory_budget`` are charged the
        configured ``default_job_budget`` — previously they were charged
        nothing, which let budgetless jobs slip past the service-wide
        Σ-budget cap entirely.
        """
        if spec.memory_budget is not None:
            return parse_size(spec.memory_budget)
        if self.config.default_job_budget is not None:
            return self.config.default_job_budget
        return 0

    def _active_specs(self) -> list[ServiceJobSpec]:
        """Specs of the jobs admission limits count: admitted and not
        finished.  A job is active from ``create_job`` until its record
        is terminal, so one whose runner is still forking — in neither
        the queue nor ``_running`` — is counted like any other."""
        return [
            entry.spec for entry in self.state.jobs.values()
            if not entry.record.finished
        ]

    def admit(
        self, spec: ServiceJobSpec, rerun: bool = False
    ) -> tuple[JobRecord, bool]:
        """Admit one submission; returns ``(record, reattached)``.

        Raises :class:`~repro.errors.AdmissionError` instead of queuing
        unboundedly — the caller turns it into a typed error reply.
        Checks run cheapest-first: drain state, dedup, the
        ``qos.tenant.surge`` shedding site, queue depth, per-tenant
        concurrency and memory budgets, the service-wide memory budget,
        and finally bandwidth-overload shedding.
        """
        if self._draining:
            raise AdmissionError(
                "service is draining and accepts no new jobs",
                code=protocol.ERR_DRAINING,
            )
        job_id = spec.job_id()
        existing = self.state.jobs.get(job_id)
        if existing is not None and not rerun:
            # live → reattach; finished → idempotent result handle
            self.counters["reattached"] += 1
            return existing.record, True
        if existing is not None:
            if not existing.record.finished:
                raise AdmissionError(
                    f"job {job_id} is {existing.record.state}; cancel it "
                    "before rerunning", code=protocol.ERR_BAD_REQUEST,
                )
            self.state.remove_job(job_id)
        if self._injector is not None:
            # The chaos half of overload protection: an injected tenant
            # surge sheds this admission exactly as a real overload
            # would.  The scope includes the job id, so a once-per-scope
            # spec lets the client's resubmission of the same job pass.
            decision = self._injector.check(
                SITE_QOS_TENANT_SURGE, scope=(spec.tenant, job_id)
            )
            if decision is not None:
                self.counters["shed"] += 1
                self.counters["rejected"] += 1
                raise AdmissionError(
                    f"tenant {spec.tenant!r} admission surge shed "
                    "(injected); resubmit",
                    code=protocol.ERR_OVERLOADED,
                )
        if self.queue_depth() >= self.config.max_queue_depth:
            self.counters["rejected"] += 1
            raise AdmissionError(
                f"queue depth {self.queue_depth()} is at the limit "
                f"({self.config.max_queue_depth}); retry later",
                code=protocol.ERR_QUEUE_FULL,
            )
        limits = (
            self.config.tenant_max_concurrent, self.config.tenant_budget,
            self.config.service_budget, self.config.node_bandwidth,
        )
        # one pass over the table, and none on a daemon without limits
        active = self._active_specs() if any(
            limit is not None for limit in limits
        ) else []
        if self.config.tenant_max_concurrent is not None:
            tenant_jobs = sum(s.tenant == spec.tenant for s in active)
            if tenant_jobs >= self.config.tenant_max_concurrent:
                self.counters["tenant_rejected"] += 1
                self.counters["rejected"] += 1
                raise AdmissionError(
                    f"tenant {spec.tenant!r} already has {tenant_jobs} admitted "
                    f"job(s); the per-tenant limit is "
                    f"{self.config.tenant_max_concurrent}",
                    code=protocol.ERR_TENANT_BUDGET,
                )
        if self.config.tenant_budget is not None:
            tenant_admitted = sum(
                self._charged_budget(s) for s in active
                if s.tenant == spec.tenant
            )
            asked = self._charged_budget(spec)
            if tenant_admitted + asked > self.config.tenant_budget:
                self.counters["tenant_rejected"] += 1
                self.counters["rejected"] += 1
                raise AdmissionError(
                    f"admitting {asked} budget bytes for tenant "
                    f"{spec.tenant!r} on top of {tenant_admitted} would "
                    f"exceed its budget ({self.config.tenant_budget})",
                    code=protocol.ERR_TENANT_BUDGET,
                )
        if self.config.service_budget is not None:
            if (
                spec.memory_budget is None
                and self.config.default_job_budget is None
            ):
                self.counters["rejected"] += 1
                raise AdmissionError(
                    "this service enforces a memory budget; submit with "
                    "a per-job memory_budget",
                    code=protocol.ERR_BUDGET_EXCEEDED,
                )
            admitted = sum(self._charged_budget(s) for s in active)
            asked = self._charged_budget(spec)
            if admitted + asked > self.config.service_budget:
                self.counters["rejected"] += 1
                raise AdmissionError(
                    f"admitting {asked} budget bytes on top of {admitted} "
                    f"would exceed the service budget "
                    f"({self.config.service_budget})",
                    code=protocol.ERR_BUDGET_EXCEEDED,
                )
        if (
            self.config.node_bandwidth is not None
            and spec.io_budget is not None
        ):
            demand = parse_size(spec.io_budget) + sum(
                parse_size(s.io_budget) for s in active
                if s.io_budget is not None
            )
            limit = self.config.node_bandwidth * self.config.shed_factor
            if demand > limit:
                self.counters["shed"] += 1
                self.counters["rejected"] += 1
                raise AdmissionError(
                    f"aggregate declared I/O demand ({demand} B/s) would "
                    f"exceed {self.config.shed_factor}x the node bandwidth "
                    f"({self.config.node_bandwidth} B/s); shedding load",
                    code=protocol.ERR_OVERLOADED,
                )
        record = JobRecord(
            job_id=job_id, state=STATE_QUEUED, priority=spec.priority,
            seq=self._seq,
        )
        self._seq += 1
        self.state.create_job(spec, record)
        self.counters["admitted"] += 1
        self._push(record)
        self._schedule()
        return record, False

    # -- execution -----------------------------------------------------------

    def _primary_host(self, job_id: str) -> str:
        """The host a job's bandwidth is charged against.

        Placed jobs charge the first agent of their placement (where
        the coordinator lands the heaviest exchange traffic); local
        jobs all share the daemon host's capacity, which is exactly the
        pre-cluster behaviour.
        """
        placed = self._placements.get(job_id)
        return placed[0] if placed else "local"

    def _assign_io_share(self, job_id: str) -> "int | None":
        """Dispatch-time bandwidth share for one job (bytes/second).

        With ``node_bandwidth`` configured, the job's declared demand is
        run through the configured allocator policy alongside the
        demands of every currently running job *on the same host*:
        the per-host composition means two jobs placed on one agent
        split that host's capacity, while jobs on different hosts do
        not contend (each agent brings its own disk).  The job's share
        — not its raw ask — becomes the token-bucket rate the runner
        enforces.  Jobs with no declared ``io_budget`` run unthrottled
        and return None.
        """
        if self.config.node_bandwidth is None:
            return None
        if self.state.jobs[job_id].spec.io_budget is None:
            return None
        allocator = HostCapacityAllocator(
            self.config.node_bandwidth, inner_policy=self.config.qos_policy
        )
        for contender in (job_id, *self._running):
            spec = self.state.jobs[contender].spec
            if spec.io_budget is not None:
                allocator.register(
                    contender, parse_size(spec.io_budget),
                    priority=spec.io_priority,
                    host=self._primary_host(contender),
                )
        shares = allocator.allocate()
        return max(1, int(shares[job_id]))

    def _place_job(self, job_id: str, attempt: int) -> tuple[str, ...]:
        """Service-assigned peers for one dispatch.

        Placement is *per attempt* and travels in the attempt's spawn
        request, never inside the spec — the job id must not change
        because the pool did — so a requeued job is automatically
        re-placed onto whoever survives.  An empty placement (no
        healthy agent) falls back to a local run: the job still
        finishes with the same digest, just without the fan-out.
        """
        if not self._needs_placement(job_id):
            return ()
        placement = self._registry.place(
            job_id, int(self.state.jobs[job_id].spec.shards)
        )
        if placement and self._injector is not None:
            # The stale-dispatch window: the agent passed its health
            # check but died before the runner dialed it.  Substituting
            # a black-hole address reproduces exactly that — the
            # runner's startup connect fails with PeerUnreachable.
            decision = self._injector.check(
                SITE_CLUSTER_DISPATCH_STALE, scope=job_id, attempt=attempt
            )
            if decision is not None:
                placement = (STALE_AGENT_ADDR,) + placement[1:]
        if placement:
            self._placements[job_id] = placement
            self.counters["placed"] += 1
        return placement

    async def _run_job(self, record: JobRecord) -> None:
        job_id = record.job_id
        attempt = record.attempts + 1
        record = record.with_(state=STATE_RUNNING, attempts=attempt)
        job_dir = self.state.job_dir(job_id)
        # What this attempt — and no later one — runs with rides the
        # spawn request: it dies with the runner it was handed to.
        request: dict[str, Any] = {"job_id": job_id}
        placement = self._place_job(job_id, attempt)
        if placement:
            request["peers"] = list(placement)
            request["net_timeout"] = self.config.net_timeout_s
        assigned = self._assign_io_share(job_id)
        if assigned is not None:
            request["io_budget"] = self._io_assigned[job_id] = assigned
        if self._injector is not None:
            decision = self._injector.check(
                SITE_SERVICE_JOB_CRASH, scope=job_id, attempt=attempt
            )
            if decision is not None:
                request["crash_after_round"] = 1
        proc = None
        try:
            try:
                proc = await self._ensure_zygote().spawn(request)
            except OSError as exc:
                self._finish(record.with_(
                    state=STATE_FAILED, exit_code=1,
                    error=f"runner launch failed: {exc}",
                ))
                return
            except _ZygoteLost:
                self._runner_crashed(record, "the zygote died before the fork")
                return
            publish(job_dir / "runner.pid", str(proc.pid))
            running = _RunningJob(record=record, proc=proc)
            self._running[job_id] = running
            self._set_state(record)
            if self._draining:
                # the drain's SIGTERM round went by while the zygote forked
                signal_runner_tree(proc.pid, signal.SIGTERM)
            timed_out = False
            try:
                rc = await asyncio.wait_for(
                    proc.wait(), timeout=self.config.job_timeout_s
                )
            except asyncio.TimeoutError:
                timed_out = True
                signal_runner_tree(proc.pid, signal.SIGKILL)
                rc = await proc.wait()
            running.record = running.record.with_(
                cpu_s=proc.cpu_s, max_rss_mb=proc.max_rss_mb,
            )
        finally:
            if proc is not None and proc.returncode is None:
                # this task was cancelled under a live runner
                signal_runner_tree(proc.pid, signal.SIGKILL)
            # A runner that ended needs no sweep here: the zygote killed
            # its process group before reaping it, so no shard worker of
            # this attempt is left to keep writing the checkpoint journal
            # the requeued attempt is about to resume from.
            self._running.pop(job_id, None)
            self._io_assigned.pop(job_id, None)
            self._placements.pop(job_id, None)
            self._registry.release(job_id)
            (job_dir / "runner.pid").unlink(missing_ok=True)
        if timed_out:
            self._finish(running.record.with_(
                state=STATE_FAILED, exit_code=4,
                error=f"runner exceeded the service job timeout "
                      f"({self.config.job_timeout_s}s)",
            ))
            return
        if self._draining:
            # drain terminated the runner; put the job back for the
            # next daemon instance (the journal keeps its rounds)
            self._set_state(running.record.with_(state=STATE_QUEUED))
            return
        if running.cancelling:
            self._finish(running.record.with_(
                state=STATE_CANCELLED, exit_code=rc,
                error="cancelled while running",
            ))
        elif rc == 0 or rc == 4:
            self._record_success(running.record, rc)
        elif rc in (1, 2, 3):
            error = self._read_error(job_dir)
            if (
                rc == 2 and placement
                and error.partition(":")[0] == "PeerUnreachable"
            ):
                # Stale dispatch: *we* handed the runner a peer that
                # died between the health check and the dial — not the
                # user's mistake, so this is retried, not failed.  The
                # unreachable host is marked (all of them, when the
                # message names none) and the requeued attempt is
                # re-placed onto survivors; the journal turns the rerun
                # into a resume, so nothing is double-counted.
                self.counters["stale_dispatches"] += 1
                stale = [a for a in placement if a in error] or list(placement)
                for addr in stale:
                    self._registry.mark_lost(
                        addr, "unreachable at dispatch"
                    )
                if attempt < self.config.max_attempts:
                    self._requeue(running.record)
                    return
                error += f"; attempts exhausted ({attempt})"
            self._finish(running.record.with_(
                state=STATE_FAILED, exit_code=rc, error=error,
            ))
        else:
            # killed by a signal or an unclassified crash
            self._runner_crashed(running.record, f"exit {rc}")

    def _requeue(self, record: JobRecord) -> None:
        """Put a dispatched job back in line for another attempt."""
        requeued = record.with_(state=STATE_QUEUED)
        self._set_state(requeued)
        self._push(requeued)

    def _runner_crashed(self, record: JobRecord, how: str) -> None:
        """An attempt died of something that is not the job's verdict:
        relaunch and resume from the journal, bounded by max_attempts
        (``record.attempts`` already counts the attempt that died)."""
        self.counters["runner_crashes"] += 1
        if self._injector is not None:
            self._injector.log.record(
                SITE_SERVICE_JOB_CRASH, ACTION_RESPAWNED,
                f"runner for {record.job_id} crashed ({how}); relaunching",
                scope=record.job_id, attempt=record.attempts,
            )
        if record.attempts >= self.config.max_attempts:
            self._finish(record.with_(
                state=STATE_FAILED, exit_code=1,
                error=f"runner crashed ({how}) "
                      f"{record.attempts} time(s); attempts exhausted",
            ))
        else:
            self._requeue(record)

    def _ensure_zygote(self) -> _Zygote:
        """The live zygote, starting one when there is none."""
        if self._zygote is None:
            self._zygote = _Zygote(self.state.state_dir, self._zygote_lost)
        return self._zygote

    def _zygote_lost(self, zygote: _Zygote) -> None:
        """The zygote hung up on us (its in-flight runners were killed
        and are being requeued as crashes by their ``_run_job``s)."""
        asyncio.get_running_loop().run_in_executor(None, zygote.reap)
        if self._zygote is zygote:
            self._zygote = None
            # One that never got as far as answering is not replaced
            # until a job needs it: a zygote that cannot boot must not
            # be restarted in a loop.
            if zygote.served and not self._draining:
                self._ensure_zygote()

    def _record_success(self, record: JobRecord, rc: int) -> None:
        job_dir = self.state.job_dir(record.job_id)
        digest = None
        resumed = False
        try:
            report = json.loads((job_dir / "result.json").read_text())
            digest = report.get("digest")
            resumed = bool(report.get("counters", {}).get("resumed"))
        except (OSError, ValueError):
            self._finish(record.with_(
                state=STATE_FAILED, exit_code=1,
                error="runner exited 0 without a readable result.json",
            ))
            return
        counters = report.get("counters", {}) or {}
        for addr in counters.get("net_hosts_lost") or ():
            # The runner's host-loss ladder already absorbed this agent
            # mid-job; fold the loss into the registry so the next
            # placement does not hand the dead host out again.
            self._registry.mark_lost(str(addr), "lost mid-job")
            self.counters["hosts_lost"] += 1
        tenant = (
            counters.get("tenant") or self.state.jobs[record.job_id].spec.tenant
        )
        stats = self.tenant_stats.setdefault(tenant, {
            "jobs": 0, "throttle_bytes": 0, "throttle_wait_s": 0.0,
        })
        stats["jobs"] += 1
        stats["throttle_bytes"] += int(counters.get("throttle_bytes", 0))
        stats["throttle_wait_s"] = round(
            stats["throttle_wait_s"]
            + float(counters.get("throttle_wait_s", 0.0)), 6,
        )
        self._finish(record.with_(
            state=STATE_DONE, exit_code=rc, digest=digest, resumed=resumed,
        ))

    def _read_error(self, job_dir: Path) -> str:
        try:
            err = json.loads((job_dir / "error.json").read_text())
            return f"{err.get('type')}: {err.get('message')}"
        except (OSError, ValueError):
            return "runner failed without an error report"

    def _finish(self, record: JobRecord) -> None:
        if record.state == STATE_DONE:
            self.counters["completed"] += 1
        elif record.state == STATE_FAILED:
            self.counters["failed"] += 1
        elif record.state == STATE_CANCELLED:
            self.counters["cancelled"] += 1
        self._set_state(record)

    def _qos_counters(self) -> dict[str, int]:
        """The counters dict plus the queue's live aging tally."""
        return {**self.counters, "aged": self._queue.aged}

    def _tenant_overview(self) -> dict[str, dict[str, Any]]:
        """Per-tenant queue depth and finished-job QoS stats."""
        overview: dict[str, dict[str, Any]] = {}
        for tenant, depth in self._queue.tenants().items():
            overview.setdefault(tenant, {})["queued"] = depth
        for tenant, stats in self.tenant_stats.items():
            overview.setdefault(tenant, {}).update(stats)
        return overview

    # -- state broadcast -----------------------------------------------------

    def _set_state(self, record: JobRecord) -> None:
        self.state.save_record(record)
        self._broadcast(record)

    def _broadcast(self, record: JobRecord) -> None:
        for queue in self._watchers.get(record.job_id, ()):
            queue.put_nowait(record)
        if record.finished:
            self._watchers.pop(record.job_id, None)

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._conn_seq += 1
        conn_id = self._conn_seq
        msg_index = 0
        try:
            while True:
                try:
                    # Idle keep-alive is fine (the wait for a frame's
                    # first byte is untimed), but a started frame must
                    # finish within the stall deadline or the slot is
                    # reclaimed — one slow-loris client cannot pin a
                    # daemon connection open forever.
                    msg = await protocol.read_frame(
                        reader, stall_timeout_s=FRAME_STALL_S
                    )
                except EOFError:
                    return
                except ProtocolError as exc:
                    with contextlib.suppress(ConnectionError):
                        await protocol.write_frame(writer, protocol.error_reply(
                            protocol.ERR_BAD_REQUEST,
                            f"protocol violation: {exc}",
                        ))
                    return
                msg_index += 1
                if self._injector is not None:
                    decision = self._injector.check(
                        SITE_SERVICE_CONN_DROP, scope=(conn_id, msg_index)
                    )
                    if decision is not None:
                        self.counters["conn_drops"] += 1
                        return  # sever without a reply; client retries
                if not isinstance(msg, dict):
                    await protocol.write_frame(writer, protocol.error_reply(
                        protocol.ERR_BAD_REQUEST,
                        "binary frames carry no requests",
                    ))
                    continue
                done = await self._dispatch(msg, writer)
                if done:
                    return
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    async def _dispatch(
        self, msg: dict[str, Any], writer: asyncio.StreamWriter
    ) -> bool:
        """Handle one request; True ends the connection (shutdown/watch)."""
        req = msg.get("type")
        try:
            if req == protocol.REQ_PING:
                await protocol.write_frame(writer, protocol.ok_reply(
                    version=protocol.PROTOCOL_VERSION,
                    draining=self._draining,
                    running=len(self._running),
                    queued=self.queue_depth(),
                    counters=self._qos_counters(),
                    io_assigned_bps=sum(self._io_assigned.values()),
                    tenants=self._tenant_overview(),
                ))
            elif req == protocol.REQ_SUBMIT:
                await self._handle_submit(msg, writer)
            elif req == protocol.REQ_STATUS:
                await self._handle_status(msg, writer)
            elif req == protocol.REQ_RESULT:
                await self._handle_result(msg, writer)
            elif req == protocol.REQ_CANCEL:
                await self._handle_cancel(msg, writer)
            elif req == protocol.REQ_WATCH:
                await self._handle_watch(msg, writer)
                return True
            elif req == protocol.REQ_AGENTS:
                await protocol.write_frame(writer, protocol.ok_reply(
                    agents=self._registry.snapshot(),
                    settled=self._registry.settled,
                ))
            elif req == protocol.REQ_REGISTER:
                addr, created = self._registry.register(
                    str(msg.get("addr", ""))
                )
                await protocol.write_frame(writer, protocol.ok_reply(
                    addr=addr, created=created,
                ))
            elif req == protocol.REQ_DEREGISTER:
                removed = self._registry.deregister(
                    str(msg.get("addr", ""))
                )
                await protocol.write_frame(writer, protocol.ok_reply(
                    removed=removed,
                ))
            elif req == protocol.REQ_SHUTDOWN:
                await protocol.write_frame(writer, protocol.ok_reply(
                    draining=True
                ))
                self.request_stop()
                return True
            else:
                await protocol.write_frame(writer, protocol.error_reply(
                    protocol.ERR_BAD_REQUEST,
                    f"unknown request type {req!r}",
                ))
        except AdmissionError as exc:
            await protocol.write_frame(
                writer, protocol.error_reply(exc.code, str(exc))
            )
        except JobNotFound as exc:
            await protocol.write_frame(
                writer, protocol.error_reply(protocol.ERR_NOT_FOUND, str(exc))
            )
        except ConfigError as exc:
            await protocol.write_frame(
                writer, protocol.error_reply(protocol.ERR_BAD_REQUEST, str(exc))
            )
        return False

    async def _handle_submit(
        self, msg: dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        spec = ServiceJobSpec.from_dict(msg.get("spec"))
        record, reattached = self.admit(spec, rerun=bool(msg.get("rerun")))
        await protocol.write_frame(writer, protocol.ok_reply(
            job_id=record.job_id, state=record.state,
            reattached=reattached, position=self.queue_depth(),
        ))

    def _record(self, msg: dict[str, Any]) -> JobRecord:
        """The record of the job a request names (``_dispatch`` answers
        :class:`~repro.errors.JobNotFound` with ``not-found``)."""
        entry = self.state.jobs.get(str(msg.get("job_id")))
        if entry is None:
            raise JobNotFound(f"no such job: {msg.get('job_id')}")
        return entry.record

    async def _handle_status(
        self, msg: dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        if msg.get("job_id") is None:
            await protocol.write_frame(writer, protocol.ok_reply(
                jobs=[e.record.to_dict() for e in self.state.jobs.values()],
                running=len(self._running),
                queued=self.queue_depth(), counters=self._qos_counters(),
                io_assigned_bps=sum(self._io_assigned.values()),
                tenants=self._tenant_overview(),
            ))
            return
        await protocol.write_frame(
            writer, protocol.ok_reply(job=self._record(msg).to_dict())
        )

    async def _handle_result(
        self, msg: dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        record = self._record(msg)
        if not record.finished:
            await protocol.write_frame(writer, protocol.error_reply(
                protocol.ERR_NOT_FINISHED,
                f"job {record.job_id} is {record.state}; no result yet",
            ))
            return
        report = None
        if record.state == STATE_DONE:
            report = json.loads(self.state.read_result(record.job_id))
        if not record.result_fetched:
            record = record.with_(result_fetched=True)
            self.state.save_record(record)
        reaped = self.state.reap_checkpoints(self.config.retention)
        self.counters["reaped"] += len(reaped)
        await protocol.write_frame(writer, protocol.ok_reply(
            job=record.to_dict(), report=report,
        ))

    async def _handle_cancel(
        self, msg: dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        record = self._record(msg)
        if not record.finished:
            running = self._running.get(record.job_id)
            if running is not None:
                running.cancelling = True
                signal_runner_tree(running.proc.pid, signal.SIGTERM)
                await protocol.write_frame(writer, protocol.ok_reply(
                    job=running.record.to_dict(), cancelling=True,
                ))
                return
            # queued: drop it from the fair queue
            self._queue.remove(record.job_id)
            record = record.with_(
                state=STATE_CANCELLED, error="cancelled while queued"
            )
            self.counters["cancelled"] += 1
            self._set_state(record)
        await protocol.write_frame(
            writer, protocol.ok_reply(job=record.to_dict())
        )

    async def _handle_watch(
        self, msg: dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        """Stream state transitions for one job until it finishes."""
        record = self._record(msg)
        job_id = record.job_id
        queue: asyncio.Queue = asyncio.Queue()
        if not record.finished:
            self._watchers.setdefault(job_id, []).append(queue)
        await protocol.write_frame(writer, protocol.ok_reply(
            event="state", job=record.to_dict(),
        ))
        try:
            while not record.finished:
                record = await queue.get()
                await protocol.write_frame(writer, protocol.ok_reply(
                    event="state", job=record.to_dict(),
                ))
        finally:
            watchers = self._watchers.get(job_id)
            if watchers and queue in watchers:
                watchers.remove(queue)

    # -- convenience ---------------------------------------------------------

    @property
    def fault_events(self) -> list:
        """Service-site fault-log events (for status/tests)."""
        if self._injector is None:
            return []
        return list(self._injector.log.events)


async def serve(config: ServiceConfig) -> None:
    """Run a daemon until SIGTERM/shutdown; the ``repro serve`` body."""
    service = JobService(config)
    host, port = await service.start()
    print(f"repro service listening on {host}:{port} "
          f"(state dir {config.state_dir})", flush=True)
    await service.run_until_stopped()
    print("repro service drained; exiting", flush=True)
