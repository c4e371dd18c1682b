"""The job-service daemon: asyncio TCP server + queue + admission control.

One :class:`JobService` owns a state directory and serves many
concurrent clients over the framed protocol.  The moving parts:

* **Job queue** — a weighted-fair queue across tenants
  (:class:`repro.qos.scheduling.WeightedFairQueue`): each tenant's
  virtual clock advances per dispatch, within a tenant higher
  ``priority`` goes first (FIFO within a level) softened by priority
  aging so no class starves.  A scheduler fills up to
  ``max_concurrent`` runner slots from it.
* **Runners** — the daemon runs no MapReduce work itself: each attempt
  is a ``fork`` of one pre-imported runner zygote, requested over a
  control socket (:mod:`repro.service.zygote`, which also owns every
  signal a runner is sent).
* **Attempts** — what the daemon decided for a dispatched job lives in
  one :class:`Attempt` in one table, from the synchronous moment the
  scheduler pops the job until one ``finally`` removes it: slots,
  cancel, drain, bandwidth contenders and ``ping`` all read that table,
  and a job whose runner is still forking is simply an attempt without
  a runner yet.
* **Decisions** — admission, the dispatch-time bandwidth share and what
  becomes of a job whose attempt ended are pure functions
  (:mod:`repro.service.core`); this module is their shell — sockets,
  the zygote, files, counters and the fault injector.
* **Admission control** — submissions are *rejected with a typed error*
  rather than queued unboundedly: ``queue-full`` past
  ``max_queue_depth``, ``budget-exceeded`` when the sum of active
  jobs' charged memory budgets would pass the service budget (jobs
  without one are charged ``default_job_budget`` when configured),
  ``tenant-budget-exceeded`` past a tenant's concurrency or memory
  caps, ``overloaded`` when aggregate declared I/O demand would swamp
  the configured node bandwidth, ``draining`` during shutdown.  A job
  is *active* from admission until its record is terminal.
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
import signal
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.cluster.registry import AgentRegistry
from repro.errors import AdmissionError, ConfigError, JobNotFound, ProtocolError
from repro.faults.log import ACTION_RESPAWNED
from repro.faults.plan import (
    SITE_CLUSTER_DISPATCH_STALE,
    SITE_QOS_TENANT_SURGE,
    SITE_SERVICE_CONN_DROP,
    SITE_SERVICE_JOB_CRASH,
)
from repro.qos.scheduling import QueueEntry, WeightedFairQueue
from repro.service import protocol
from repro.service.core import (
    Outcome,
    Rejection,
    ServiceConfig,
    admission_verdict,
    attempt_outcome,
    io_share,
)
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
from repro.service.zygote import Runner, Zygote, ZygoteLost, signal_runner_tree
from repro.util.atomic import publish

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


@dataclass
class Attempt:
    """One dispatch of one job: everything the daemon decided for it."""

    #: The job's record as this attempt writes it — ``running``, with
    #: this attempt counted — durable once the runner has forked.
    record: JobRecord
    #: Service-assigned peers (() for a local run).
    placement: tuple[str, ...] = ()
    #: Allocator share of the node bandwidth in bytes/second, if any.
    io_share: "int | None" = None
    #: None while the zygote is still forking it.
    runner: "Runner | None" = None
    cancelling: bool = False
    task: "asyncio.Task | None" = None


@dataclass
class JobService:
    """A running daemon instance (construct, then :meth:`run_until_stopped`)."""

    config: ServiceConfig
    state: ServiceState = field(init=False)

    def __post_init__(self) -> None:
        self.state = ServiceState(Path(self.config.state_dir))
        self._queue = WeightedFairQueue(aging_every=self.config.aging_every)
        #: The dispatched jobs (job_id -> attempt), forking or running:
        #: the runner slots in use.  Must drain back to {} — a leftover
        #: entry is a leaked slot, bandwidth share and in-flight charge
        #: on its agents.
        self._attempts: dict[str, Attempt] = {}
        #: Request type -> handler; each returns the reply ``_dispatch``
        #: writes (``watch``, a stream, is not one of them).
        self._handlers = {
            protocol.REQ_PING: self._handle_ping,
            protocol.REQ_SUBMIT: self._handle_submit,
            protocol.REQ_STATUS: self._handle_status,
            protocol.REQ_RESULT: self._handle_result,
            protocol.REQ_CANCEL: self._handle_cancel,
            protocol.REQ_AGENTS: self._handle_agents,
            protocol.REQ_REGISTER: self._handle_register,
            protocol.REQ_DEREGISTER: self._handle_deregister,
            protocol.REQ_SHUTDOWN: lambda msg: protocol.ok_reply(draining=True),
        }
        self._watchers: dict[str, list[asyncio.Queue]] = {}
        self._seq = 0
        self._conn_seq = 0
        self._draining = False
        self._stop = asyncio.Event()
        self._server: asyncio.AbstractServer | None = None
        #: The live runner zygote; None until the first need of one and
        #: between losing one and starting the next.
        self._zygote: Zygote | None = None
        self._injector = (
            self.config.fault_plan.arm()
            if self.config.fault_plan is not None else None
        )
        #: The agent pool.  Always constructed (dynamic registration
        #: works on a daemon started without ``--agents``); placement
        #: only engages while it is non-empty.
        self._registry = AgentRegistry(
            agents=self.config.agents or (),
            probe_interval_s=self.config.health_interval_s,
            probe_timeout_s=self.config.probe_timeout_s,
            injector=self._injector,
        )
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
        # (an attempt still forking is SIGTERMed when its fork answers)
        for attempt in self._attempts.values():
            if attempt.runner is not None:
                signal_runner_tree(attempt.runner.pid, signal.SIGTERM)
        if self._attempts:
            # each requeues its job as its runner ends; one that is cut
            # short leaves a ``running`` record for the next daemon's
            # recovery to requeue
            _, pending = await asyncio.wait(
                [attempt.task for attempt in self._attempts.values()],
                timeout=10.0,
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.wait(pending, timeout=5.0)
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

        A popped job is an :class:`Attempt` in the table before this
        returns — a slot taken, a bandwidth contender, cancellable — so a
        burst of submissions cannot launch more than ``max_concurrent``
        runners and nothing dispatched in the same pass is invisible to
        anything else.
        """
        if self._draining:
            return
        while len(self._attempts) < self.config.max_concurrent:
            record = self._pop_next()
            if record is None:
                return
            self._dispatch_job(record)

    def _dispatch_job(self, record: JobRecord) -> None:
        """Decide what one attempt of a popped job runs with, and start it."""
        job_id = record.job_id
        number = record.attempts + 1
        # What this attempt — and no later one — runs with rides the
        # spawn request: it dies with the runner it was handed to.
        request: dict[str, Any] = {"job_id": job_id}
        placement = self._place_job(job_id, number)
        if placement:
            request["peers"] = list(placement)
            request["net_timeout"] = self.config.net_timeout_s
        contenders = {
            other: (self.state.jobs[other].spec, attempt.placement)
            for other, attempt in self._attempts.items()
        }
        contenders[job_id] = (self.state.jobs[job_id].spec, placement)
        share = io_share(job_id, contenders, self.config)
        if share is not None:
            request["io_budget"] = share
        if self._injector is not None:
            decision = self._injector.check(
                SITE_SERVICE_JOB_CRASH, scope=job_id, attempt=number
            )
            if decision is not None:
                request["crash_after_round"] = 1
        attempt = self._attempts[job_id] = Attempt(
            record.with_(state=STATE_RUNNING, attempts=number), placement, share,
        )
        attempt.task = asyncio.ensure_future(self._run_job(attempt, request))
        # the slot's successor: refill once the attempt is over
        attempt.task.add_done_callback(lambda _task: self._schedule())

    # -- admission -----------------------------------------------------------

    def _reject(self, rejection: Rejection) -> None:
        for name in rejection.counters:
            self.counters[name] += 1
        raise AdmissionError(rejection.message, code=rejection.code)

    def admit(
        self, spec: ServiceJobSpec, rerun: bool = False
    ) -> tuple[JobRecord, bool]:
        """Admit one submission; returns ``(record, reattached)``.

        Raises :class:`~repro.errors.AdmissionError` instead of queuing
        unboundedly — the caller turns it into a typed error reply.
        Checks run cheapest-first: drain state, dedup, the
        ``qos.tenant.surge`` shedding site, then the configured limits
        (:func:`~repro.service.core.admission_verdict`).
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
                self._reject(Rejection(
                    protocol.ERR_OVERLOADED,
                    f"tenant {spec.tenant!r} admission surge shed "
                    "(injected); resubmit",
                    counters=("shed", "rejected"),
                ))
        # A job is active from ``create_job`` until its record is
        # terminal: queued, forking or running, the limits count it.
        rejection = admission_verdict(
            spec,
            (
                entry.spec for entry in self.state.jobs.values()
                if not entry.record.finished
            ),
            self.queue_depth(), self.config,
        )
        if rejection is not None:
            self._reject(rejection)
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
            self.counters["placed"] += 1
        return placement

    async def _run_job(self, attempt: Attempt, request: dict[str, Any]) -> None:
        """Fork the attempt's runner, wait it out, settle the job."""
        job_id = attempt.record.job_id
        job_dir = self.state.job_dir(job_id)
        rc, timed_out = None, False
        try:
            try:
                attempt.runner = await self._ensure_zygote().spawn(request)
            except OSError as exc:
                self._finish(attempt.record.with_(
                    state=STATE_FAILED, exit_code=1,
                    error=f"runner launch failed: {exc}",
                ))
                return
            except ZygoteLost:
                pass  # ``rc`` stays None: a crashed attempt that never ran
            else:
                rc, timed_out = await self._wait_runner(attempt)
        finally:
            if attempt.runner is not None and attempt.runner.returncode is None:
                # this task was cancelled under a live runner
                signal_runner_tree(attempt.runner.pid, signal.SIGKILL)
            # A runner that ended needs no sweep here: the zygote killed
            # its process group before reaping it, so no shard worker of
            # this attempt is left to keep writing the checkpoint journal
            # the requeued attempt is about to resume from.
            del self._attempts[job_id]
            self._registry.release(job_id)
            (job_dir / "runner.pid").unlink(missing_ok=True)
        self._settle(attempt.record, attempt_outcome(
            rc, timed_out, self._draining, attempt.cancelling,
            self._read_error(job_dir) if rc in (1, 2, 3) else None,
            attempt.placement, attempt.record.attempts, self.config,
        ))

    async def _wait_runner(self, attempt: Attempt) -> tuple[int, bool]:
        """The fork answered: make ``running`` durable and wait for the
        exit; returns ``(exit code, timed out)``."""
        runner = attempt.runner
        publish(
            self.state.job_dir(attempt.record.job_id) / "runner.pid",
            str(runner.pid),
        )
        self._set_state(attempt.record)
        if self._draining or attempt.cancelling:
            # the drain's SIGTERM round, or a cancel, went by while the
            # zygote forked
            signal_runner_tree(runner.pid, signal.SIGTERM)
        timed_out = False
        try:
            rc = await asyncio.wait_for(
                runner.wait(), timeout=self.config.job_timeout_s
            )
        except asyncio.TimeoutError:
            timed_out = True
            signal_runner_tree(runner.pid, signal.SIGKILL)
            rc = await runner.wait()
        attempt.record = attempt.record.with_(
            cpu_s=runner.cpu_s, max_rss_mb=runner.max_rss_mb,
        )
        return rc, timed_out

    def _settle(self, record: JobRecord, outcome: Outcome) -> None:
        """Carry out what :func:`attempt_outcome` decided."""
        for name in outcome.counters:
            self.counters[name] += 1
        for addr in outcome.lost_hosts:
            self._registry.mark_lost(addr, "unreachable at dispatch")
        if outcome.crashed is not None and self._injector is not None:
            self._injector.log.record(
                SITE_SERVICE_JOB_CRASH, ACTION_RESPAWNED,
                f"runner for {record.job_id} crashed ({outcome.crashed}); "
                "relaunching",
                scope=record.job_id, attempt=record.attempts,
            )
        if outcome.state == STATE_QUEUED:
            requeued = record.with_(state=STATE_QUEUED)
            self._set_state(requeued)
            self._push(requeued)
        elif outcome.state == STATE_DONE:
            self._record_success(record, outcome.exit_code)
        else:
            self._finish(record.with_(
                state=outcome.state, exit_code=outcome.exit_code,
                error=outcome.error,
            ))

    def _ensure_zygote(self) -> Zygote:
        """The live zygote, starting one when there is none."""
        if self._zygote is None:
            self._zygote = Zygote(self.state.state_dir, self._zygote_lost)
        return self._zygote

    def _zygote_lost(self, zygote: Zygote) -> None:
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
        """Answer one request; True ends the connection (shutdown/watch).

        Handlers return their reply and this is where it is written: one
        request, one reply frame, one site — the watch stream, which
        answers many times, is the exception.
        """
        req = msg.get("type")
        try:
            if req == protocol.REQ_WATCH:
                await self._watch(self._record(msg), writer)
                return True
            handler = self._handlers.get(req)
            reply = handler(msg) if handler is not None else protocol.error_reply(
                protocol.ERR_BAD_REQUEST, f"unknown request type {req!r}",
            )
        except AdmissionError as exc:
            reply = protocol.error_reply(exc.code, str(exc))
        except JobNotFound as exc:
            reply = protocol.error_reply(protocol.ERR_NOT_FOUND, str(exc))
        except ConfigError as exc:
            reply = protocol.error_reply(protocol.ERR_BAD_REQUEST, str(exc))
        await protocol.write_frame(writer, reply)
        if req == protocol.REQ_SHUTDOWN:
            self.request_stop()
            return True
        return False

    def _overview(self) -> dict[str, Any]:
        """The service-wide numbers ``ping`` and a bare ``status`` share."""
        return dict(
            running=sum(
                attempt.runner is not None
                for attempt in self._attempts.values()
            ),
            queued=self.queue_depth(),
            counters=self._qos_counters(),
            io_assigned_bps=sum(
                attempt.io_share or 0 for attempt in self._attempts.values()
            ),
            tenants=self._tenant_overview(),
        )

    def _handle_ping(self, msg: dict[str, Any]) -> dict[str, Any]:
        return protocol.ok_reply(
            version=protocol.PROTOCOL_VERSION, draining=self._draining,
            **self._overview(),
        )

    def _handle_submit(self, msg: dict[str, Any]) -> dict[str, Any]:
        spec = ServiceJobSpec.from_dict(msg.get("spec"))
        record, reattached = self.admit(spec, rerun=bool(msg.get("rerun")))
        return protocol.ok_reply(
            job_id=record.job_id, state=record.state,
            reattached=reattached, position=self.queue_depth(),
        )

    def _record(self, msg: dict[str, Any]) -> JobRecord:
        """The record of the job a request names (``_dispatch`` answers
        :class:`~repro.errors.JobNotFound` with ``not-found``)."""
        entry = self.state.jobs.get(str(msg.get("job_id")))
        if entry is None:
            raise JobNotFound(f"no such job: {msg.get('job_id')}")
        return entry.record

    def _handle_status(self, msg: dict[str, Any]) -> dict[str, Any]:
        if msg.get("job_id") is None:
            return protocol.ok_reply(
                jobs=[e.record.to_dict() for e in self.state.jobs.values()],
                **self._overview(),
            )
        return protocol.ok_reply(job=self._record(msg).to_dict())

    def _handle_result(self, msg: dict[str, Any]) -> dict[str, Any]:
        record = self._record(msg)
        if not record.finished:
            return protocol.error_reply(
                protocol.ERR_NOT_FINISHED,
                f"job {record.job_id} is {record.state}; no result yet",
            )
        report = None
        if record.state == STATE_DONE:
            report = json.loads(self.state.read_result(record.job_id))
        if not record.result_fetched:
            record = record.with_(result_fetched=True)
            self.state.save_record(record)
        reaped = self.state.reap_checkpoints(self.config.retention)
        self.counters["reaped"] += len(reaped)
        return protocol.ok_reply(job=record.to_dict(), report=report)

    def _handle_cancel(self, msg: dict[str, Any]) -> dict[str, Any]:
        record = self._record(msg)
        attempt = self._attempts.get(record.job_id)
        if attempt is not None:
            # dispatched: its runner is told now, or the moment it forks
            attempt.cancelling = True
            if attempt.runner is not None:
                signal_runner_tree(attempt.runner.pid, signal.SIGTERM)
            return protocol.ok_reply(job=record.to_dict(), cancelling=True)
        if not record.finished:
            # queued: drop it from the fair queue
            self._queue.remove(record.job_id)
            record = record.with_(
                state=STATE_CANCELLED, error="cancelled while queued"
            )
            self.counters["cancelled"] += 1
            self._set_state(record)
        return protocol.ok_reply(job=record.to_dict())

    def _handle_agents(self, msg: dict[str, Any]) -> dict[str, Any]:
        return protocol.ok_reply(
            agents=self._registry.snapshot(), settled=self._registry.settled,
        )

    def _handle_register(self, msg: dict[str, Any]) -> dict[str, Any]:
        addr, created = self._registry.register(str(msg.get("addr", "")))
        return protocol.ok_reply(addr=addr, created=created)

    def _handle_deregister(self, msg: dict[str, Any]) -> dict[str, Any]:
        return protocol.ok_reply(
            removed=self._registry.deregister(str(msg.get("addr", "")))
        )

    async def _watch(
        self, record: JobRecord, writer: asyncio.StreamWriter
    ) -> None:
        """Stream state transitions for one job until it finishes."""
        job_id = record.job_id
        queue: asyncio.Queue = asyncio.Queue()
        if not record.finished:
            self._watchers.setdefault(job_id, []).append(queue)
        try:
            while True:
                await protocol.write_frame(writer, protocol.ok_reply(
                    event="state", job=record.to_dict(),
                ))
                if record.finished:
                    return
                record = await queue.get()
        finally:
            watchers = self._watchers.get(job_id)
            if watchers and queue in watchers:
                watchers.remove(queue)


async def serve(config: ServiceConfig) -> None:
    """Run a daemon until SIGTERM/shutdown; the ``repro serve`` body."""
    service = JobService(config)
    host, port = await service.start()
    print(f"repro service listening on {host}:{port} "
          f"(state dir {config.state_dir})", flush=True)
    await service.run_until_stopped()
    print("repro service drained; exiting", flush=True)
