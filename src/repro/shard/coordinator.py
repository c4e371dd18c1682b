"""The sharded coordinator: fault-tolerant scale-out, one host or many.

:class:`ShardedRuntime` splits one job over ``options.num_shards``
independent supervised worker processes (:mod:`repro.parallel.
shard_worker`).  Each shard maps a *contiguous* block of the ingest
chunk plan, publishes its intermediate state as one checksummed spill-run
file per reducer partition (:mod:`repro.shard.exchange`), then reduces
the partitions the consistent-hash :class:`~repro.shard.hashring.
ShardMap` assigns it.  The coordinator merges the reduced partitions
with the job's configured merge algorithm, exactly like the unsharded
runtimes.

With ``options.peers`` set, shard worker groups are placed round-robin
on remote ``supmr agent`` daemons over the CRC-framed transport
(:mod:`repro.net`): commands and result blobs cross the wire instead of
a worker's pipe, and reduce-phase run fetches go through resumable,
verify-then-refetch range requests.  The recovery machinery is
**placement-blind** — every worker hides behind one handle interface
(``send``/``alive``/``kill``: a local fork's is the map pool's
:class:`~repro.resilience.supervisor.LocalHandle`), so leases, respawns,
speculation, and reassignment work identically for a forked child and a
worker two hosts away.

This module is the **shell**: processes, their channels (one pipe per
local worker, one per agent link), the fault injector and log, and one
receive-and-sweep loop both phases run through.  Every decision —
leases (:mod:`repro.resilience.core`, as the map pool's), respawns,
host loss, stragglers, reassignment — and the one table of per-shard
rows it is taken over live in :mod:`repro.shard.core`;
docs/sharding.md "Failure protocol" has the table.  The ``shard.*`` and
``net.*`` fault sites are rolled here, so a seeded plan replays the
same failure schedule on every run.
"""

from __future__ import annotations

import pickle
import shutil
import tempfile
import time
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import Any, Callable, Hashable, Sequence

from repro.chunking.planner import plan_chunks
from repro.containers.base import ContainerStats
from repro.core.execution import merge_outputs
from repro.core.job import JobSpec
from repro.core.options import RuntimeOptions
from repro.core.result import JobResult, PhaseTimings
from repro.core.timers import PhaseTimer
from repro.errors import ConfigError, NetError, ParallelError, RetryExhausted
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    SITE_NET_CONN_DROP,
    SITE_NET_FRAME_CORRUPT,
    SITE_NET_HOST_LOSS,
    SITE_NET_PARTITION,
    SITE_SHARD_EXCHANGE_CORRUPT,
    SITE_SHARD_STRAGGLER,
    SITE_SHARD_WORKER_LOSS,
)
from repro.parallel.backends import require_process_backend
from repro.parallel.shard_worker import (
    MODE_LOSS,
    MODE_RUN,
    MODE_STRAGGLE,
    MSG_MAP,
    MSG_REDUCE,
    shard_worker_main,
)
from repro.resilience.core import casualties
from repro.resilience.supervisor import LocalHandle, shut_down
from repro.shard import core
from repro.shard.core import Shard, Worker
from repro.shard.exchange import collect_worker_events
from repro.shard.plan import ShardPlan
from repro.util.atomic import publish
from repro.util.logging import get_logger

logger = get_logger(__name__)

#: Seconds between coordinator liveness/lease sweeps.
_POLL_S = 0.05
#: A shard is never declared a straggler before running this long —
#: speculation on sub-second jobs would only burn forks.
_SPECULATE_FLOOR_S = 1.0


class _Coordinator:
    """Drives one sharded job: spawn, lease, recover, collect."""

    def __init__(
        self,
        job: JobSpec,
        options: RuntimeOptions,
        plan: ShardPlan,
        workdir: Path,
        injector: FaultInjector | None,
        links: Sequence[Any] = (),
        self_addr: str = "",
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.job = job
        self.options = options
        self.plan = plan
        self.policy = options.recovery
        self.workdir = workdir
        self.injector = injector
        self.links = list(links)
        self.self_addr = self_addr
        #: Every ``now`` the core is handed (a test seam, not an option).
        self.clock = clock
        #: One row per shard id: everything known about that shard.
        self.shards: dict[int, Shard] = {
            spec.shard_id: Shard(spec.shard_id) for spec in plan.shards
        }
        self.tally = core.Tally()
        #: Reduced partitions collected so far (reduce phase).
        self.parts: dict[int, list] = {}
        self._wid = 0
        self._map_started = 0.0
        #: What every shard worker runs under: the job's options with an
        #: even share of the I/O and memory budgets, so the job as a
        #: whole stays inside both however many shards meter their own
        #: reads and spills.  A share never drops under one ingest chunk
        #: (what a budget is validated against).
        n = plan.num_shards
        shares: dict[str, int] = {}
        if options.io_budget is not None:
            shares["io_budget"] = max(1, options.io_budget // n)
            if options.io_burst is not None:
                shares["io_burst"] = max(1, options.io_burst // n)
        if options.memory_budget is not None:
            shares["memory_budget"] = max(
                options.memory_budget // n, options.largest_chunk + 1
            )
        self.worker_options = options.with_(**shares) if shares else options
        if self.links:
            from repro.net.jobs import job_to_wire, options_to_wire

            self._job_wire = job_to_wire(job)
            self._options_wire = options_to_wire(self.worker_options)
            for link in self.links:
                # A link is one more channel of worker result blobs; the
                # collect/lease machinery cannot tell it from a fork's.
                link.attach(injector)

    # -- worker lifecycle ---------------------------------------------------

    def _spawn(self, sid: int, speculative: bool, force_local: bool) -> Worker:
        wid = self._wid
        self._wid += 1
        link = None
        if self.links and not speculative and not force_local:
            # Contiguous round-robin placement; twins are always local
            # (they exist to beat a straggler, not to test the network)
            # and a recovery may pin the replacement to this host.
            candidate = self.links[sid % len(self.links)]
            if candidate.usable:
                link = candidate
        if link is not None:
            from repro.net.jobs import chunks_to_wire
            from repro.net.remote import RemoteHandle

            link.spawn(
                sid, wid, self._job_wire, self._options_wire,
                chunks_to_wire(self.plan.chunks_for(sid)),
                self.plan.num_partitions,
            )
            handle: Any = RemoteHandle(link, sid, wid)
            fetch_addr = link.addr
        else:
            handle = LocalHandle(
                shard_worker_main,
                (sid, self.job, self.worker_options,
                 self.plan.chunks_for(sid), self.plan.num_partitions),
                f"repro-shard-{sid}.{wid}",
            )
            # In a ``--peers`` run remote reducers pull this host's
            # runs from the coordinator's own fetch exporter.
            fetch_addr = self.self_addr
        return Worker(sid, wid, fetch_addr, handle=handle)

    def _write_pid(self, worker: Worker) -> None:
        """Publish the shard's current worker pid (for kill-based tests).

        Remote workers are other hosts' processes; their pids mean
        nothing here, so only local workers get a pid file.
        """
        if worker.handle.pid is None:
            return
        publish(
            self.workdir / f"worker-{worker.sid}.pid", f"{worker.handle.pid}\n"
        )

    def shutdown(self) -> None:
        """The map pool's worker teardown, then the links."""
        shut_down(
            w.handle for row in self.shards.values() for w in row.workers()
        )
        for link in self.links:
            link.close()

    # -- transport, faults, log ---------------------------------------------

    def _collect(self) -> "tuple | None":
        """One message, waiting at most :data:`_POLL_S` for it.

        Read from the channel of every busy local worker (only a worker
        with a command out ever speaks) and of every agent link.  A
        channel that ends instead — its worker died, perhaps halfway
        through a frame — yields nothing: the sweep buries the worker.
        """
        channels = [
            w.handle.conn for row in self.shards.values()
            for w in row.workers() if w.busy and not w.handle.is_remote
        ] + [link.conn for link in self.links]
        for conn in mp_connection.wait(channels, timeout=_POLL_S):
            try:
                blob = conn.recv_bytes()
            except (EOFError, OSError):
                continue
            try:
                return pickle.loads(blob)
            except Exception as exc:  # noqa: BLE001 - corrupt transport
                raise ParallelError(
                    f"could not decode a shard worker result: {exc!r}"
                ) from exc
        return None

    def _fired(self, site: str, scope: Hashable, attempt: int = 0) -> bool:
        """Roll one seeded fault site (never fires without a plan)."""
        return self.injector is not None and self.injector.check(
            site, scope=scope, attempt=attempt
        ) is not None

    def _log(self, entry: "core.Entry | None") -> None:
        if self.injector is not None and entry is not None:
            self.injector.log.record(
                entry.site, entry.action, entry.detail,
                scope=repr((entry.sid,)),
            )

    # -- the one loop -------------------------------------------------------

    def _run_phase(
        self,
        phase: str,
        finished: Callable[[], bool],
        on_done: Callable[..., None],
        on_death: Callable[[Worker, str], None],
        tick: "Callable[[], None] | None" = None,
    ) -> None:
        """Receive and sweep until the ``phase`` ("map" / "reduce") is over.

        Each turn: collect one message — a heartbeat renews a lease, a
        ``<phase>_done`` goes to the phase, an ``error`` aborts the job
        — then sweep once over the workers the phase still waits on (in
        the map phase a finished shard's are not) and let ``on_death``
        recover each casualty, then ``tick``.
        """
        while not finished():
            msg = self._collect()
            if msg is not None:
                kind, sid = msg[0], msg[1]
                if kind == "hb":
                    core.renew(self.shards[sid], msg[2], self.clock())
                elif kind == f"{phase}_done":
                    on_done(*msg[1:])
                elif kind == "error":
                    raise ParallelError(
                        f"shard {sid} failed during its {phase} phase: "
                        f"{msg[2]}"
                    )
            watched = [
                w for row in self.shards.values()
                if phase == "reduce" or row.done is None
                for w in row.workers()
            ]
            for worker, expired in casualties(
                self.clock(), watched, lambda w: w.handle.alive(),
                self.policy.lease_timeout_s, self.tally,
            ):
                if expired:
                    worker.handle.kill()
                worker.handle.discard()
                why = expired or worker.handle.describe_exit()
                on_death(worker, f"{worker.handle.name} {why}")
            if tick is not None:
                tick()

    # -- map phase ----------------------------------------------------------

    def _start_map(
        self,
        sid: int,
        resume: bool,
        speculative: bool = False,
        force_local: bool = False,
    ) -> None:
        """Spawn a worker for ``sid`` and send it the shard's map block."""
        worker = self._spawn(sid, speculative, force_local)
        core.seat(self.shards[sid], worker, self.clock(), twin=speculative)
        mode, straggle_s = MODE_RUN, 0.0
        ckpt = None
        if not speculative:
            self._write_pid(worker)
            if self._fired(SITE_SHARD_WORKER_LOSS, (sid,), worker.attempt):
                mode = MODE_LOSS
            elif self._fired(SITE_SHARD_STRAGGLER, (sid,), worker.attempt):
                mode = MODE_STRAGGLE
                spec = self.injector.plan.spec_for(SITE_SHARD_STRAGGLER)
                straggle_s = (
                    spec.duration_s if spec.duration_s is not None else 1.0
                )
            if self.options.checkpoint_dir is not None:
                # Twins must not share a journal directory with the
                # primary (concurrent writers), so only primaries
                # checkpoint.  An agent nulls this out for its own
                # workers — the journal dir is a coordinator-host path.
                ckpt = str(Path(self.options.checkpoint_dir) / f"shard-{sid}")
        worker.handle.send({
            "kind": MSG_MAP,
            "attempt": worker.attempt,
            "outbox": str(self.workdir / f"out-{sid}.{worker.wid}"),
            "mode": mode,
            "straggle_s": straggle_s,
            "ckpt": ckpt,
            "resume": resume,
        })

    def _inject_host_faults(self) -> None:
        """Roll the seeded host-level sites once per peer, per phase.

        ``net.host.loss`` commands the agent to die abruptly after its
        next relay (mid-map, workers and all); ``net.partition`` mutes
        it — alive but silent both ways — for the spec's duration.
        Either way the pinger declares the link unreachable and the
        recovery ladder moves the shards home.
        """
        for i, link in enumerate(self.links):
            if not link.usable:
                continue
            if self._fired(SITE_NET_HOST_LOSS, (i,)):
                link.inject_death(after_relays=1)
            elif self._fired(SITE_NET_PARTITION, (i,)):
                spec = self.injector.plan.spec_for(SITE_NET_PARTITION)
                link.inject_partition(
                    spec.duration_s if spec.duration_s is not None else 5.0
                )

    def _on_map_done(self, sid: int, attempt: int, payload: dict) -> None:
        row, now = self.shards[sid], self.clock()
        loser, promoted = core.mapped(
            row, attempt, payload, now, now - self._map_started
        )
        if loser is not None:
            loser.handle.kill()
            loser.handle.discard()
        if promoted:
            self._write_pid(row.primary)

    def _on_map_death(self, worker: Worker, detail: str) -> None:
        """Respawn (or promote the twin of) a shard that died mid-map."""
        row, handle = self.shards[worker.sid], worker.handle
        # The degradation ladder's host rung: the worker is gone because
        # its *host* is gone (died or partitioned).
        lost_host = (
            handle.link.addr
            if handle.is_remote and not handle.link.usable else ""
        )
        arm, entry = core.map_death(
            row, worker, detail, lost_host, self.policy, self.tally
        )
        self._log(entry)
        if arm == core.TWIN_PROMOTED:
            self._write_pid(row.primary)
        elif arm == core.OVER_BUDGET:
            raise ParallelError(
                f"sharded coordinator exceeded its respawn budget "
                f"({self.policy.worker_respawn_budget}): {detail}"
            )
        elif arm != core.TWIN_DROPPED:
            self._start_map(
                row.sid, resume=self.options.checkpoint_dir is not None,
                force_local=arm == core.BROUGHT_HOME,
            )

    def _speculate(self) -> None:
        for entry in core.stragglers(
            self.clock(), list(self.shards.values()), self.policy,
            _SPECULATE_FLOOR_S,
        ):
            self._log(entry)
            self._start_map(entry.sid, resume=False, speculative=True)

    def run_map_phase(self) -> None:
        """Map every shard's block; survives deaths, hangs, stragglers."""
        require_process_backend()
        self._map_started = self.clock()
        for sid in self.shards:
            self._start_map(sid, resume=self.options.resume)
        if self.links:
            self._inject_host_faults()
        self._run_phase(
            "map",
            lambda: all(row.done is not None for row in self.shards.values()),
            self._on_map_done, self._on_map_death, self._speculate,
        )
        # Worker-side fault events replay in shard-id order so the log
        # sequence is deterministic regardless of completion order.
        if self.injector is not None:
            for row in self.shards.values():
                collect_worker_events(self.injector.log, row.done["events"])

    # -- reduce phase -------------------------------------------------------

    def _send_reduce(
        self, worker: Worker, partitions: "list[int]", mode: str = MODE_RUN
    ) -> None:
        """Command one (already engaged) worker to reduce ``partitions``,
        with the seeded fetch faults of this dispatch pre-rolled."""
        sources = sorted(self.shards)
        retries = self.policy.max_retries
        msg: dict[str, Any] = {
            "kind": MSG_REDUCE,
            "mode": mode,
            "partitions": partitions,
            "sources": {s: self.shards[s].done["outbox"] for s in sources},
            "corrupt": core.fetch_faults(
                self._fired, (SITE_SHARD_EXCHANGE_CORRUPT,), (),
                partitions, sources, retries,
            )[SITE_SHARD_EXCHANGE_CORRUPT],
            "workdir": str(self.workdir / f"in-{worker.sid}.{worker.wid}"),
        }
        if self.links:
            # Only pairs that will actually cross the network are
            # rolled: ``net.frame.corrupt`` damages the received copy
            # (verify-then-refetch must repair it), ``net.conn.drop``
            # severs the transfer (resume-from-offset must finish it).
            via = {s: self.shards[s].via for s in sources}
            wire = core.fetch_faults(
                self._fired, (SITE_NET_FRAME_CORRUPT, SITE_NET_CONN_DROP),
                ("fetch",), partitions,
                [s for s in sources if via[s] not in ("", worker.fetch_addr)],
                retries,
            )
            msg.update({
                "via": via,
                "self_addr": worker.fetch_addr,
                "net_timeout_s": self.options.net_timeout_s,
                "net_corrupt": wire[SITE_NET_FRAME_CORRUPT],
                "net_drop": wire[SITE_NET_CONN_DROP],
            })
        worker.handle.send(msg)

    def _on_reduce_done(self, sid: int, payload: dict) -> None:
        self.parts.update(payload["parts"])
        self.tally.refetches += payload["refetches"]
        if self.injector is not None:
            collect_worker_events(self.injector.log, payload["events"])
        row = self.shards[sid]
        batch = core.reduced(row, payload["parts"], self.clock())
        if batch:
            self._send_reduce(row.primary, batch)

    def _on_reduce_death(self, worker: Worker, detail: str) -> None:
        """Move a dead reducer's partitions to their ring successors."""
        for owner, partitions, dispatch, entry in core.reassign(
            self.clock(), self.shards, self.plan.ring, worker.sid, detail,
            self.tally,
        ):
            self._log(entry)
            if dispatch:
                self._send_reduce(self.shards[owner].primary, partitions)

    def run_reduce_phase(self) -> dict[int, list]:
        """Reduce every partition; shard loss reassigns, never aborts."""
        planned_losses = 0
        for spec in self.plan.shards:
            row = self.shards[spec.shard_id]
            mode = MODE_RUN
            if (
                # Never lose the last survivor: there would be nobody
                # left to reassign the partitions to.
                planned_losses < self.plan.num_shards - 1
                and self._fired(
                    SITE_SHARD_WORKER_LOSS, (spec.shard_id, "reduce")
                )
            ):
                mode = MODE_LOSS
                planned_losses += 1
            core.assign(row, spec.partitions, self.clock())
            self._send_reduce(row.primary, list(spec.partitions), mode)
        self._run_phase(
            "reduce", lambda: len(self.parts) >= self.plan.num_partitions,
            self._on_reduce_done, self._on_reduce_death,
        )
        return self.parts


class ShardedRuntime:
    """SupMR split over fault-tolerant shard process groups."""

    name = "sharded"

    def __init__(self, options: RuntimeOptions) -> None:
        if options.num_shards is None:
            raise ConfigError(
                "ShardedRuntime requires options.num_shards (>= 1)"
            )
        self.options = options

    def run(self, job: JobSpec) -> JobResult:
        """Execute ``job`` across the shard group; one merged result.

        With ``options.peers`` this is the top of the degradation
        ladder: agents are dialed first (an unreachable peer *at
        startup* is a usage error — fail fast, exit 2), and any
        mid-job failure the in-run recovery could not absorb (total
        peer loss during reduce, transfer retry exhaustion) falls back
        to a full local re-run.  Both rungs execute identical
        deterministic work, so the digest never depends on which rung
        finished the job.
        """
        options = self.options
        if not options.peers:
            return self._run_once(job, options, links=())
        from repro.net.remote import AgentLink

        links: list[AgentLink] = []
        try:
            for i, addr in enumerate(options.peers):
                links.append(AgentLink(
                    addr, index=i,
                    net_timeout_s=options.net_timeout_s,
                    retries=options.recovery.max_retries,
                ))
            try:
                return self._run_once(job, options, links)
            except (ParallelError, NetError, RetryExhausted) as exc:
                fallback_reason = f"{type(exc).__name__}: {exc}"
                logger.warning(
                    "multi-host run failed (%s); re-running on this host only",
                    exc,
                )
        finally:
            for link in links:
                link.close()
        result = self._run_once(job, options.with_(peers=None), links=())
        result.counters["net_fallback"] = "local"
        result.counters["net_fallback_reason"] = fallback_reason
        return result

    def _run_once(
        self, job: JobSpec, options: RuntimeOptions, links: Sequence[Any]
    ) -> JobResult:
        timer = PhaseTimer()
        injector = None
        if options.fault_plan is not None:
            injector = options.fault_plan.arm(
                options.recovery, clock=time.perf_counter
            )
        chunk_plan = plan_chunks(job.inputs, job.codec, options)
        plan = ShardPlan(
            chunk_plan, options.num_shards, options.num_reducers
        )
        owned = options.shard_dir is None
        workdir = Path(
            options.shard_dir or tempfile.mkdtemp(prefix="repro-shard-")
        )
        workdir.mkdir(parents=True, exist_ok=True)
        fetch_srv = None
        self_addr = ""
        if links:
            # Remote reducers pull this host's outboxes (local shards,
            # promoted twins) through the same fetch protocol agents
            # export, so every source is reachable from every reducer.
            from repro.net.agent import AgentServer

            fetch_srv = AgentServer(
                host="127.0.0.1", port=0, workdir=workdir,
                accept_control=False,
            ).start()
            self_addr = fetch_srv.addr
        coordinator = _Coordinator(
            job, options, plan, workdir, injector,
            links=links, self_addr=self_addr,
        )
        logger.debug(
            "sharded run: %d shards over %d chunks, %d partitions, %d peers",
            plan.num_shards, chunk_plan.n_chunks, plan.num_partitions,
            len(links),
        )
        try:
            with timer.phase("total"):
                with timer.phase("read_map"):
                    coordinator.run_map_phase()
                with timer.phase("reduce"):
                    parts = coordinator.run_reduce_phase()
                    runs = [
                        parts[p] for p in range(plan.num_partitions)
                    ]
                with timer.phase("merge"):
                    output, merge_rounds = merge_outputs(runs, job, options)
        finally:
            coordinator.shutdown()
            if fetch_srv is not None:
                fetch_srv.close()
            if owned:
                shutil.rmtree(workdir, ignore_errors=True)
        rows = list(coordinator.shards.values())
        done = [row.done for row in rows]
        container_stats = ContainerStats(
            emits=sum(p["emits"] for p in done),
            distinct_keys=sum(p["distinct_keys"] for p in done),
            rounds=max(
                (p["rounds"] + p["restored_rounds"] for p in done), default=0
            ),
        )
        tally = coordinator.tally
        resumed_rounds = sum(p["restored_rounds"] for p in done)
        counters: dict[str, Any] = {
            "shards": plan.num_shards,
            "merge_rounds": merge_rounds,
            "merge_algorithm": options.merge_algorithm.value,
            "executor_backend": options.executor_backend.value,
            "chunk_strategy": chunk_plan.strategy,
            "pipeline_rounds": chunk_plan.n_chunks,
            "map_tasks": sum(p["map_tasks"] for p in done),
            "shard_respawns": tally.respawns,
            "shard_crashes": tally.crashes,
            "shard_lease_expiries": tally.lease_expiries,
            "shards_lost": sum(row.lost for row in rows),
            "partitions_reassigned": tally.reassigned_partitions,
            "speculative_shards": sum(row.speculated for row in rows),
            "exchange_refetches": tally.refetches,
            # Sharded results travel as checksummed exchange-run files;
            # with peers the reduce-phase fetches cross the framed TCP
            # transport instead of the filesystem.
            "transport": "exchange-tcp" if links else "exchange-file",
        }
        if links:
            counters["net_peers"] = len(links)
            counters["net_host_losses"] = tally.host_losses
            if tally.hosts_lost:
                counters["net_hosts_lost"] = sorted(tally.hosts_lost)
        if options.checkpoint_dir is not None:
            counters["checkpointed"] = True
        if resumed_rounds:
            counters["resumed"] = True
            counters["resumed_rounds"] = resumed_rounds
        if options.io_budget is not None:
            counters["tenant"] = options.tenant
        # Each shard metered its own block at its share of a budget; the
        # job's figures are the sums.  (An agent of an older build sends
        # no "spill" figures.)
        for budget, figures in (
            (options.io_budget, "throttle"), (options.memory_budget, "spill"),
        ):
            if budget is not None:
                for p in done:
                    for key, value in (p.get(figures) or {}).items():
                        counters[key] = round(counters.get(key, 0) + value, 6)
        fault_log = injector.log if injector is not None else None
        if fault_log is not None:
            counters["faults_injected"] = fault_log.injected
            counters["fault_retries"] = fault_log.retries
            counters["records_quarantined"] = fault_log.quarantined
        timings = PhaseTimings(
            read_s=timer.elapsed("read_map"),
            map_s=0.0,
            reduce_s=timer.elapsed("reduce"),
            merge_s=timer.elapsed("merge"),
            total_s=timer.elapsed("total"),
            read_map_combined=True,
        )
        logger.info(
            "job %s finished on sharded: total=%.3fs shards=%d respawns=%d",
            job.name, timer.elapsed("total"), plan.num_shards, tally.respawns,
        )
        return JobResult(
            job_name=job.name,
            runtime=self.name,
            output=output,
            timings=timings,
            container_stats=container_stats,
            input_bytes=chunk_plan.total_bytes,
            n_chunks=chunk_plan.n_chunks,
            counters=counters,
            fault_log=fault_log,
        )


def run_sharded(job: JobSpec, options: RuntimeOptions) -> JobResult:
    """Run ``job`` on the sharded coordinator (``options.num_shards``)."""
    return ShardedRuntime(options).run(job)
