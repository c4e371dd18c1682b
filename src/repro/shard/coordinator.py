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
process queues, and reduce-phase run fetches go through resumable,
verify-then-refetch range requests.  The recovery machinery below is
**placement-blind** — every worker hides behind one handle interface
(``send``/``alive``/``kill``), so leases, respawns, speculation, and
reassignment work identically for a forked child and a worker two hosts
away.

Robustness protocol:

* **leases** — every dispatched shard holds a lease renewed by each
  heartbeat on the result channel; a silent shard past
  ``policy.lease_timeout_s`` is killed and treated as dead.
* **map-phase deaths** — the dead shard's worker is respawned (bounded
  by ``policy.worker_respawn_budget``) and re-runs its block, resuming
  from its own per-shard journal when checkpointing is on.
* **host loss / partition** — a worker whose agent link died (or went
  silent past ``options.net_timeout_s``) is respawned **locally**
  without charging the respawn budget: losing a host is the network's
  fault, not the worker's.  Total peer loss therefore degrades to
  single-host execution — and because every respawn re-runs identical
  deterministic work, the digest is byte-identical to a local run.
* **stragglers** — once half the shards finished, a shard running past
  ``policy.straggler_threshold`` × the median finish time gets a
  speculative twin; the first ``map_done`` wins and the loser is killed.
  Both twins compute the identical deterministic block, so the adopted
  outbox is byte-identical either way (the tie-break is "first result
  message wins").
* **reduce-phase deaths** — the dead shard's partitions are *reassigned*
  to their ring successors among the survivors (only those partitions
  move), exercising the consistent-hash failover path.
* **exchange integrity** — every fetched run (local copy or remote
  transfer) is CRC-verified before adoption; corruption is refetched,
  never silently merged.

The ``shard.*`` and ``net.*`` fault sites are decided here, in the
coordinator, so a seeded plan replays the same failure schedule on
every run.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue as queue_mod
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from itertools import takewhile
from pathlib import Path
from typing import Any, Sequence

from repro.chunking.planner import plan_chunks, plan_whole_input
from repro.containers.base import ContainerStats
from repro.core.execution import merge_outputs
from repro.core.job import JobSpec
from repro.core.options import ChunkStrategy, RuntimeOptions
from repro.core.result import JobResult, PhaseTimings
from repro.core.timers import PhaseTimer
from repro.errors import ConfigError, NetError, ParallelError, RetryExhausted
from repro.faults.injector import FaultInjector
from repro.faults.log import (
    ACTION_REASSIGNED,
    ACTION_RESPAWNED,
    ACTION_RETRIED,
    ACTION_SPECULATIVE,
)
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


class _LocalHandle:
    """One forked shard worker behind the placement-blind interface."""

    is_remote = False
    #: Where this worker's published runs can be fetched from: empty in
    #: a single-host run (plain file copies), the coordinator's own
    #: fetch exporter in a ``--peers`` run (remote reducers pull from
    #: it over the wire).
    fetch_addr = ""

    def __init__(
        self,
        proc: multiprocessing.process.BaseProcess,
        inbox: Any,
        fetch_addr: str = "",
    ) -> None:
        self.proc = proc
        self.inbox = inbox
        self.fetch_addr = fetch_addr
        self.name = proc.name

    @property
    def pid(self) -> "int | None":
        return self.proc.pid

    def send(self, msg: Any) -> None:
        self.inbox.put(msg)

    def alive(self) -> bool:
        return self.proc.is_alive()

    def kill(self) -> None:
        self.proc.kill()
        self.proc.join(timeout=5.0)

    def stop(self) -> None:
        try:
            self.inbox.put(None)
        except (ValueError, OSError):  # pragma: no cover - closed inbox
            pass

    def join(self, timeout: "float | None" = None) -> None:
        self.proc.join(timeout=timeout)

    def discard(self) -> None:
        self.inbox.cancel_join_thread()
        self.inbox.close()

    def describe_exit(self) -> str:
        return f"exited with code {self.proc.exitcode}"


@dataclass
class _ShardWorker:
    """One shard worker (local fork or remote) and its lease state."""

    sid: int
    wid: int
    handle: Any
    attempt: int = 0
    speculative: bool = False
    busy: bool = False
    started: float = 0.0
    last_heard: float = 0.0
    outbox: str = ""


@dataclass
class _Tally:
    """Coordinator-side survival counters surfaced on the job result."""

    respawns: int = 0
    crashes: int = 0
    lease_expiries: int = 0
    refetches: int = 0
    reassigned_partitions: int = 0
    host_losses: int = 0
    speculated: set = field(default_factory=set)
    shards_lost: set = field(default_factory=set)
    hosts_lost: set = field(default_factory=set)


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
    ) -> None:
        self.job = job
        self.options = options
        self.plan = plan
        self.policy = options.recovery
        self.workdir = workdir
        self.injector = injector
        self.links = list(links)
        self.self_addr = self_addr
        self.ctx = multiprocessing.get_context("fork")
        self.results_q = self.ctx.Queue()
        #: Active worker per shard id (the one reduce work goes to).
        self.workers: dict[int, _ShardWorker] = {}
        #: Speculative twins, keyed by shard id.
        self.backups: dict[int, _ShardWorker] = {}
        self.map_done: dict[int, dict] = {}
        self.outboxes: dict[int, str] = {}
        #: Fetch address per adopted outbox ("" = this host's files).
        self.via: dict[int, str] = {}
        self.tally = _Tally()
        self._wid = 0
        self._attempts: dict[int, int] = {}
        #: What every shard worker runs under: the job's options with an
        #: even share of the I/O budget, so the job as a whole stays
        #: inside it however many shards meter their own reads and spills.
        self.worker_options = options
        if options.io_budget is not None:
            n = plan.num_shards
            self.worker_options = options.with_(
                io_budget=max(1, options.io_budget // n),
                io_burst=(
                    max(1, options.io_burst // n)
                    if options.io_burst is not None else None
                ),
            )
        if self.links:
            from repro.net.jobs import job_to_wire, options_to_wire

            self._job_wire = job_to_wire(job)
            self._options_wire = options_to_wire(self.worker_options)
            for link in self.links:
                # Worker result blobs flow into the same queue local
                # forks use; the collect/lease machinery cannot tell.
                link.attach(self.results_q.put, injector)

    # -- worker lifecycle ---------------------------------------------------

    def _spawn(
        self, sid: int, speculative: bool = False, force_local: bool = False
    ) -> _ShardWorker:
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
        else:
            inbox = self.ctx.Queue()
            proc = self.ctx.Process(
                target=shard_worker_main,
                args=(
                    sid, self.job, self.worker_options,
                    self.plan.chunks_for(sid),
                    self.plan.num_partitions, inbox, self.results_q,
                ),
                daemon=True,
                name=f"repro-shard-{sid}.{wid}",
            )
            proc.start()
            handle = _LocalHandle(proc, inbox, fetch_addr=self.self_addr)
        worker = _ShardWorker(sid=sid, wid=wid, handle=handle,
                              speculative=speculative)
        if speculative:
            self.backups[sid] = worker
        else:
            self.workers[sid] = worker
            self._write_pid(worker)
        return worker

    def _write_pid(self, worker: _ShardWorker) -> None:
        """Publish the shard's current worker pid (for kill-based tests).

        Remote workers are other hosts' processes; their pids mean
        nothing here, so only local workers get a pid file.
        """
        if worker.handle.pid is None:
            return
        publish(
            self.workdir / f"worker-{worker.sid}.pid", f"{worker.handle.pid}\n"
        )

    def _kill(self, worker: _ShardWorker) -> None:
        """Forcibly end one worker and drop its command channel."""
        worker.handle.kill()
        worker.handle.discard()

    def _discard(self, worker: _ShardWorker) -> None:
        """Drop a dead worker's channel without blocking on its feeder."""
        worker.handle.discard()

    def shutdown(self) -> None:
        """Supervisor-style teardown: sentinel, join, kill stragglers."""
        everyone = list(self.workers.values()) + list(self.backups.values())
        for worker in everyone:
            worker.handle.stop()
        for worker in everyone:
            if not worker.handle.is_remote:
                worker.handle.join(timeout=5.0)
        for worker in everyone:
            if not worker.handle.is_remote and worker.handle.alive():
                worker.handle.kill()  # pragma: no cover - defensive
        for worker in everyone:
            worker.handle.discard()
        self.results_q.cancel_join_thread()
        self.results_q.close()

    # -- transport ----------------------------------------------------------

    def _collect(self) -> "tuple | None":
        try:
            blob = self.results_q.get(timeout=_POLL_S)
        except queue_mod.Empty:
            return None
        try:
            return pickle.loads(blob)
        except Exception as exc:  # noqa: BLE001 - corrupt transport
            raise ParallelError(
                f"could not decode a shard worker result: {exc!r}"
            ) from exc

    def _record(self, site: str, action: str, detail: str,
                scope: str = "", attempt: int = 0) -> None:
        if self.injector is not None:
            self.injector.log.record(
                site, action, detail, scope=scope, attempt=attempt
            )

    def _touch(self, sid: int, attempt: int) -> None:
        """Renew the lease of whichever worker of ``sid`` spoke."""
        now = time.monotonic()
        for worker in (self.workers.get(sid), self.backups.get(sid)):
            if worker is not None and worker.attempt == attempt:
                worker.last_heard = now
                return
        # Attempt no longer registered (already settled): renew the
        # shard's active worker so a late heartbeat never kills it.
        worker = self.workers.get(sid)
        if worker is not None:
            worker.last_heard = now

    # -- map phase ----------------------------------------------------------

    def _dispatch_map(self, worker: _ShardWorker, resume: bool) -> None:
        sid = worker.sid
        worker.attempt = self._attempts.get(sid, 0)
        self._attempts[sid] = worker.attempt + 1
        mode, straggle_s = MODE_RUN, 0.0
        if self.injector is not None and not worker.speculative:
            if self.injector.check(
                SITE_SHARD_WORKER_LOSS, scope=(sid,), attempt=worker.attempt
            ) is not None:
                mode = MODE_LOSS
            elif self.injector.check(
                SITE_SHARD_STRAGGLER, scope=(sid,), attempt=worker.attempt
            ) is not None:
                mode = MODE_STRAGGLE
                spec = self.injector.plan.spec_for(SITE_SHARD_STRAGGLER)
                straggle_s = (
                    spec.duration_s if spec.duration_s is not None else 1.0
                )
        outbox = self.workdir / f"out-{sid}.{worker.wid}"
        ckpt = None
        if self.options.checkpoint_dir is not None and not worker.speculative:
            # Twins must not share a journal directory with the primary
            # (concurrent writers), so only primaries checkpoint.  An
            # agent nulls this out for its own workers — the journal
            # dir is a coordinator-host path.
            ckpt = str(Path(self.options.checkpoint_dir) / f"shard-{sid}")
        worker.outbox = str(outbox)
        worker.busy = True
        worker.started = worker.last_heard = time.monotonic()
        worker.handle.send({
            "kind": MSG_MAP,
            "attempt": worker.attempt,
            "outbox": str(outbox),
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
        if self.injector is None:
            return
        for i, link in enumerate(self.links):
            if not link.usable:
                continue
            if self.injector.check(SITE_NET_HOST_LOSS, scope=(i,)) is not None:
                link.inject_death(after_relays=1)
            elif self.injector.check(
                SITE_NET_PARTITION, scope=(i,)
            ) is not None:
                spec = self.injector.plan.spec_for(SITE_NET_PARTITION)
                duration = (
                    spec.duration_s
                    if spec is not None and spec.duration_s is not None
                    else 5.0
                )
                link.inject_partition(duration)

    def _settle_twins(self, sid: int, winner_attempt: int) -> None:
        """First ``map_done`` wins; the losing twin is killed.

        Both twins computed the same deterministic block, so either
        outbox is byte-identical — the tie-break only picks a process.
        """
        primary = self.workers.get(sid)
        backup = self.backups.pop(sid, None)
        if primary is not None and primary.attempt == winner_attempt:
            primary.busy = False
            if backup is not None:
                self._kill(backup)
            return
        if backup is not None and backup.attempt == winner_attempt:
            if primary is not None:
                self._kill(primary)
            backup.speculative = False
            backup.busy = False
            self.workers[sid] = backup
            self._write_pid(backup)

    def _recover_map_death(self, worker: _ShardWorker, detail: str) -> None:
        """Respawn (or promote the twin of) a shard that died mid-map."""
        sid = worker.sid
        if worker.speculative:
            # A dead backup costs nothing: the primary is still running.
            del self.backups[sid]
            self._discard(worker)
            return
        del self.workers[sid]
        self._discard(worker)
        backup = self.backups.pop(sid, None)
        if backup is not None:
            # The twin is already computing the same block — promote it
            # instead of spending a respawn.
            backup.speculative = False
            self.workers[sid] = backup
            self._write_pid(backup)
            self._record(
                SITE_SHARD_WORKER_LOSS, ACTION_RETRIED,
                f"shard {sid} primary died ({detail}); "
                "its speculative twin carries on",
                scope=repr((sid,)),
            )
            return
        if worker.handle.is_remote and not worker.handle.link.usable:
            # The degradation ladder's host rung: the worker is gone
            # because its *host* is gone (died or partitioned).  Bring
            # the shard home without charging the respawn budget — the
            # budget bounds worker pathology, not network weather — and
            # the identical deterministic block keeps the digest intact.
            self.tally.host_losses += 1
            self.tally.hosts_lost.add(worker.handle.link.addr)
            self._record(
                SITE_NET_HOST_LOSS, ACTION_RESPAWNED,
                f"shard {sid} was on unreachable host "
                f"{worker.handle.link.addr} ({detail}); respawned locally",
                scope=repr((sid,)),
            )
            replacement = self._spawn(sid, force_local=True)
            self._dispatch_map(
                replacement, resume=self.options.checkpoint_dir is not None
            )
            return
        self.tally.respawns += 1
        self._record(
            SITE_SHARD_WORKER_LOSS, ACTION_RESPAWNED,
            f"shard {sid} worker replaced: {detail}",
            scope=repr((sid,)),
        )
        if self.tally.respawns > self.policy.worker_respawn_budget:
            raise ParallelError(
                f"sharded coordinator exceeded its respawn budget "
                f"({self.policy.worker_respawn_budget}): {detail}"
            )
        replacement = self._spawn(sid)
        self._dispatch_map(
            replacement, resume=self.options.checkpoint_dir is not None
        )

    def _sweep_map(self) -> None:
        now = time.monotonic()
        for worker in (
            list(self.workers.values()) + list(self.backups.values())
        ):
            if worker.sid in self.map_done:
                continue
            if worker.handle.alive():
                if (
                    worker.busy
                    and now - worker.last_heard > self.policy.lease_timeout_s
                ):
                    self.tally.lease_expiries += 1
                    worker.handle.kill()
                    self._recover_map_death(
                        worker,
                        f"{worker.handle.name} exceeded its "
                        f"{self.policy.lease_timeout_s:.3g}s lease",
                    )
                continue
            self.tally.crashes += 1
            self._recover_map_death(
                worker,
                f"{worker.handle.name} {worker.handle.describe_exit()}",
            )

    def _maybe_speculate(self) -> None:
        if not self.policy.speculative or self.plan.num_shards < 2:
            return
        done = [p["duration"] for p in self.map_done.values()]
        if len(done) < max(1, self.plan.num_shards // 2):
            return
        threshold = max(
            _SPECULATE_FLOOR_S,
            self.policy.straggler_threshold * statistics.median(done),
        )
        now = time.monotonic()
        for sid, worker in list(self.workers.items()):
            if (
                sid in self.map_done
                or sid in self.backups
                or sid in self.tally.speculated
                or now - worker.started <= threshold
            ):
                continue
            self.tally.speculated.add(sid)
            self._record(
                SITE_SHARD_STRAGGLER, ACTION_SPECULATIVE,
                f"shard {sid} running {now - worker.started:.2f}s "
                f"(> {threshold:.2f}s); launching a speculative twin",
                scope=repr((sid,)),
            )
            twin = self._spawn(sid, speculative=True)
            self._dispatch_map(twin, resume=False)

    def run_map_phase(self) -> None:
        """Map every shard's block; survives deaths, hangs, stragglers."""
        require_process_backend()
        started = time.monotonic()
        for spec in self.plan.shards:
            worker = self._spawn(spec.shard_id)
            self._dispatch_map(worker, resume=self.options.resume)
        if self.links:
            self._inject_host_faults()
        while len(self.map_done) < self.plan.num_shards:
            msg = self._collect()
            if msg is not None:
                kind = msg[0]
                if kind == "hb":
                    _, sid, attempt, _round = msg
                    self._touch(sid, attempt)
                elif kind == "map_done":
                    _, sid, attempt, payload = msg
                    self._touch(sid, attempt)
                    if sid not in self.map_done:
                        payload["duration"] = time.monotonic() - started
                        self.map_done[sid] = payload
                        # The winner's host is where its outbox lives —
                        # reducers fetch through that address (or copy
                        # files when it is this host's).
                        self.outboxes[sid] = payload["outbox"]
                        self.via[sid] = ""
                        for w in (self.workers.get(sid),
                                  self.backups.get(sid)):
                            if w is not None and w.attempt == attempt:
                                self.via[sid] = w.handle.fetch_addr
                                break
                        self._settle_twins(sid, attempt)
                elif kind == "error":
                    _, sid, detail = msg
                    raise ParallelError(
                        f"shard {sid} failed during its map phase: {detail}"
                    )
            self._sweep_map()
            self._maybe_speculate()
        # Worker-side fault events replay in shard-id order so the log
        # sequence is deterministic regardless of completion order.
        if self.injector is not None:
            for sid in sorted(self.map_done):
                collect_worker_events(
                    self.injector.log, self.map_done[sid]["events"]
                )

    # -- reduce phase -------------------------------------------------------

    def _fired_attempts(self, site: str, scope: tuple) -> list[int]:
        """The attempts of one fetch that ``site`` damages.

        Rolled lazily — attempt ``k+1`` is only consulted when attempt
        ``k`` fired — exactly mirroring the worker's verify-then-refetch
        loop, so injected counts match fetch counts.
        """
        return list(takewhile(
            lambda a: self.injector.check(site, scope=scope, attempt=a)
            is not None,
            range(self.policy.max_retries + 1),
        ))

    def _corrupt_plan(
        self, partitions: "list[int]"
    ) -> dict[tuple[int, int], list[int]]:
        """Pre-roll the exchange-corruption schedule for one dispatch."""
        table: dict[tuple[int, int], list[int]] = {}
        if self.injector is None:
            return table
        for p in partitions:
            for src in sorted(self.outboxes):
                attempts = self._fired_attempts(
                    SITE_SHARD_EXCHANGE_CORRUPT, (p, src)
                )
                if attempts:
                    table[(p, src)] = attempts
        return table

    def _net_plan(
        self, partitions: "list[int]", self_addr: str
    ) -> tuple[dict, dict]:
        """Pre-roll the wire-fault schedule for one reduce dispatch.

        Only ``(partition, source)`` pairs that will actually cross the
        network are rolled: ``net.frame.corrupt`` damages the received
        copy (verify-then-refetch must repair it), ``net.conn.drop``
        severs the transfer (resume-from-offset must finish it).
        """
        corrupt: dict[tuple[int, int], list[int]] = {}
        drop: dict[tuple[int, int], list[int]] = {}
        if self.injector is None:
            return corrupt, drop
        for p in partitions:
            for src in sorted(self.outboxes):
                if self.via.get(src, "") in ("", self_addr):
                    continue
                for site, table in (
                    (SITE_NET_FRAME_CORRUPT, corrupt),
                    (SITE_NET_CONN_DROP, drop),
                ):
                    attempts = self._fired_attempts(site, ("fetch", p, src))
                    if attempts:
                        table[(p, src)] = attempts
        return corrupt, drop

    def _dispatch_reduce(
        self, worker: _ShardWorker, partitions: "list[int]", mode: str
    ) -> None:
        worker.busy = True
        worker.started = worker.last_heard = time.monotonic()
        msg: dict[str, Any] = {
            "kind": MSG_REDUCE,
            "mode": mode,
            "partitions": list(partitions),
            "sources": dict(self.outboxes),
            "corrupt": self._corrupt_plan(partitions),
            "workdir": str(self.workdir / f"in-{worker.sid}.{worker.wid}"),
        }
        if self.links:
            self_addr = worker.handle.fetch_addr or self.self_addr
            net_corrupt, net_drop = self._net_plan(partitions, self_addr)
            msg.update({
                "via": dict(self.via),
                "self_addr": self_addr,
                "net_timeout_s": self.options.net_timeout_s,
                "net_corrupt": net_corrupt,
                "net_drop": net_drop,
            })
        worker.handle.send(msg)

    def _reassign(
        self,
        worker: _ShardWorker,
        outstanding: dict[int, list[int]],
        pending: dict[int, list[int]],
        detail: str,
    ) -> None:
        """Move a dead reducer's partitions to their ring successors."""
        sid = worker.sid
        self.tally.shards_lost.add(sid)
        del self.workers[sid]
        self._discard(worker)
        # Both the in-flight partitions AND any queued behind the dead
        # worker are orphaned — dropping the queue would hang the phase.
        orphans = outstanding.pop(sid, []) + pending.pop(sid, [])
        if not self.workers:
            raise ParallelError(
                f"every shard worker died during the reduce phase "
                f"(last: {detail})"
            )
        if not orphans:
            return
        ring = self.plan.ring.without(sorted(self.tally.shards_lost))
        moved: dict[int, list[int]] = {}
        for p in orphans:
            moved.setdefault(ring.owner(p), []).append(p)
        self.tally.reassigned_partitions += len(orphans)
        for new_owner, ps in sorted(moved.items()):
            self._record(
                SITE_SHARD_WORKER_LOSS, ACTION_REASSIGNED,
                f"shard {sid} lost ({detail}); partition(s) "
                f"{','.join(map(str, ps))} reassigned to shard {new_owner}",
                scope=repr((sid,)),
            )
            target = self.workers[new_owner]
            if target.busy:
                pending.setdefault(new_owner, []).extend(ps)
            else:
                outstanding.setdefault(new_owner, []).extend(ps)
                self._dispatch_reduce(target, ps, MODE_RUN)

    def run_reduce_phase(self) -> dict[int, list]:
        """Reduce every partition; shard loss reassigns, never aborts."""
        parts: dict[int, list] = {}
        outstanding: dict[int, list[int]] = {}
        pending: dict[int, list[int]] = {}
        planned_losses = 0
        for spec in self.plan.shards:
            worker = self.workers[spec.shard_id]
            mode = MODE_RUN
            if (
                self.injector is not None
                # Never lose the last survivor: there would be nobody
                # left to reassign the partitions to.
                and planned_losses < self.plan.num_shards - 1
                and self.injector.check(
                    SITE_SHARD_WORKER_LOSS, scope=(spec.shard_id, "reduce")
                ) is not None
            ):
                mode = MODE_LOSS
                planned_losses += 1
            outstanding[spec.shard_id] = list(spec.partitions)
            self._dispatch_reduce(worker, list(spec.partitions), mode)
        while len(parts) < self.plan.num_partitions:
            msg = self._collect()
            if msg is not None:
                kind = msg[0]
                if kind == "hb":
                    _, sid, attempt, _p = msg
                    self._touch(sid, attempt)
                elif kind == "reduce_done":
                    _, sid, payload = msg
                    worker = self.workers.get(sid)
                    if worker is not None:
                        worker.busy = False
                        worker.last_heard = time.monotonic()
                    parts.update(payload["parts"])
                    self.tally.refetches += payload["refetches"]
                    if self.injector is not None:
                        collect_worker_events(
                            self.injector.log, payload["events"]
                        )
                    got = set(payload["parts"])
                    if sid in outstanding:
                        outstanding[sid] = [
                            p for p in outstanding[sid] if p not in got
                        ]
                    if worker is not None:
                        # Only drain the queue while the worker is still
                        # registered; if it was already removed (a done
                        # racing its own lease-expiry kill), _reassign
                        # has re-routed pending[sid] to a survivor.
                        queued = pending.pop(sid, None)
                        if queued:
                            outstanding.setdefault(sid, []).extend(queued)
                            self._dispatch_reduce(worker, queued, MODE_RUN)
                elif kind == "error":
                    _, sid, detail = msg
                    raise ParallelError(
                        f"shard {sid} failed during its reduce phase: "
                        f"{detail}"
                    )
            now = time.monotonic()
            for worker in list(self.workers.values()):
                if not worker.handle.alive():
                    self.tally.crashes += 1
                    self._reassign(
                        worker, outstanding, pending,
                        f"{worker.handle.name} "
                        f"{worker.handle.describe_exit()}",
                    )
                elif (
                    worker.busy
                    and now - worker.last_heard > self.policy.lease_timeout_s
                ):
                    self.tally.lease_expiries += 1
                    worker.handle.kill()
                    self._reassign(
                        worker, outstanding, pending,
                        f"{worker.handle.name} exceeded its "
                        f"{self.policy.lease_timeout_s:.3g}s lease",
                    )
        return parts


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
        except Exception:
            for link in links:
                link.close()
            raise
        fallback_reason = ""
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
        if options.chunk_strategy is ChunkStrategy.NONE:
            chunk_plan = plan_whole_input(job.inputs)
        else:
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
        done = coordinator.map_done
        container_stats = ContainerStats(
            emits=sum(p["emits"] for p in done.values()),
            distinct_keys=sum(p["distinct_keys"] for p in done.values()),
            rounds=max(
                (p["rounds"] + p["restored_rounds"] for p in done.values()),
                default=0,
            ),
        )
        tally = coordinator.tally
        resumed_rounds = sum(p["restored_rounds"] for p in done.values())
        counters: dict[str, Any] = {
            "shards": plan.num_shards,
            "merge_rounds": merge_rounds,
            "merge_algorithm": options.merge_algorithm.value,
            "executor_backend": options.executor_backend.value,
            "chunk_strategy": chunk_plan.strategy,
            "pipeline_rounds": chunk_plan.n_chunks,
            "map_tasks": sum(p["map_tasks"] for p in done.values()),
            "shard_respawns": tally.respawns,
            "shard_crashes": tally.crashes,
            "shard_lease_expiries": tally.lease_expiries,
            "shards_lost": len(tally.shards_lost),
            "partitions_reassigned": tally.reassigned_partitions,
            "speculative_shards": len(tally.speculated),
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
            # Each shard metered its own block at its share of the
            # budget; the job's figures are the sums.
            counters["tenant"] = options.tenant
            for p in done.values():
                for key, value in (p["throttle"] or {}).items():
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
