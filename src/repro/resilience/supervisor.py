"""Supervised fork pool: leases, respawn, and poison-task quarantine.

The one forked worker: :class:`LocalHandle` forks every worker process
of this host (pool, shard, agent-hosted) with one duplex pipe as its
only channel, :func:`shut_down` tears them down and :func:`die` is
their commanded death.  No two workers share a channel, so a worker
killed halfway through a frame breaks its own pipe and nobody else's.
:class:`WorkerPool` forks its workers **once**, around a handler
closure that COW-inherits whatever it captures (the job, its container
factory); each wave then feeds them picklable task descriptors over
their channels.  :class:`Supervisor` drives one wave over one pool:
the parent keeps a **lease** per dispatched task
(:mod:`repro.resilience.core`; the reply is the heartbeat), detects
dead or hung workers, respawns them, and re-dispatches orphaned tasks
with a bounded attempt count.  A discarded worker's channel is closed
with it, so its late frames can never reach a later task or wave, and
a wave that raises closes its pool.  A task that repeatedly kills its
worker is *poison*: once the retry budget is spent it goes through the
injector's skip-budget quarantine (when the wave allows skips) instead
of failing the job.  The runtime forks one pool per job and runs every
map wave on it; :func:`~repro.parallel.fork_pool.fork_map` is one wave
of a pool forked around ``fn(items[i])``: only indices cross the
channels.

Results travel through a :mod:`repro.xfer` transport, so under shared
memory a multi-megabyte container delta crosses as a segment name
instead of a pipe-borne pickle.  The runtime sends only map waves
through here: a map task's input is a file range any process can
``mmap``, whereas reduce and merge input already sits in the parent,
and shipping it out and back costs more than the work.

The parent never polls: it blocks in ``multiprocessing.connection.wait``
on every worker's channel and sentinel, and the earliest lease expiry,
so results, deaths, and hangs each wake it exactly when they happen.

Determinism contract: the ``worker.crash`` / ``task.hang`` fault sites
are decided **in the parent at dispatch time** — the worker is merely
told to :func:`die` or stall (sleep past its lease) — by the
task's :class:`~repro.resilience.gates.WorkerSiteSchedule`, the same
schedule the serial backend's pre-task gate runs.  The supervisor only
drives it, one step per observed death or lease expiry, so the
fault-log sequence per task (injected → retried… → recovered /
exhausted → quarantined) and with it outputs *and fault counters* stay
identical across backends.  Re-dispatch is immediate: the backoff the
schedule returns is not slept.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Hashable, Iterable, NoReturn, Sequence

from repro.errors import ParallelError
from repro.faults.injector import FaultInjector
from repro.faults.log import ACTION_RESPAWNED, ACTION_RETRIED
from repro.faults.plan import SITE_TASK_HANG, SITE_WORKER_CRASH
from repro.faults.policy import RecoveryPolicy
from repro.parallel.backends import require_process_backend
from repro.resilience.core import Tally, Worker, casualties
from repro.resilience.gates import WorkerSiteSchedule, worker_sites_armed
from repro.xfer.transport import PipeTransport, ShmTransport

#: Exit code a worker uses when told to crash (distinct from genuine
#: faults' codes so logs can tell injected deaths from organic ones).
CRASH_EXIT = 37

#: Fallback wake-up interval when nothing is in flight (a state the
#: main loop cannot normally reach; this only guards against a hang).
_IDLE_WAKE_S = 1.0


def _scope_str(scope: Hashable) -> str:
    return repr(scope) if scope != () else ""


@dataclass
class _TaskState:
    """Parent-side bookkeeping for one item of the wave."""

    index: int
    scope: Hashable
    #: The task's worker-fault schedule; None when neither site is armed.
    sites: WorkerSiteSchedule | None = None
    #: Genuine (non-injected) dispatch failures, bounded separately.
    organic_failures: int = 0
    #: The site the in-flight dispatch was told to fail at, if any.
    fault: str | None = None
    #: Set once the per-task ``pre_run`` hook has been invoked.
    pre_run_done: bool = False
    #: The packed task payload, built once at first real dispatch and
    #: reused verbatim on every re-dispatch; released at wave end.
    frame: "tuple | None" = None


@dataclass
class SupervisionResult:
    """What one supervised wave produced, plus its survival record."""

    #: Per-item results in item order; ``None`` at quarantined indices.
    results: list[Any]
    #: Indices of tasks skipped via poison-task quarantine.
    skipped: tuple[int, ...] = ()
    #: Workers respawned after a death or a lease kill.
    respawns: int = 0
    #: Worker deaths observed (injected and organic).
    crashes: int = 0
    #: Leases that expired (hung workers killed by the supervisor).
    hangs: int = 0
    #: Orphaned tasks re-dispatched after their worker died or hung.
    redispatches: int = 0

    def completed(self) -> list[Any]:
        """The non-skipped results, in item order."""
        skipped = set(self.skipped)
        return [r for i, r in enumerate(self.results) if i not in skipped]


def die() -> NoReturn:
    """A commanded death (exit code :data:`CRASH_EXIT`)."""
    os._exit(CRASH_EXIT)


class LocalHandle:
    """One forked worker process and its channel.

    Runs ``target(*args, conn)``: ``conn`` is the worker's end of a
    duplex pipe, and :attr:`conn` the parent's.  Commands go down it,
    replies come back up it, and no other process writes to it.
    :class:`~repro.net.remote.RemoteHandle` is the same surface for a
    worker on another host.
    """

    is_remote = False

    def __init__(
        self, target: Callable[..., None], args: tuple, name: str
    ) -> None:
        ctx = multiprocessing.get_context("fork")
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(
            target=target, args=(*args, child), daemon=True, name=name,
        )
        self.proc.start()
        # Only the worker holds its end: its death ends the channel.
        child.close()
        self.name, self.pid = name, self.proc.pid
        self.sentinel = self.proc.sentinel

    def send(self, msg: Any) -> None:
        """Send one command; a dead worker's channel is the sweep's to find."""
        try:
            self.conn.send(msg)
        except OSError:
            pass

    def alive(self) -> bool:
        """Whether the process is still running."""
        return self.proc.is_alive()

    def kill(self) -> None:
        """SIGKILL the process and reap it."""
        self.proc.kill()
        self.proc.join(timeout=5.0)

    def stop(self) -> None:
        """The graceful ``None`` sentinel."""
        self.send(None)

    def join(self, timeout: "float | None" = None) -> None:
        """Wait for the process to exit."""
        self.proc.join(timeout=timeout)

    def discard(self) -> None:
        """Close the channel of a worker that is gone or going."""
        self.conn.close()

    def describe_exit(self) -> str:
        """How the process exited, for recovery log lines."""
        return f"exited with code {self.proc.exitcode}"


def shut_down(handles: Iterable[Any]) -> None:
    """Sentinel, join, kill stragglers, release: every worker's teardown."""
    handles = list(handles)
    for handle in handles:
        handle.stop()
    for handle in handles:
        if not handle.is_remote:
            handle.join(timeout=5.0)
            if handle.alive():
                handle.kill()  # pragma: no cover - defensive
        handle.discard()


def _worker_main(
    handler: Callable[[Any], Any],
    transport: "PipeTransport | ShmTransport",
    conn: Any,
) -> None:
    """Worker body: serve dispatches until the ``None`` sentinel.

    ``(index, fault, frame)`` messages run one task each.  A
    ``worker.crash`` fault is a commanded :func:`die` (the deterministic
    stand-in for an OOM kill); ``task.hang`` sleeps past any lease (a
    wedged I/O call); no fault unpacks the task frame and replies
    ``(ok, payload)`` through the transport, packing synchronously so
    unpicklable results downgrade to a transportable
    :class:`~repro.errors.ParallelError`.
    """
    while True:
        msg = conn.recv()
        if msg is None:
            return
        index, fault, task_frame = msg
        if fault == SITE_WORKER_CRASH:
            die()
        if fault == SITE_TASK_HANG:
            while True:  # pragma: no cover - killed by the supervisor
                time.sleep(3600)
        try:
            task = transport.unpack(task_frame)
            payload = (True, handler(task))
        except BaseException as exc:  # noqa: BLE001 - transported to parent
            payload = (False, exc)
        try:
            frame = transport.pack(payload)
        except Exception:  # noqa: BLE001 - unpicklable result or error
            kind = "result" if payload[0] else "error"
            frame = transport.pack((False, ParallelError(
                f"worker {kind} for item {index} could not be pickled: "
                f"{payload[1]!r}"
            )))
        conn.send(frame)


class WorkerPool:
    """A persistent pool of forked workers serving task descriptors.

    Forked lazily, once, around ``handler`` — a job-level closure that
    COW-inherits whatever it captures (the job, its container factory,
    or :func:`~repro.parallel.fork_pool.fork_map`'s items).  Waves are then
    driven through :meth:`run_wave`, which pays only a pipe round-trip
    per task instead of ``workers`` forks per wave.  The pool survives
    worker deaths (the supervisor respawns through :meth:`spawn`) and is
    closed once per job via :meth:`close`, or by a wave that raises.
    """

    def __init__(
        self,
        handler: Callable[[Any], Any],
        workers: int,
        *,
        transport: "PipeTransport | ShmTransport | None" = None,
    ) -> None:
        if workers < 1:
            raise ParallelError("WorkerPool needs at least one worker")
        require_process_backend()
        self._handler = handler
        self.requested = workers
        self.transport = transport or PipeTransport()
        #: Leased workers; ``busy`` holds the dispatched task's state.
        self.workers: list[Worker] = []
        self._next_worker_id = 0
        self._closed = False

    def ensure_started(self, workers: int) -> None:
        """Grow the pool to ``workers`` processes (it never shrinks)."""
        if self._closed:
            raise ParallelError("worker pool is closed")
        while len(self.workers) < min(workers, self.requested):
            self.spawn()

    def spawn(self) -> Worker:
        """Fork one worker (initial fill and post-death respawn)."""
        wid = self._next_worker_id
        self._next_worker_id += 1
        worker = Worker(handle=LocalHandle(
            _worker_main, (self._handler, self.transport), f"repro-pool-{wid}"
        ))
        self.workers.append(worker)
        return worker

    def discard(self, worker: Worker) -> None:
        """Drop a dead/killed worker, its channel, and its stray segments."""
        worker.handle.discard()
        self.workers.remove(worker)
        # The worker is confirmed dead and its channel closed, so any
        # segment it created is undeliverable; unlink before its
        # replacement starts writing.
        self.transport.reap(worker.handle.pid)

    def run_wave(
        self,
        tasks: Sequence[Any],
        *,
        workers: "int | None" = None,
        policy: "RecoveryPolicy | None" = None,
        injector: "FaultInjector | None" = None,
        scope_of: "Callable[[int], Hashable] | None" = None,
        allow_skip: bool = False,
        pre_run: "Callable[[int], None] | None" = None,
    ) -> SupervisionResult:
        """Run one supervised wave of ``handler(task)`` over this pool.

        A wave that raises closes the pool first: a worker still busy
        with it must never answer a later wave.
        """
        try:
            return Supervisor(
                self, list(tasks), workers or self.requested,
                policy=policy or RecoveryPolicy(),
                injector=injector,
                scope_of=scope_of,
                allow_skip=allow_skip,
                pre_run=pre_run,
            ).run()
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Shut every worker down (once per job)."""
        if self._closed:
            return
        self._closed = True
        shut_down(worker.handle for worker in self.workers)
        self.workers.clear()


class Supervisor:
    """Drives one wave of task descriptors through one pool's leased,
    respawnable workers; use it through :meth:`WorkerPool.run_wave`."""

    def __init__(
        self,
        pool: WorkerPool,
        items: Sequence[Any],
        workers: int,
        policy: RecoveryPolicy,
        injector: FaultInjector | None = None,
        scope_of: Callable[[int], Hashable] | None = None,
        allow_skip: bool = False,
        pre_run: Callable[[int], None] | None = None,
    ) -> None:
        self._pool = pool
        self._transport = pool.transport
        self._items = list(items)
        self._policy = policy
        self._injector = injector
        self._pre_run = pre_run
        self._n_workers = max(
            1, min(workers, len(self._items) or 1, (os.cpu_count() or 1) * 4)
        )
        scope_of = scope_of or (lambda i: (i,))
        armed = worker_sites_armed(injector)
        self._states = []
        for i, item in enumerate(self._items):
            scope = scope_of(i)
            sites = WorkerSiteSchedule(
                injector, scope, allow_skip, repr(item).encode()
            ) if armed else None
            self._states.append(_TaskState(i, scope, sites))
        self._pending: list[int] = list(range(len(self._items)))
        self._done: set[int] = set()
        self._skipped: set[int] = set()
        self._failures: dict[int, BaseException] = {}
        self._out: list[Any] = [None] * len(self._items)
        self._respawns = 0
        self._tally = Tally()
        self._redispatches = 0

    # -- worker lifecycle --------------------------------------------------

    def _respawn_after(self, worker: Worker, site: str, detail: str) -> None:
        self._pool.discard(worker)
        self._respawns += 1
        if self._injector is not None:
            self._injector.log.record(
                site, ACTION_RESPAWNED,
                f"worker {worker.handle.name} replaced: {detail}",
            )
        if self._respawns > self._policy.worker_respawn_budget:
            raise ParallelError(
                f"supervised pool exceeded its respawn budget "
                f"({self._policy.worker_respawn_budget}): {detail}"
            )
        self._pool.spawn()

    # -- fault protocol ----------------------------------------------------

    def _failed(self, state: _TaskState, site: str, detail: str) -> None:
        """The task's worker died at ``site``: re-dispatch it or skip it.

        The task's own injected fault steps its schedule, which retries
        it or quarantines it as poison; any other death is organic.
        """
        if state.fault != site:
            self._organic_failure(state, detail)
        elif state.sites.failed() is None:
            self._skipped.add(state.index)
            self._done.add(state.index)
            return
        self._redispatches += 1
        self._pending.append(state.index)

    def _organic_failure(self, state: _TaskState, detail: str) -> None:
        """A worker died (or hung) with no injected fault to blame."""
        state.organic_failures += 1
        if state.organic_failures > self._policy.max_retries:
            raise ParallelError(
                f"task {state.index} killed its worker "
                f"{state.organic_failures} time(s) ({detail}); "
                "out of retries"
            )
        if self._injector is not None:
            self._injector.log.record(
                SITE_WORKER_CRASH, ACTION_RETRIED,
                f"re-dispatching task {state.index} after {detail}",
                scope=_scope_str(state.scope),
                attempt=state.organic_failures - 1,
            )

    # -- dispatch / wait / sweep -------------------------------------------

    def _dispatch_ready(self) -> None:
        """Hand pending tasks to idle workers, deciding each one's fault."""
        for worker in self._pool.workers:
            if worker.busy:
                continue
            if not self._pending:
                return
            index = self._pending.pop(0)
            state = self._states[index]
            state.fault = state.sites.fault() if state.sites else None
            if state.fault is None:
                if not state.pre_run_done:
                    state.pre_run_done = True
                    if self._pre_run is not None:
                        # Hook failures (e.g. an exhausted map.task gate)
                        # propagate: they fail the wave exactly as the
                        # serial backend's in-task gate would.
                        self._pre_run(index)
                if state.frame is None:
                    # Packed once; re-dispatches reuse the same frame
                    # (and, under shm, the same segment).
                    state.frame = self._transport.pack(
                        self._items[index], keep=True
                    )
            worker.engage(time.monotonic(), state)
            worker.handle.send((index, state.fault, state.frame))

    def _wait(self) -> None:
        """Block until a result frame, a worker death, or a lease expiry.

        The timeout is the earliest outstanding lease — not a polling
        interval — so an idle supervisor costs nothing and a hang is
        detected the moment its lease lapses.
        """
        workers = self._pool.workers
        expiries = [
            w.last_heard + self._policy.lease_timeout_s
            for w in workers if w.busy
        ]
        if expiries:
            timeout = max(0.0, min(expiries) - time.monotonic()) + 0.005
        else:
            timeout = _IDLE_WAKE_S
        mp_connection.wait(
            [w.handle.conn for w in workers]
            + [w.handle.sentinel for w in workers],
            timeout=timeout,
        )

    def _sweep(self) -> None:
        """Detect dead workers and expired leases; recover each.

        Swept in busy-task order, not worker-list order: a persistent
        pool's list carries respawn reshuffles from earlier waves, and
        two simultaneously-dead workers must produce fault-log rows in
        the same task order a fresh fork-per-wave pool would — the
        fault-sequence determinism contract of the transport matrix.
        Each worker is tested against a fresh clock, so a lease that
        lapses while the one before it is recovered is buried in this
        sweep too.
        """
        snapshot = sorted(  # stable: idle workers keep list order
            self._pool.workers,
            key=lambda w: w.busy.index if w.busy else len(self._items),
        )
        for worker in snapshot:
            if worker.busy and worker.busy.fault == SITE_WORKER_CRASH:
                # An injected crash is certain death (the worker dies on
                # receipt).  Wait for it here so that simultaneous
                # crashes are all recovered in this sweep — in task
                # order — instead of whichever subset the OS happened to
                # have reaped first.
                worker.handle.join(timeout=5.0)
        for worker in snapshot:
            for _, expired in casualties(
                time.monotonic(), [worker], lambda w: w.handle.alive(),
                self._policy.lease_timeout_s, self._tally,
            ):
                if expired:
                    worker.handle.kill()
                site = SITE_TASK_HANG if expired else SITE_WORKER_CRASH
                why = expired or worker.handle.describe_exit()
                detail = f"{worker.handle.name} {why}"
                state, worker.busy = worker.busy, False
                if state:
                    self._failed(state, site, detail)
                self._respawn_after(worker, site, detail)

    def _collect(self) -> None:
        """Take the reply of every busy worker whose channel has one.

        A channel that ends instead (the worker died, perhaps halfway
        through a frame) is left for the sweep to bury.
        """
        for worker in self._pool.workers:
            if not (worker.busy and worker.handle.conn.poll()):
                continue
            try:
                frame = worker.handle.conn.recv()
            except (EOFError, OSError):
                continue
            try:
                ok, payload = self._transport.unpack(frame)
            except Exception as exc:  # noqa: BLE001 - corrupt transport
                raise ParallelError(
                    f"could not decode a supervised worker result: {exc!r}"
                ) from exc
            index, worker.busy = worker.busy.index, False
            self._done.add(index)
            if ok:
                self._out[index] = payload
            else:
                self._failures[index] = payload

    # -- main loop ---------------------------------------------------------

    def run(self) -> SupervisionResult:
        """Drive the wave to completion."""
        if not self._items:
            return SupervisionResult(results=[])
        try:
            self._pool.ensure_started(self._n_workers)
            while len(self._done) < len(self._items):
                self._dispatch_ready()
                self._wait()
                self._collect()
                self._sweep()
        finally:
            # Dispatch frames are wave-scoped; drop them (and their
            # segments) whether the wave finished or raised.
            for state in self._states:
                if state.frame is not None:
                    self._transport.release(state.frame)
                    state.frame = None
        if self._failures:
            raise self._failures[min(self._failures)]
        return SupervisionResult(
            results=self._out,
            skipped=tuple(sorted(self._skipped)),
            respawns=self._respawns,
            crashes=self._tally.crashes,
            hangs=self._tally.lease_expiries,
            redispatches=self._redispatches,
        )
