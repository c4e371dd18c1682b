"""Shared execution machinery: input splits, mapper waves, reducers, merge.

Both runtimes use the same engine; they differ only in *when* ingest
happens relative to map waves and in which merge algorithm runs.  The
``run_mappers()``/``run_reducers()`` wrappers of the paper's Table I map
onto :func:`run_mapper_wave` / :func:`run_reducers` here.

A map task has one body on every backend (:func:`run_map_task`): it
maps its split into a private container — the paper's per-mapper
"unlocked storage" — combines there, and hands back a
:class:`~repro.containers.base.ContainerDelta`.  The round thread
resolves every task's fault sites before the wave starts and absorbs
the deltas in task order, so the job's one persistent container has a
single writer and a wave's effect on it does not depend on the
backend.  ``options.executor_backend`` only picks who runs the task:
the calling thread (``serial``), a thread pool (``thread``), or the
job's one pre-forked, supervised pool (``process``,
:mod:`repro.resilience.supervisor`), whose workers read their splits
through ``mmap`` (or receive the window when the parent already holds
the bytes) — the one time a record crosses the process boundary.
Reduce input is the parent's container and merge input is the
reducers' runs, so on every backend both phases run in the parent:
shipping a partition out and its run back costs two pickles per pair,
more than any bundled reducer spends on it.
"""

from __future__ import annotations

from concurrent.futures import Executor
from functools import partial
from itertools import compress
from typing import Any, Hashable, Sequence

from repro.chunking.boundary import adjust_split_point
from repro.containers.base import Container, ContainerDelta
from repro.core.job import JobSpec, MapContext
from repro.core.options import MergeAlgorithm, RuntimeOptions
from repro.errors import FaultInjected, RuntimeStateError
from repro.faults.injector import FaultInjector
from repro.faults.plan import SITE_MAP_TASK, SITE_RECORD_CORRUPT
from repro.io.records import corrupt_record
from repro.io.span import ByteSpan, as_span
from repro.parallel.backends import ExecutorBackend
from repro.parallel.splits import ChunkHandle, SplitRef, split_refs_for_chunk
from repro.resilience.gates import gate_worker_sites
from repro.resilience.supervisor import SupervisionResult, WorkerPool
from repro.shard.exchange import reduce_partition
from repro.sortlib.merge_sort import pairwise_merge_sort
from repro.sortlib.pway import pway_merge
from repro.spill.container import SpillableContainer
from repro.spill.manager import SpillManager
from repro.xfer.transport import make_transport

Pair = tuple[Hashable, Any]


def run_map_task(
    job: JobSpec,
    split: "bytes | bytearray | ByteSpan | SplitRef",
    task_id: int,
    chunk_index: int,
) -> ContainerDelta:
    """The one map-task body: ``job.map_fn`` over one split.

    The task runs against a private ``job.container_factory()``
    container, so combining happens inside the task, and returns that
    container drained — the delta the round thread absorbs into the
    job's container.  A :class:`~repro.parallel.splits.SplitRef` is
    resolved here, in whichever process runs the task.
    """
    container = job.container_factory()
    container.begin_round()
    job.map_fn(MapContext(
        data=split.resolve() if isinstance(split, SplitRef) else split,
        emitter=container.emitter(task_id),
        task_id=task_id,
        chunk_index=chunk_index,
    ))
    container.seal()
    return container.drain()


def gate_map_task(
    injector: FaultInjector, chunk_index: int, task_id: int
) -> None:
    """The ``map.task`` site of one task, resolved before its body runs.

    The site fires and retries against a no-op body, so a retried task
    never double-emits, and the gate runs in the parent on every
    backend: in task order before a serial / thread wave dispatches, and
    as the process wave's ``pre_run`` (injector state cannot live in a
    forked worker).
    """
    scope = (chunk_index, task_id)

    def attempt_fn(attempt: int) -> None:
        decision = injector.check(SITE_MAP_TASK, scope=scope, attempt=attempt)
        if decision is not None:
            raise FaultInjected(
                f"injected map-task failure "
                f"(chunk {chunk_index}, task {task_id})",
                site=SITE_MAP_TASK,
            )

    injector.retrying(
        SITE_MAP_TASK, attempt_fn, scope=scope, retryable=(FaultInjected,)
    )


def job_task_handler(job: JobSpec) -> "Any":
    """Every backend's dispatch body: one ``(task_id, chunk_index,
    split)`` descriptor in, one :class:`ContainerDelta` out.

    A serial or thread wave maps it over its tasks on the parent-side
    pool.  A :class:`~repro.resilience.supervisor.WorkerPool` is forked
    once per job around it — ``job`` (map function, codec,
    container factory) rides into every worker copy-on-write — and each
    wave then sends ``(task_id, chunk_index, split)`` map-task
    descriptors through the command channel instead of re-forking; the
    split is a :class:`~repro.parallel.splits.SplitRef` or the task's
    own window of bytes the parent already holds.
    """

    def handle(task: tuple) -> Any:
        task_id, chunk_index, split = task
        return run_map_task(job, split, task_id, chunk_index)

    return handle


class ProcessPoolContext:
    """Job-lifetime process-backend state: one transport, one pool.

    Created by the round driver once per job run when the backend is
    ``process``; every wave shares its transport (so segments carry one
    job nonce and one cleanup covers them all) and its lazily-forked
    :class:`~repro.resilience.supervisor.WorkerPool`.  ``close()`` is
    the job-exit guarantee: workers are shut down and every
    shared-memory segment of this job — including a SIGKILLed worker's
    strays — is unlinked.
    """

    def __init__(self, job: JobSpec, options: RuntimeOptions) -> None:
        self.job = job
        self.options = options
        self.transport = make_transport(options.transport)
        self._pool: "WorkerPool | None" = None

    @property
    def transport_kind(self) -> str:
        return self.transport.kind

    def pool(self) -> WorkerPool:
        """The persistent pool, forked on first use."""
        if self._pool is None:
            self._pool = WorkerPool(
                job_task_handler(self.job),
                self.options.num_mappers,
                transport=self.transport,
            )
        return self._pool

    def close(self) -> None:
        """Shut down the pool and unlink every live segment (idempotent).

        The round driver calls this in its ``finally`` — it is the
        job-exit guarantee that no shared-memory segment outlives the
        job, even on a crash-path abort.
        """
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        self.transport.cleanup()


def build_container(
    job: JobSpec,
    options: RuntimeOptions,
    injector: FaultInjector | None = None,
    spill_dir: "str | None" = None,
    throttle: "Any | None" = None,
) -> tuple[Container, SpillManager | None]:
    """The job's intermediate container, budget-wrapped when configured.

    With no ``memory_budget`` this is exactly ``job.container_factory()``;
    with one, the container is wrapped in a
    :class:`~repro.spill.container.SpillableContainer` whose manager the
    runtime must ``cleanup()`` after the merge (run files live on disk
    until then).  An armed ``injector`` gives the spill manager its
    ``spill.corrupt`` site and the verify-then-re-spill recovery path.
    ``spill_dir`` pins the run directory (checkpointed jobs put it inside
    the journal directory so sealed runs survive a crash).  A
    ``throttle`` (:class:`repro.qos.throttle.TokenBucket`) meters spill
    run writes against the job's I/O budget.
    """
    if options.memory_budget is None:
        return job.container_factory(), None
    manager = SpillManager(
        budget_bytes=options.memory_budget,
        spill_dir=spill_dir,
        combiner=job.spill_combiner,
        injector=injector,
        throttle=throttle,
    )
    return SpillableContainer(job.container_factory, manager), manager


def screen_records(
    data: "bytes | bytearray | ByteSpan",
    job: JobSpec,
    injector: FaultInjector,
    chunk_index: int,
) -> bytes:
    """Inject record corruption, then quarantine what validation catches.

    The ``record.corrupt`` site damages individual records in ``data``
    (deterministically, per ``(chunk, record)`` scope); each damaged
    record is checked with ``codec.validate`` and quarantined against the
    policy's skip budget — mappers only ever see the surviving clean
    records.  Where the codec has no checkable structure (free text) the
    injector's ground truth stands in for a record-level checksum, as the
    codec docstrings note.  Raises
    :class:`~repro.errors.QuarantineOverflow` past the budget.
    """
    codec = job.codec
    kept: list[bytes] = []
    for i, record in enumerate(codec.iter_records(data)):
        decision = injector.check(SITE_RECORD_CORRUPT, scope=(chunk_index, i))
        if decision is None:
            kept.append(bytes(record))
            continue
        damaged = corrupt_record(bytes(record), salt=injector.plan.seed + i)
        # validate() spots structural damage where the codec can; either
        # way the record is known-bad here, so it is skipped and charged
        # against the skip budget rather than poisoning the map output.
        codec.validate(damaged)
        injector.quarantine(SITE_RECORD_CORRUPT, damaged, scope=(chunk_index, i))
    out = codec.delimiter.join(kept)
    if kept and data.endswith(codec.delimiter):
        out += codec.delimiter
    return out


def split_for_mappers(
    data: "bytes | bytearray | ByteSpan", n_splits: int, delimiter: bytes
) -> list[ByteSpan]:
    """Cut ``data`` into <= ``n_splits`` record-aligned input splits.

    Splits are contiguous :class:`~repro.io.span.ByteSpan` windows that
    cover all of ``data`` without copying any of it — ``bytes(span)``
    materializes one when a caller needs a real buffer.  Short inputs
    may yield fewer splits (never an empty one).
    """
    if n_splits < 1:
        raise RuntimeStateError("need at least one input split")
    if not data:
        return []
    span = as_span(data)
    target = max(1, len(span) // n_splits)
    splits: list[ByteSpan] = []
    start = 0
    while start < len(span) and len(splits) < n_splits - 1:
        end = adjust_split_point(span, min(start + target, len(span)), delimiter)
        if end <= start:
            break
        splits.append(span.span(start, end))
        start = end
    if start < len(span):
        splits.append(span.span(start, len(span)))
    return splits


def accumulate_wave_stats(
    stats: "dict[str, int] | None", outcome: SupervisionResult
) -> None:
    """Fold one supervised wave's survival record into a stats dict.

    The runtimes pass one dict through every wave of a job and copy the
    non-zero tallies into the result counters, so ``--timeline`` can
    report respawns, re-dispatches and lease expiries per job.
    """
    if stats is None:
        return
    stats["worker_respawns"] = (
        stats.get("worker_respawns", 0) + outcome.respawns
    )
    stats["worker_crashes"] = stats.get("worker_crashes", 0) + outcome.crashes
    stats["lease_expiries"] = stats.get("lease_expiries", 0) + outcome.hangs
    stats["task_redispatches"] = (
        stats.get("task_redispatches", 0) + outcome.redispatches
    )
    stats["tasks_skipped"] = (
        stats.get("tasks_skipped", 0) + len(outcome.skipped)
    )


def run_mapper_wave(
    job: JobSpec,
    container: Container,
    data: "bytes | bytearray | ByteSpan | ChunkHandle",
    options: RuntimeOptions,
    pool: Executor,
    chunk_index: int = 0,
    task_id_base: int = 0,
    injector: FaultInjector | None = None,
    wave_stats: "dict[str, int] | None" = None,
    xfer: "ProcessPoolContext | None" = None,
) -> int:
    """One wave of map tasks over ``data``; returns tasks launched.

    Equivalent to the paper's ``run_mappers()``: initializes (or, on
    SupMR rounds > 1, *re-enters*) the persistent container and launches
    mapper tasks over record-aligned splits.  With an armed
    ``injector``, records are screened for injected corruption first and
    each task's worker-fault and ``map.task`` sites are resolved in the
    parent before its body runs (so a retried task never double-emits).

    Every backend runs the same task, :func:`run_map_task`, as
    ``(task_id, chunk_index, split)`` through :func:`job_task_handler`,
    and the round thread absorbs the returned deltas *in task order* —
    the job's container has that one writer.  The backends differ only
    in who runs the handler: ``pool`` (inline under ``serial``, a
    thread pool under ``thread``), or ``xfer``'s supervised worker pool
    under ``process``.  There ``data`` may be a
    :class:`~repro.parallel.splits.ChunkHandle` — a chunk the parent has
    *not* loaded; the wave then plans ``(path, offset, length)`` split
    refs and each worker mmaps its own range (zero-copy ingest).
    Anything already in the parent — an armed run's screened chunk, a
    multi-source chunk — ships each task its own record-aligned window.
    """
    container.begin_round()
    if injector is not None and injector.armed(SITE_RECORD_CORRUPT):
        if isinstance(data, ChunkHandle):
            data = data.load()
        data = screen_records(data, job, injector, chunk_index)
    process = options.executor_backend is ExecutorBackend.PROCESS
    delimiter = job.codec.delimiter
    splits: "Sequence[SplitRef | ByteSpan] | None" = None
    if isinstance(data, ChunkHandle):
        if process:
            splits = split_refs_for_chunk(
                data.chunk, options.num_mappers, delimiter
            )
        if splits is None:
            # Multi-source chunk: no one file range to name, so load it
            # here and ship each task its window.
            data = data.load()
    if splits is None:
        splits = split_for_mappers(data, options.num_mappers, delimiter)
    if not splits:
        return 0
    tasks = [
        (task_id_base + i, chunk_index, split)
        for i, split in enumerate(splits)
    ]
    if process:
        # Worker-fault sites are decided at dispatch (killing/hanging
        # real workers under the same per-scope schedule the gate below
        # replays), orphaned tasks re-dispatch, poison tasks quarantine,
        # and the map.task gate runs as the pre-dispatch hook.
        outcome = xfer.pool().run_wave(
            tasks,
            workers=options.num_mappers,
            policy=options.recovery,
            injector=injector,
            scope_of=lambda i: (chunk_index, task_id_base + i),
            allow_skip=True,
            pre_run=(
                (lambda i: gate_map_task(
                    injector, chunk_index, task_id_base + i
                ))
                if injector is not None else None
            ),
        )
        deltas = outcome.completed()
    else:
        runs = [
            injector is None or _gate_task(injector, task) for task in tasks
        ]
        outcome = SupervisionResult(
            results=runs,
            skipped=tuple(i for i, ok in enumerate(runs) if not ok),
        )
        deltas = pool.map(job_task_handler(job), compress(tasks, runs))
    for delta in deltas:
        container.absorb(delta)
    accumulate_wave_stats(wave_stats, outcome)
    return len(splits)


def _gate_task(injector: FaultInjector, task: tuple) -> bool:
    """Resolve one task's fault sites in the parent, in the order the
    process supervisor does at dispatch: crash, then hang, then
    ``map.task``.  False when the task is poison and quarantined."""
    task_id, chunk_index, _split = task
    scope = (chunk_index, task_id)
    if not gate_worker_sites(
        injector, scope, allow_skip=True,
        task_repr=f"map task {scope}".encode(),
    ):
        return False
    gate_map_task(injector, chunk_index, task_id)
    return True


def run_reducers(
    job: JobSpec,
    container: Container,
    options: RuntimeOptions,
    pool: Executor,
) -> list[list[Pair]]:
    """Seal the container and reduce each partition; returns one
    key-sorted output run per reducer (``run_reducers()`` of Table I).

    The partitions are in this process on every backend (under
    ``process`` the parent absorbed them), so they are reduced here, on
    ``pool``; ``num_reducers`` is a partition count, not a process
    count.  Reduce checks no fault site, so fault schedules are
    backend-identical.
    """
    container.seal()
    return list(pool.map(
        partial(reduce_partition, job),
        container.iter_partitions(options.num_reducers),
    ))


def merge_outputs(
    runs: list[list[Pair]],
    job: JobSpec,
    options: RuntimeOptions,
) -> tuple[list[Pair], int]:
    """Merge per-reducer sorted runs into the final output.

    Returns ``(output, rounds)`` — rounds is the number of pairwise merge
    rounds (0 for the single-pass p-way merge), feeding Conclusion 3's
    "number of merge rounds avoided" accounting.  The runs are already
    in this process, so the merge runs here on every backend.
    """
    if not job.sorted_output:
        flat: list[Pair] = []
        for run in runs:
            flat.extend(run)
        return flat, 0
    if options.merge_algorithm is MergeAlgorithm.PAIRWISE:
        merged, rounds = pairwise_merge_sort(runs, key=job.output_key)
        return merged, rounds
    if options.merge_algorithm is MergeAlgorithm.PWAY:
        merged = pway_merge(runs, options.num_reducers, key=job.output_key)
        return merged, 1 if len([r for r in runs if r]) > 1 else 0
    raise RuntimeStateError(f"unknown merge algorithm {options.merge_algorithm!r}")
