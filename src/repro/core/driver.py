"""The one round driver: job-lifetime resources and the round schedule.

The paper's ``run_ingestMR()`` (Table I / section III.B) is one
schedule — ingest chunk *i+1* while mapping chunk *i* into one
persistent container, reduce once, merge once — and the Phoenix++
baseline is that schedule over a single whole-input chunk.  Every
caller that maps chunks runs it through :class:`JobRun`:

==========================  =============================================
caller                      what it configures
==========================  =============================================
``PhoenixRuntime``          ``plan_whole_input``; read and map reported
                            as the two serial phases they are
``SupMRRuntime``            ``plan_chunks``; read+map reported combined
                            with per-round detail
``IterativeSession``        a ``load`` that caches (first pass) or
                            replays the cache (later passes)
``shard_worker._serve_map`` salted fingerprint, serial backend, its own
                            checkpoint dir; heartbeat / straggle /
                            commanded loss in the ``after`` callback;
                            publishes exchange runs instead of reducing
==========================  =============================================

:class:`JobRun` owns what those callers used to rebuild each: the armed
fault injector, the journal (with restore-on-resume), the I/O throttle,
the (spillable) container, the process-backend pool context, the
deadline, and the one ``finally`` — pool shutdown plus segment cleanup
always, spill-run cleanup unless a journaled run failed (its sealed runs
must survive for the resume).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Sequence

from repro.chunking.chunk import Chunk, ChunkPlan
from repro.core.execution import (
    ProcessPoolContext,
    build_container,
    merge_outputs,
    run_mapper_wave,
    run_reducers,
)
from repro.core.job import JobSpec
from repro.core.options import RuntimeOptions
from repro.core.result import JobResult, PhaseTimings, RoundTiming
from repro.core.timers import PhaseTimer
from repro.errors import DeadlineExceeded
from repro.faults.log import ACTION_CHECKPOINTED, ACTION_DEGRADED, ACTION_RESUMED
from repro.faults.plan import SITE_INGEST_READ
from repro.parallel.backends import ExecutorBackend, make_pool
from repro.parallel.splits import ChunkHandle
from repro.pipeline.prefetch import LoadFn, PrefetchPipeline
from repro.qos.throttle import bucket_from_options
from repro.resilience.degrade import Deadline
from repro.resilience.journal import STAGE_REDUCED, JobJournal, job_fingerprint
from repro.util.logging import get_logger

logger = get_logger(__name__)

#: Fault-log pseudo-sites for durability events.
_SITE_CHECKPOINT = "checkpoint"
_SITE_DEADLINE = "job.deadline"


class JobRun:
    """One execution of one job under explicit ``options`` (one ladder rung).

    A context manager: resources that need tearing down (the executor
    pool, the process-backend transport and workers, spill runs) are
    released on exit whatever happened inside.  ``fingerprint``
    overrides the journal identity (shard workers salt it per shard).
    """

    def __init__(
        self,
        job: JobSpec,
        options: RuntimeOptions,
        fingerprint: "str | None" = None,
    ) -> None:
        self.job = job
        self.options = options
        self.timer = PhaseTimer()
        self.injector = None
        if options.fault_plan is not None:
            self.injector = options.fault_plan.arm(
                options.recovery, clock=time.perf_counter
            )
        self.journal = None
        if options.checkpoint_dir is not None:
            self.journal = JobJournal(
                options.checkpoint_dir,
                fingerprint or job_fingerprint(job, options),
                resume=options.resume,
            )
        journal = self.journal
        self.throttle = bucket_from_options(options, self.injector)
        self.container, self.spill_mgr = build_container(
            job, options, self.injector,
            spill_dir=str(journal.spill_dir) if journal is not None else None,
            throttle=self.throttle,
        )
        self.deadline = Deadline(options.job_deadline_s)
        self.deadline_hit = False
        self.wave_stats: dict[str, int] = {}
        #: Map tasks launched so far, journaled rounds included.
        self.map_tasks = 0
        self.restored_rounds: frozenset[int] = frozenset()
        self.resume_at_reduced = (
            journal is not None
            and journal.resumed
            and journal.stage == STAGE_REDUCED
        )
        if (
            journal is not None
            and journal.resumed
            and not self.resume_at_reduced
            and journal.restore(self.container, self.spill_mgr)
        ):
            self.map_tasks = journal.map_tasks
            self.restored_rounds = journal.completed_rounds
            self._log(
                _SITE_CHECKPOINT, ACTION_RESUMED,
                f"restored {len(self.restored_rounds)} completed round(s) "
                f"from {journal.directory}",
            )
        self.xfer: "ProcessPoolContext | None" = None
        self.pool: Any = None
        self._committed = False

    def _log(self, site: str, action: str, detail: str) -> None:
        if self.injector is not None:
            self.injector.log.record(site, action, detail)

    # -- resource lifetime ---------------------------------------------------

    def __enter__(self) -> "JobRun":
        options = self.options
        if options.executor_backend is ExecutorBackend.PROCESS:
            self.xfer = ProcessPoolContext(self.job, options)
        self.pool = make_pool(options.executor_backend, options.num_mappers)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        try:
            self.pool.shutdown()
        finally:
            # Job-exit guarantee: workers are shut down and no
            # shared-memory segment of this job survives, even after a
            # crash-path abort.
            if self.xfer is not None:
                self.xfer.close()
            # On failure with a journal, sealed runs must survive for
            # the resume; otherwise they are dead weight and go now.
            if self.spill_mgr is not None and (
                self.journal is None or self._committed
            ):
                self.spill_mgr.cleanup()

    def commit(self) -> None:
        """The run's output is complete: retire the journal."""
        if self.journal is not None:
            self.journal.finalize()
        self._committed = True

    # -- the map rounds ------------------------------------------------------

    def load(self, chunk: Chunk) -> "bytes | bytearray | ChunkHandle":
        """Ingest one chunk under the run's fault and throttle rules."""
        injector, throttle = self.injector, self.throttle
        if injector is not None:
            # The whole chunk is the retry unit: an injected read error
            # or detected short read discards the partial buffer and
            # re-loads.
            return injector.retrying(
                SITE_INGEST_READ,
                lambda attempt: chunk.load(injector, attempt, throttle=throttle),
                scope=(chunk.index,),
            )
        if self.options.executor_backend is ExecutorBackend.PROCESS:
            # Zero-copy ingest: the parent never materializes the chunk.
            # Warming pages it into the OS cache (that IS the overlapped
            # ingest work) and the pool's mappers then mmap their own
            # split ranges out of it.
            chunk.warm(throttle=throttle)
            return ChunkHandle(chunk)
        if throttle is None:
            # unset budget: the original zero-argument call (docs/qos.md)
            return chunk.load()
        return chunk.load(throttle=throttle)

    def map_rounds(
        self,
        chunks: Sequence[Chunk],
        load: "LoadFn | None" = None,
        after: "Callable[[Chunk], None] | None" = None,
    ) -> list[RoundTiming]:
        """Pipeline ``chunks`` through ingest and mapper waves.

        Rounds restored from the journal are skipped.  ``load`` replaces
        :meth:`load` (a caller that caches); ``after`` runs once per
        completed — mapped and, when checkpointing, journaled — round.
        An expired deadline stops admitting rounds: the completed ones
        stay in the container for a partial, ``degraded`` result.
        """
        job, options = self.job, self.options
        todo = [c for c in chunks if c.index not in self.restored_rounds]
        logger.debug(
            "%d chunk(s) to map, %d restored from the journal",
            len(todo), len(chunks) - len(todo),
        )
        if self.resume_at_reduced or not todo:
            return []

        def work(chunk: Chunk, data: Any) -> None:
            self.deadline.check(f"ingest round {chunk.index}")
            if job.set_data is not None:
                job.set_data(chunk, len(data))
            # task ids are a pure function of the *global* chunk index,
            # so (chunk, task) fault scopes do not depend on how many
            # rounds ran before, in this process or another shard's.
            self.map_tasks += run_mapper_wave(
                job, self.container, data, options, self.pool,
                chunk_index=chunk.index,
                task_id_base=chunk.index * options.num_mappers,
                injector=self.injector,
                wave_stats=self.wave_stats,
                xfer=self.xfer,
            )
            if self.journal is not None:
                self.journal.record_round(
                    chunk.index, self.container, self.map_tasks,
                    self.spill_mgr,
                )
                self._log(
                    _SITE_CHECKPOINT, ACTION_CHECKPOINTED,
                    f"round {chunk.index} journaled",
                )
            if after is not None:
                after(chunk)

        pipeline = PrefetchPipeline(
            load or self.load, work, pipelined=options.pipelined_ingest
        )
        try:
            return pipeline.run(todo)
        except DeadlineExceeded as exc:
            self.deadline_hit = True
            logger.warning("deadline degradation: %s", exc)
            self._log(_SITE_DEADLINE, ACTION_DEGRADED, str(exc))
            return []

    # -- the whole job -------------------------------------------------------

    def execute(
        self,
        plan: ChunkPlan,
        runtime: str,
        combined: bool = True,
        load: "LoadFn | None" = None,
    ) -> JobResult:
        """Map every chunk of ``plan``, reduce once, merge once, report.

        ``combined`` picks the timing shape: read+map as one overlapped
        Table II cell with per-round detail, or (``False``, a
        single-chunk plan) as the serial read and map phases they were.
        """
        job, options, timer, journal = (
            self.job, self.options, self.timer, self.journal
        )
        with timer.phase("total"):
            with timer.phase("read_map"):
                rounds = self.map_rounds(plan.chunks, load=load)
            with timer.phase("reduce"):
                if self.resume_at_reduced:
                    runs = journal.load_reduced()
                else:
                    runs = run_reducers(job, self.container, options, self.pool)
                    if journal is not None:
                        journal.record_reduced(runs)
            with timer.phase("merge"):
                output, merge_rounds = merge_outputs(runs, job, options)
        self.commit()
        logger.info(
            "job %s finished on %s: total=%.3fs read+map=%.3fs chunks=%d",
            job.name, runtime, timer.elapsed("total"),
            timer.elapsed("read_map"), plan.n_chunks,
        )

        spill_stats = self.spill_mgr.stats() if self.spill_mgr else None
        read_s, map_s = timer.elapsed("read_map"), 0.0
        if not combined:
            map_s = rounds[-1].map_s if rounds else 0.0
            read_s -= map_s
        timings = PhaseTimings(
            read_s=read_s,
            map_s=map_s,
            reduce_s=timer.elapsed("reduce"),
            merge_s=timer.elapsed("merge"),
            total_s=timer.elapsed("total"),
            read_map_combined=combined,
            rounds=tuple(rounds) if combined else (),
            spill_s=spill_stats.spill_write_s if spill_stats else 0.0,
        )
        counters: dict[str, Any] = {
            "merge_rounds": merge_rounds,
            "merge_algorithm": options.merge_algorithm.value,
            "executor_backend": options.executor_backend.value,
            "chunk_strategy": plan.strategy,
            "pipeline_rounds": len(rounds),
            "map_tasks": self.map_tasks,
        }
        if self.xfer is not None:
            counters["transport"] = self.xfer.transport_kind
        counters.update((k, v) for k, v in self.wave_stats.items() if v)
        if journal is not None:
            counters["checkpointed"] = True
        if self.restored_rounds or self.resume_at_reduced:
            counters["resumed"] = True
            counters["resumed_rounds"] = (
                plan.n_chunks if self.resume_at_reduced
                else len(self.restored_rounds)
            )
        if self.deadline_hit:
            counters["degraded"] = True
            counters["deadline_expired"] = True
        if spill_stats is not None:
            counters["spill_runs"] = spill_stats.runs
            counters["spilled_bytes"] = spill_stats.spilled_bytes
        if self.throttle is not None:
            counters["tenant"] = options.tenant
            counters.update(self.throttle.counters())
        fault_log = self.injector.log if self.injector is not None else None
        if fault_log is not None:
            counters["faults_injected"] = fault_log.injected
            counters["fault_retries"] = fault_log.retries
            counters["records_quarantined"] = fault_log.quarantined
        return JobResult(
            job_name=job.name,
            runtime=runtime,
            output=output,
            timings=timings,
            container_stats=self.container.stats(),
            input_bytes=plan.total_bytes,
            n_chunks=plan.n_chunks,
            counters=counters,
            spill_stats=spill_stats,
            fault_log=fault_log,
        )
