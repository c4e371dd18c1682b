"""The SupMR runtime: ingest chunk pipeline + persistent container + p-way merge.

``run_ingest_mr()`` is the paper's ``run_ingestMR()`` API call (Table I):
it plans ingest chunks per the user-chosen strategy/size and hands them
to the round driver (:class:`~repro.core.driver.JobRun`), which streams
them through the ingest pipeline (mapper waves on chunk *i* overlap the
ingest of chunk *i+1*), keeps one persistent intermediate container
across all map rounds, runs the reducers once, and merges with the
single-pass parallel p-way merge instead of iterative 2-way rounds.

Resilience (PR 4): with ``options.checkpoint_dir`` every completed
ingest round is journaled (container snapshot + sealed spill runs), the
reduced partitions are checkpointed before the merge, and
``options.resume`` restarts a killed job from the journal with
byte-identical output.  ``options.job_deadline_s`` stops admitting new
rounds once the deadline passes (partial result, ``degraded`` marker),
and unrecoverable pool failures step the backend down the ladder via
:func:`repro.resilience.degrade.run_with_degradation`.
"""

from __future__ import annotations

from repro.chunking.planner import plan_chunks
from repro.core.driver import JobRun
from repro.core.job import JobSpec
from repro.core.options import ChunkStrategy, RuntimeOptions
from repro.core.phoenix import PhoenixRuntime
from repro.core.result import JobResult
from repro.errors import ConfigError
from repro.resilience.degrade import run_with_degradation


class SupMRRuntime:
    """Scale-up MapReduce with the paper's ingest and merge optimizations."""

    name = "supmr"

    def __init__(self, options: RuntimeOptions) -> None:
        if options.chunk_strategy is ChunkStrategy.NONE:
            raise ConfigError(
                "SupMRRuntime requires an ingest chunk strategy; use "
                "RuntimeOptions.supmr_interfile()/supmr_intrafile() or the "
                "baseline PhoenixRuntime instead"
            )
        self.options = options

    def run(self, job: JobSpec) -> JobResult:
        """Execute ``job``; read+map are pipelined and reported combined.

        Runs under the graceful-degradation ladder: an unrecoverable
        pool failure re-runs the job one backend rung down (resuming
        from the journal when checkpointing is on) instead of aborting.
        """
        return run_with_degradation(self._run_once, job, self.options)

    def _run_once(self, job: JobSpec, options: RuntimeOptions) -> JobResult:
        """One full execution under explicit ``options`` (one ladder rung)."""
        with JobRun(job, options) as run:
            return run.execute(
                plan_chunks(job.inputs, job.codec, options), self.name
            )


def run_ingest_mr(job: JobSpec, options: RuntimeOptions) -> JobResult:
    """The paper's ``run_ingestMR()`` entry point (Table I)."""
    return SupMRRuntime(options).run(job)


def run_job(job: JobSpec, options: RuntimeOptions) -> JobResult:
    """Run ``job`` on the runtime ``options`` selects: the sharded
    coordinator when ``num_shards`` is set, Phoenix when there is no
    chunk strategy, SupMR otherwise.  The one-shot CLI and the service
    runner both dispatch here."""
    if options.num_shards is not None:
        from repro.shard import ShardedRuntime

        return ShardedRuntime(options).run(job)
    if options.chunk_strategy is ChunkStrategy.NONE:
        return PhoenixRuntime(options).run(job)
    return SupMRRuntime(options).run(job)
