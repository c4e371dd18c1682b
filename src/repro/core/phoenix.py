"""The baseline scale-up runtime (Phoenix++-shaped).

The "original runtime" of the paper's Table II rows labelled *none*: the
whole input is ingested into memory first, then mapper threads run over
input splits, reducers coalesce, and the merge phase combines per-reducer
sorted runs with iterative 2-way merge rounds.  The ingest is one
serial scan (the long low-utilization prefix of Figs. 1/5a) and the merge
re-scans keys every round (the step-down tail of Fig. 1).

That is the SupMR schedule over a single whole-input chunk — the
pipeline's ``n + 1`` rounds for one chunk are exactly "serial ingest,
then map" — so this runtime is :class:`~repro.core.driver.JobRun` over
:func:`~repro.chunking.planner.plan_whole_input`, reporting read and map
as separate Table II columns.  It shares the driver's degradation
ladder, deadline handling and journal, so a crash during the merge phase
resumes straight into the merge.
"""

from __future__ import annotations

from repro.chunking.planner import plan_whole_input
from repro.core.driver import JobRun
from repro.core.job import JobSpec
from repro.core.options import ChunkStrategy, MergeAlgorithm, RuntimeOptions
from repro.core.result import JobResult
from repro.errors import ConfigError
from repro.resilience.degrade import run_with_degradation


class PhoenixRuntime:
    """Ingest-everything-then-compute baseline."""

    name = "phoenix"

    def __init__(self, options: RuntimeOptions | None = None) -> None:
        self.options = options or RuntimeOptions.baseline()
        if self.options.chunk_strategy is not ChunkStrategy.NONE:
            raise ConfigError(
                "PhoenixRuntime ingests the whole input; use SupMRRuntime "
                f"for chunk strategy {self.options.chunk_strategy.value!r}"
            )

    def run(self, job: JobSpec) -> JobResult:
        """Execute ``job`` and report Table II-style phase timings.

        Runs under the graceful-degradation ladder (process → thread →
        serial) on unrecoverable pool failures.
        """
        return run_with_degradation(self._run_once, job, self.options)

    def _run_once(self, job: JobSpec, options: RuntimeOptions) -> JobResult:
        """One full execution under explicit ``options`` (one ladder rung)."""
        with JobRun(job, options) as run:
            return run.execute(
                plan_whole_input(job.inputs), self.name, combined=False
            )


def run_baseline(job: JobSpec, options: RuntimeOptions | None = None) -> JobResult:
    """Convenience: run ``job`` on the baseline runtime."""
    opts = options or RuntimeOptions.baseline()
    if opts.merge_algorithm is not MergeAlgorithm.PAIRWISE:
        opts = opts.with_(merge_algorithm=MergeAlgorithm.PAIRWISE)
    return PhoenixRuntime(opts).run(job)
