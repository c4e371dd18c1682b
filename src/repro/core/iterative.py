"""Iterative jobs: ingest once, compute many times (Twister/HaLoop lineage).

SupMR's persistent container comes from the iterative-MapReduce line of
work the paper cites ([8] Twister, [11] HaLoop): jobs like k-means run
the same input through many map/reduce passes, and re-ingesting it every
iteration wastes exactly the bandwidth SupMR exists to save.

:class:`IterativeSession` ingests the input through the round driver
(:class:`~repro.core.driver.JobRun`) **once** — overlapping that first
pass's map with ingest as usual — and caches the loaded chunk bytes in
memory (scale-up's whole premise is that the input fits).  Subsequent
iterations run the same rounds with a ``load`` that replays the cache:
no disk reads at all, so every later iteration's read+map cost is just
the map.
"""

from __future__ import annotations

from repro.chunking.chunk import Chunk, ChunkPlan
from repro.chunking.planner import plan_chunks
from repro.core.driver import JobRun
from repro.core.job import JobSpec
from repro.core.options import ChunkStrategy, RuntimeOptions
from repro.core.result import JobResult
from repro.errors import ConfigError, RuntimeStateError
from repro.parallel.splits import ChunkHandle


class IterativeSession:
    """Cached-input session for running many jobs over one ingest.

    Usage::

        with IterativeSession(inputs, codec, options) as session:
            r1 = session.run(job_for_iteration_1)   # pipelined ingest
            r2 = session.run(job_for_iteration_2)   # from cache
    """

    name = "supmr-iterative"

    def __init__(self, inputs, codec, options: RuntimeOptions) -> None:
        if options.chunk_strategy is ChunkStrategy.NONE:
            raise ConfigError(
                "IterativeSession streams ingest chunks; pick a chunk "
                "strategy (supmr_interfile / supmr_intrafile / ...)"
            )
        self.options = options
        self.codec = codec
        self.inputs = tuple(inputs)
        self.plan: ChunkPlan = plan_chunks(self.inputs, codec, options)
        self._cache: dict[int, bytes] | None = None
        self.iterations = 0

    # -- context manager ---------------------------------------------------

    def __enter__(self) -> "IterativeSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Drop the cached chunks."""
        self._cache = None

    @property
    def cached(self) -> bool:
        return self._cache is not None

    @property
    def cached_bytes(self) -> int:
        return sum(len(b) for b in (self._cache or {}).values())

    # -- execution -----------------------------------------------------------

    def run(self, job: JobSpec) -> JobResult:
        """Run one iteration; the first ingests+caches, later ones reuse."""
        if tuple(job.inputs) != self.inputs:
            raise RuntimeStateError(
                "job inputs differ from the session's cached inputs"
            )
        self.iterations += 1
        cache = self._cache
        with JobRun(job, self.options) as run:
            if cache is not None:  # no reads: pure map
                result = run.execute(
                    self.plan, self.name, load=lambda chunk: cache[chunk.index]
                )
            else:
                filled: dict[int, bytes] = {}

                def load(chunk: Chunk) -> bytes:
                    data = run.load(chunk)
                    if isinstance(data, ChunkHandle):
                        data = data.load()
                    filled[chunk.index] = data
                    return data

                result = run.execute(self.plan, self.name, load=load)
                # A pass cut short (deadline, rounds restored from a
                # journal) saw only part of the input: not a cache.
                if len(filled) == self.plan.n_chunks:
                    self._cache = filled
        result.counters["iteration"] = self.iterations
        result.counters["from_cache"] = cache is not None
        return result
