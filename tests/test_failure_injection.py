"""Failure injection across the runtime stack.

The pipeline crosses threads (ingest thread, mapper pool), so failures
must propagate to the caller without deadlocks, leaked state, or
half-written results — these tests inject faults at every stage.
"""

from __future__ import annotations

import threading

import pytest

from repro.apps.wordcount import make_wordcount_job
from repro.containers import HashContainer, SumCombiner
from repro.core.job import JobSpec
from repro.core.options import RuntimeOptions
from repro.core.phoenix import PhoenixRuntime
from repro.core.supmr import SupMRRuntime, run_ingest_mr
from repro.errors import ChunkingError, WorkloadError
from repro.io.records import TextCodec
from tests.faults.helpers import failing_job as _job
from tests.faults.helpers import failing_map_after, ingest_threads


class TestMapFailures:
    def test_immediate_map_failure_baseline(self, text_file):
        job = _job(text_file, failing_map_after(0))
        with pytest.raises(RuntimeError, match="injected"):
            PhoenixRuntime().run(job)

    def test_immediate_map_failure_supmr(self, text_file):
        job = _job(text_file, failing_map_after(0))
        with pytest.raises(RuntimeError, match="injected"):
            run_ingest_mr(job, RuntimeOptions.supmr_interfile("32KB"))

    def test_mid_pipeline_map_failure_supmr(self, text_file):
        # fail during a later round, while an ingest thread is in flight
        job = _job(text_file, failing_map_after(3))
        with pytest.raises(RuntimeError, match="injected"):
            run_ingest_mr(job, RuntimeOptions.supmr_interfile("16KB"))

    def test_failure_leaves_no_stuck_threads(self, text_file):
        # the pipeline joins its in-flight ingest thread before
        # re-raising, so a failed run must leave no prefetch-reader thread
        # behind and no monotonic growth in total thread count
        assert ingest_threads() == set()
        before = {t.ident for t in threading.enumerate()}
        for _ in range(4):
            with pytest.raises(RuntimeError):
                run_ingest_mr(_job(text_file, failing_map_after(2)),
                              RuntimeOptions.supmr_interfile("16KB"))
            assert ingest_threads() == set()
        leaked = [
            t for t in threading.enumerate()
            if t.ident not in before and t.is_alive()
        ]
        assert leaked == [], f"threads leaked across failed runs: {leaked}"


class TestInputFailures:
    def test_missing_input_file(self, tmp_path):
        job = make_wordcount_job([tmp_path / "ghost.txt"])
        with pytest.raises((WorkloadError, ChunkingError)):
            run_ingest_mr(job, RuntimeOptions.supmr_interfile("16KB"))

    def test_input_deleted_between_plan_and_load(self, tmp_path):
        # the ingest thread hits the missing file; error must surface
        victim = tmp_path / "vanishing.txt"
        victim.write_bytes(b"some words on a line\n" * 3_000)
        job = make_wordcount_job([victim])
        runtime = SupMRRuntime(RuntimeOptions.supmr_interfile("8KB"))

        original_load = type(job).__name__  # noqa: F841 - doc only
        from repro.chunking.chunk import Chunk

        load_count = {"n": 0}
        real_load = Chunk.load

        def flaky_load(self):
            load_count["n"] += 1
            if load_count["n"] == 3:
                raise OSError("device disappeared")
            return real_load(self)

        Chunk.load = flaky_load
        try:
            with pytest.raises(OSError, match="disappeared"):
                runtime.run(job)
        finally:
            Chunk.load = real_load

    def test_reduce_failure_propagates(self, text_file):
        def bad_reduce(key, values):
            raise ValueError("reduce exploded")
            yield  # pragma: no cover

        job = JobSpec(
            name="bad-reduce", inputs=(text_file,),
            map_fn=lambda ctx: ctx.emit(b"k", 1),
            reduce_fn=bad_reduce,
            container_factory=lambda: HashContainer(SumCombiner()),
            codec=TextCodec(),
        )
        with pytest.raises(ValueError, match="reduce exploded"):
            PhoenixRuntime().run(job)


class TestStateAfterFailure:
    def test_runtime_object_reusable_after_failure(self, text_file):
        options = RuntimeOptions.supmr_interfile("32KB")
        runtime = SupMRRuntime(options)
        with pytest.raises(RuntimeError):
            runtime.run(_job(text_file, failing_map_after(0)))
        # a fresh job on the same runtime object succeeds
        result = runtime.run(make_wordcount_job([text_file]))
        assert result.n_output_pairs > 0

    def test_failed_job_container_not_shared(self, text_file):
        # each run constructs a fresh container; a failure cannot leak
        # partial counts into the next run
        options = RuntimeOptions.supmr_interfile("32KB")
        with pytest.raises(RuntimeError):
            run_ingest_mr(_job(text_file, failing_map_after(5)), options)
        clean = run_ingest_mr(make_wordcount_job([text_file]), options)
        from repro.apps.wordcount import reference_wordcount

        assert dict(clean.output) == reference_wordcount([text_file])
