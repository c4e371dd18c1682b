"""Degradation ladder and whole-job deadline."""

from __future__ import annotations

import time

import pytest

from repro.apps.wordcount import make_wordcount_job
from repro.core.options import RuntimeOptions
from repro.core.supmr import SupMRRuntime
from repro.errors import DeadlineExceeded, ParallelError
from repro.faults import parse_faults
from repro.faults.policy import RecoveryPolicy
from repro.parallel.backends import ExecutorBackend, fork_available
from repro.resilience.degrade import (
    SITE_POOL,
    Deadline,
    next_backend,
    next_rung,
    run_with_degradation,
)

needs_fork = pytest.mark.skipif(not fork_available(), reason="needs os.fork")


class TestDeadline:
    def test_unset_deadline_never_expires(self):
        deadline = Deadline(None)
        assert not deadline.expired()
        deadline.check("anything")  # must not raise

    def test_expired_deadline_raises_with_context(self):
        deadline = Deadline(1e-9)
        time.sleep(0.01)
        assert deadline.expired()
        with pytest.raises(DeadlineExceeded, match="round 3"):
            deadline.check("round 3")


class TestLadder:
    def test_next_backend_steps_down_to_none(self):
        assert next_backend(ExecutorBackend.PROCESS) is ExecutorBackend.THREAD
        assert next_backend(ExecutorBackend.THREAD) is ExecutorBackend.SERIAL
        assert next_backend(ExecutorBackend.SERIAL) is None

    def test_next_rung_halves_process_pool_before_thread(self):
        options = RuntimeOptions.supmr_interfile("32KB", 8, 2).with_(
            executor_backend=ExecutorBackend.PROCESS
        )
        rung = next_rung(options)
        assert rung.executor_backend is ExecutorBackend.PROCESS
        assert rung.num_mappers == 4
        floor = options.with_(num_mappers=1)
        assert next_rung(floor).executor_backend is ExecutorBackend.THREAD

    def test_next_rung_never_halves_thread_pool(self):
        options = RuntimeOptions.supmr_interfile("32KB", 8, 2).with_(
            executor_backend=ExecutorBackend.THREAD
        )
        rung = next_rung(options)
        assert rung.executor_backend is ExecutorBackend.SERIAL
        assert rung.num_mappers == 8
        assert next_rung(rung.with_(executor_backend=ExecutorBackend.SERIAL)) is None

    def test_step_down_marks_result_degraded(self, text_file):
        job = make_wordcount_job([text_file])
        options = RuntimeOptions.supmr_interfile("32KB", 2, 2).with_(
            executor_backend=ExecutorBackend.PROCESS
        )
        seen: list[tuple[str, int]] = []

        def run_once(j, opts):
            seen.append((opts.executor_backend.value, opts.num_mappers))
            if opts.executor_backend is ExecutorBackend.PROCESS:
                raise ParallelError("pool blew up")
            return SupMRRuntime(opts)._run_once(j, opts)

        result = run_with_degradation(run_once, job, options)
        assert seen == [("process", 2), ("process", 1), ("thread", 1)]
        assert result.counters["degraded"] is True
        assert result.counters["degraded_backend"] == "thread"
        assert result.counters["degraded_workers"] == 1
        assert result.counters["pool_failures"] == 2
        pool_events = [
            e for e in result.fault_log.events if e.site == SITE_POOL
        ]
        assert len(pool_events) == 2
        assert "halved" in pool_events[0].detail
        assert "stepped down" in pool_events[1].detail

    def test_retry_resumes_from_the_journal(self, tmp_path, text_file):
        job = make_wordcount_job([text_file])
        options = RuntimeOptions.supmr_interfile("32KB", 2, 2).with_(
            executor_backend=ExecutorBackend.PROCESS,
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        resume_flags: list[bool] = []

        def run_once(j, opts):
            resume_flags.append(opts.resume)
            if opts.executor_backend is ExecutorBackend.PROCESS:
                raise ParallelError("pool blew up")
            return SupMRRuntime(opts)._run_once(j, opts)

        run_with_degradation(run_once, job, options)
        assert resume_flags == [False, True, True]

    def test_bottom_of_the_ladder_reraises(self, text_file):
        job = make_wordcount_job([text_file])
        options = RuntimeOptions.supmr_interfile("32KB", 2, 2).with_(
            executor_backend=ExecutorBackend.SERIAL
        )

        def run_once(j, opts):
            raise ParallelError("even serial failed")

        with pytest.raises(ParallelError, match="even serial"):
            run_with_degradation(run_once, job, options)


@needs_fork
class TestEndToEnd:
    def test_respawn_budget_zero_degrades_but_finishes_correctly(
        self, text_file
    ):
        job = make_wordcount_job([text_file])
        reference = SupMRRuntime(
            RuntimeOptions.supmr_interfile("32KB", 2, 2)
        ).run(job)
        opts = RuntimeOptions.supmr_interfile("32KB", 2, 2).with_(
            executor_backend=ExecutorBackend.PROCESS,
            fault_plan=parse_faults("worker.crash=once", seed=5),
            recovery=RecoveryPolicy(
                lease_timeout_s=2.0, worker_respawn_budget=0
            ),
        )
        result = SupMRRuntime(opts).run(job)
        assert result.counters["degraded"] is True
        assert result.counters["degraded_backend"] == "thread"
        assert result.output == reference.output

    def test_job_deadline_returns_partial_marked_degraded(self, text_file):
        job = make_wordcount_job([text_file])
        opts = RuntimeOptions.supmr_interfile("16KB", 2, 2).with_(
            job_deadline_s=1e-9
        )
        result = SupMRRuntime(opts).run(job)
        assert result.counters["degraded"] is True
        assert result.counters["deadline_expired"] is True
        assert result.n_output_pairs == 0
