"""The no-leak guarantee: SIGKILL cannot strand a /dev/shm segment."""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import pytest

from repro.parallel.backends import fork_available
from repro.xfer.segments import (
    SegmentPool,
    orphaned_segments,
    shm_available,
    write_segment,
)

pytestmark = [
    pytest.mark.skipif(not shm_available(), reason="needs working /dev/shm"),
    pytest.mark.skipif(not fork_available(), reason="needs os.fork"),
]


def _child_writes_and_hangs(pool: SegmentPool, ready) -> None:
    # A worker that dies between writing its result segment and posting
    # the control frame — the worst-case crash window.
    name = pool.next_name()
    write_segment(name, [b"posted-nowhere" * 1024])
    ready.set()
    time.sleep(60)


class TestSigkillReap:
    def test_killed_workers_segments_are_reaped(self):
        pool = SegmentPool()
        ctx = multiprocessing.get_context("fork")
        ready = ctx.Event()
        proc = ctx.Process(target=_child_writes_and_hangs, args=(pool, ready))
        proc.start()
        assert ready.wait(10.0), "child never wrote its segment"
        os.kill(proc.pid, signal.SIGKILL)
        proc.join(10.0)
        # The stray exists (nobody unlinked it) until the parent reaps.
        assert pool.stray_names(proc.pid), "crash window not reproduced"
        assert pool.reap(proc.pid) >= 1
        assert pool.stray_names(proc.pid) == []
        pool.cleanup()
        assert orphaned_segments([pool.nonce]) == []

    def test_cleanup_sweeps_without_knowing_the_pid(self):
        pool = SegmentPool()
        ctx = multiprocessing.get_context("fork")
        ready = ctx.Event()
        proc = ctx.Process(target=_child_writes_and_hangs, args=(pool, ready))
        proc.start()
        assert ready.wait(10.0)
        os.kill(proc.pid, signal.SIGKILL)
        proc.join(10.0)
        assert pool.cleanup() >= 1
        assert orphaned_segments([pool.nonce]) == []


class TestJobExitGuarantee:
    def test_crash_faulted_job_leaves_dev_shm_clean(
        self, text_file, tmp_path
    ):
        """End to end: workers really SIGKILLed mid-wave, zero orphans."""
        from repro.apps.wordcount import make_wordcount_job
        from repro.core.options import RuntimeOptions
        from repro.core.supmr import SupMRRuntime
        from repro.faults import parse_faults
        from repro.faults.policy import RecoveryPolicy

        before = set(orphaned_segments())
        opts = RuntimeOptions.supmr_interfile(
            "16KB", num_mappers=4, num_reducers=3
        ).with_(
            executor_backend="process",
            transport="shm",
            fault_plan=parse_faults("worker.crash=once,task.hang=once",
                                    seed=7),
            recovery=RecoveryPolicy(lease_timeout_s=2.0),
        )
        result = SupMRRuntime(opts).run(make_wordcount_job([text_file]))
        assert result.counters["transport"] == "shm"
        assert result.counters["faults_injected"] > 0, (
            "no worker was killed; the leak test is vacuous"
        )
        leaked = set(orphaned_segments()) - before
        assert not leaked, f"job leaked shm segments: {sorted(leaked)}"
