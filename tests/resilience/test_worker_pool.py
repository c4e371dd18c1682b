"""WorkerPool: the persistent pool's contracts across waves."""

from __future__ import annotations

import os

import pytest

from repro.parallel.backends import fork_available
from repro.resilience.supervisor import WorkerPool

pytestmark = pytest.mark.skipif(not fork_available(), reason="needs os.fork")


def _pid(_task: int) -> int:
    return os.getpid()


def _times_ten(task: int) -> int:
    return task * 10


def test_two_waves_on_one_pool_fork_once():
    pool = WorkerPool(_pid, 2)
    try:
        first = pool.run_wave(range(4)).results
        forked = sorted(w.handle.proc.pid for w in pool.workers)
        second = pool.run_wave(range(4)).results
        assert sorted(set(first)) == sorted(set(second)) == forked
        assert sorted(w.handle.proc.pid for w in pool.workers) == forked
    finally:
        pool.close()


def test_a_stale_epoch_frame_is_dropped():
    pool = WorkerPool(_times_ten, 1)
    try:
        assert pool.run_wave([1, 2]).results == [10, 20]
        # a straggler of wave 1 claiming wave 2's first index, already
        # in the pipe when wave 2 starts
        pool.results_q.put(pool.transport.pack((pool.epoch, 0, True, "stale")))
        assert pool.results_q._reader.poll(10.0)
        assert pool.run_wave([5, 6]).results == [50, 60]
    finally:
        pool.close()


def test_close_leaves_no_live_child():
    pool = WorkerPool(_times_ten, 2)
    pool.run_wave(range(4))
    procs = [w.handle.proc for w in pool.workers]
    assert len(procs) == 2 and all(p.is_alive() for p in procs)
    pool.close()
    assert not any(p.is_alive() for p in procs)
    assert pool.workers == []
    pool.close()  # idempotent
