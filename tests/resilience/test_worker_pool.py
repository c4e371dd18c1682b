"""WorkerPool: the persistent pool's contracts across waves."""

from __future__ import annotations

import os

import pytest

from repro.errors import ParallelError, RetryExhausted
from repro.faults import parse_faults
from repro.faults.policy import RecoveryPolicy
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
    """A wave that raises closes its pool: none of its workers, busy or
    not, can answer a later wave."""
    pool = WorkerPool(_times_ten, 2)
    assert pool.run_wave([1, 2]).results == [10, 20]
    procs = [w.handle.proc for w in pool.workers]

    def hook(index: int) -> None:
        if index == 1:
            raise RetryExhausted("map.task gate gave up", site="map.task")

    with pytest.raises(RetryExhausted):
        pool.run_wave([3, 4, 5], pre_run=hook)
    assert pool.workers == []
    assert not any(p.is_alive() for p in procs)
    with pytest.raises(ParallelError, match="worker pool is closed"):
        pool.run_wave([5, 6])


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)
def test_respawns_and_close_leave_no_descriptor_open():
    before = _open_fds()
    policy = RecoveryPolicy(lease_timeout_s=0.3)
    injector = parse_faults("worker.crash=once,task.hang=once", seed=5).arm(
        policy
    )
    pool = WorkerPool(_times_ten, 2)
    outcome = pool.run_wave(range(3), policy=policy, injector=injector)
    pool.close()
    assert outcome.results == [0, 10, 20]
    assert outcome.crashes >= 1 and outcome.hangs >= 1
    assert _open_fds() == before


def test_close_leaves_no_live_child():
    pool = WorkerPool(_times_ten, 2)
    pool.run_wave(range(4))
    procs = [w.handle.proc for w in pool.workers]
    assert len(procs) == 2 and all(p.is_alive() for p in procs)
    pool.close()
    assert not any(p.is_alive() for p in procs)
    assert pool.workers == []
    pool.close()  # idempotent
