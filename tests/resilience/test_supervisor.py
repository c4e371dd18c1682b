"""Supervised fork pool: leases, respawn, re-dispatch, poison quarantine."""

from __future__ import annotations

import os
import threading

import pytest

from repro.errors import ParallelError, RetryExhausted
from repro.faults import parse_faults
from repro.faults.log import (
    ACTION_QUARANTINED,
    ACTION_RESPAWNED,
    ACTION_RETRIED,
)
from repro.faults.plan import SITE_TASK_HANG, SITE_WORKER_CRASH
from repro.faults.policy import RecoveryPolicy
from repro.parallel.backends import fork_available
from repro.resilience.supervisor import WorkerPool
from tests.resilience.midframe import (
    BIG,
    BOUND_S,
    kill_mid_frame,
    large_writes_paused,
)

pytestmark = pytest.mark.skipif(not fork_available(), reason="needs os.fork")


def _square(x: int) -> int:
    return x * x


def _one_wave(fn, items, workers, **wave_kw):
    """One supervised wave of a fresh pool forked around ``fn(items[i])``."""
    items = list(items)
    pool = WorkerPool(lambda i: fn(items[i]), workers)
    try:
        return pool.run_wave(range(len(items)), **wave_kw)
    finally:
        pool.close()


def _armed(spec: str, seed: int, **policy_kw):
    policy_kw.setdefault("lease_timeout_s", 2.0)
    policy = RecoveryPolicy(**policy_kw)
    injector = parse_faults(spec, seed=seed).arm(policy)
    return policy, injector


class TestHappyPath:
    def test_results_in_item_order(self):
        outcome = _one_wave(_square, range(17), workers=4)
        assert outcome.results == [x * x for x in range(17)]
        assert outcome.skipped == ()
        assert outcome.respawns == 0

    def test_empty_items(self):
        assert _one_wave(_square, [], workers=4).results == []

    def test_worker_exception_propagates(self):
        def boom(x: int) -> int:
            if x == 3:
                raise ValueError("item three is cursed")
            return x

        with pytest.raises(ValueError, match="cursed"):
            _one_wave(boom, range(6), workers=2)


class TestInjectedCrashes:
    def test_survives_a_kill_per_task_with_correct_output(self):
        # `once` fires on the first check of every scope: with four items
        # that is four seeded worker kills — well past the >= 2 the
        # acceptance criteria ask for — each retried and respawned.
        policy, injector = _armed("worker.crash=once", seed=3)
        outcome = _one_wave(
            _square, range(4), workers=2, policy=policy, injector=injector
        )
        assert outcome.results == [0, 1, 4, 9]
        assert outcome.crashes >= 2
        assert outcome.respawns >= 2
        assert injector.log.count(ACTION_RESPAWNED) >= 2
        redispatches = [
            e for e in injector.log.events
            if e.action == ACTION_RETRIED and e.site == SITE_WORKER_CRASH
        ]
        assert len(redispatches) == 4
        assert outcome.redispatches == 4

    def test_injected_hang_is_lease_killed_and_retried(self):
        policy, injector = _armed("task.hang=once", seed=5, lease_timeout_s=0.3)
        outcome = _one_wave(
            _square, range(3), workers=2, policy=policy, injector=injector
        )
        assert outcome.results == [0, 1, 4]
        assert outcome.hangs >= 1
        assert any(
            e.site == SITE_TASK_HANG and e.action == ACTION_RESPAWNED
            for e in injector.log.events
        )

    def test_poison_task_quarantined_when_skips_allowed(self):
        # Probability 1.0 fires on every attempt: the task is poison.
        # Every attempt costs a worker, so the respawn budget must cover
        # (max_retries + 1) x items.
        policy, injector = _armed(
            "worker.crash=1.0", seed=1, max_retries=2,
            worker_respawn_budget=50,
        )
        outcome = _one_wave(
            _square, range(3), workers=2,
            policy=policy, injector=injector, allow_skip=True,
        )
        assert outcome.skipped == (0, 1, 2)
        assert outcome.completed() == []
        assert injector.log.quarantined == 3
        assert injector.log.count(ACTION_QUARANTINED) == 3

    def test_poison_task_fails_wave_without_skip_budget(self):
        policy, injector = _armed("worker.crash=1.0", seed=1, max_retries=1)
        with pytest.raises(RetryExhausted, match=SITE_WORKER_CRASH):
            _one_wave(
                _square, range(2), workers=2,
                policy=policy, injector=injector, allow_skip=False,
            )

    def test_respawn_budget_exhaustion_raises_parallel_error(self):
        policy, injector = _armed(
            "worker.crash=1.0", seed=2, max_retries=5, worker_respawn_budget=1
        )
        with pytest.raises(ParallelError, match="respawn budget"):
            _one_wave(
                _square, range(2), workers=1,
                policy=policy, injector=injector, allow_skip=True,
            )


class TestOrganicCrashes:
    def test_transient_organic_death_is_redispatched(self, tmp_path):
        flag = tmp_path / "died-once"

        def die_once(x: int) -> int:
            if x == 1 and not flag.exists():
                flag.write_bytes(b"x")
                os._exit(11)
            return x * 10

        outcome = _one_wave(die_once, range(3), workers=2)
        assert outcome.results == [0, 10, 20]
        assert outcome.crashes >= 1
        assert outcome.respawns >= 1

    def test_persistent_organic_killer_raises(self):
        def always_dies(x: int) -> int:
            os._exit(13)

        policy = RecoveryPolicy(max_retries=1, lease_timeout_s=5.0)
        with pytest.raises(ParallelError, match="out of retries"):
            _one_wave(always_dies, [0], workers=1, policy=policy)


class TestPreRunHook:
    def test_pre_run_called_once_per_task_before_dispatch(self):
        calls: list[int] = []
        policy, injector = _armed("worker.crash=once", seed=3)
        _one_wave(
            _square, range(4), workers=2,
            policy=policy, injector=injector, pre_run=calls.append,
        )
        # Re-dispatches after crashes must not re-run the hook.
        assert sorted(calls) == [0, 1, 2, 3]

    def test_pre_run_failure_fails_the_wave(self):
        def hook(index: int) -> None:
            raise RetryExhausted("map.task gate gave up", site="map.task")

        with pytest.raises(RetryExhausted, match="gave up"):
            _one_wave(_square, range(2), workers=2, pre_run=hook)


class TestCrashAfterDelivery:
    def test_an_injected_crash_never_strands_the_results_lock(self):
        """A worker SIGKILLed halfway through sending a result breaks only
        its own channel.  The other worker's result still arrives, the
        dead worker's task runs again, and the wave ends with no lease
        expired.  Were the pool's results one shared queue, the kill
        would strand its write lock and the parent's half-read frame,
        and the wave would never end.  No sleeps: the parent is inside
        task 1's dispatch hook, not reading, when task 0's worker is
        killed mid-frame."""
        report_r, report_w = os.pipe()
        pool = WorkerPool(lambda big: b"x" * BIG if big else b"small", 2)

        def kill_task_0_mid_frame(index: int) -> None:
            if index == 1:
                kill_mid_frame(report_r)

        outcome = []
        wave = threading.Thread(
            target=lambda: outcome.append(
                pool.run_wave([True, False], pre_run=kill_task_0_mid_frame)
            ),
            daemon=True,
        )
        try:
            with large_writes_paused(report_w):
                pool.ensure_started(2)
            wave.start()
            wave.join(BOUND_S)
            assert outcome, (
                "the wave never ended: the killed worker wedged the others"
            )
            assert [len(r) for r in outcome[0].results] == [BIG, len(b"small")]
            assert outcome[0].hangs == 0
            assert outcome[0].crashes == outcome[0].respawns == 1
        finally:
            pool.close()
            os.close(report_r)
            os.close(report_w)
