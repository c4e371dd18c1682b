"""The bounded-backoff retry loop."""

from __future__ import annotations

import pytest

from repro.errors import FaultInjected, RetryExhausted
from repro.faults.log import ACTION_EXHAUSTED, ACTION_RECOVERED, ACTION_RETRIED
from repro.faults.plan import FaultPlan
from repro.faults.policy import RecoveryPolicy


def _injector(max_retries: int):
    policy = RecoveryPolicy(max_retries=max_retries, backoff_base_s=0.0)
    return FaultPlan(seed=0).arm(policy)


class TestRetryingLoop:
    def test_recovers_after_transient_failures(self):
        injector = _injector(max_retries=3)

        def fn(attempt: int) -> str:
            if attempt < 2:
                raise FaultInjected("transient", site="t")
            return "ok"

        assert injector.retrying("t", fn) == "ok"
        assert injector.log.count(ACTION_RETRIED, site="t") == 2
        assert injector.log.count(ACTION_RECOVERED, site="t") == 1

    def test_exhaustion_raises_with_cause_chained(self):
        injector = _injector(max_retries=2)
        original = FaultInjected("always down", site="t")

        def fn(attempt: int):
            raise original

        with pytest.raises(RetryExhausted) as excinfo:
            injector.retrying("t", fn)
        exc = excinfo.value
        assert exc.site == "t"
        assert exc.attempts == 3  # initial try + 2 retries
        assert exc.__cause__ is original
        assert injector.log.count(ACTION_EXHAUSTED, site="t") == 1

    def test_zero_budget_fails_fast(self):
        injector = _injector(max_retries=0)
        calls = []

        def fn(attempt: int):
            calls.append(attempt)
            raise FaultInjected("down", site="t")

        with pytest.raises(RetryExhausted) as excinfo:
            injector.retrying("t", fn)
        assert calls == [0]
        assert excinfo.value.attempts == 1
        assert isinstance(excinfo.value.__cause__, FaultInjected)

    def test_non_retryable_propagates_immediately(self):
        injector = _injector(max_retries=5)

        def fn(attempt: int):
            raise ValueError("a genuine bug, not a fault")

        with pytest.raises(ValueError, match="genuine bug"):
            injector.retrying("t", fn)
        assert injector.log.count(ACTION_RETRIED) == 0

