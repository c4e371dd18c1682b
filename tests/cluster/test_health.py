"""The per-agent health state machine, driven by a fake clock."""

from __future__ import annotations

from repro.cluster.health import (
    BACKOFF_CAP_S,
    FLAP_QUARANTINE,
    QUARANTINE_AFTER,
    RECOVER_AFTER,
    STATE_HEALTHY,
    STATE_QUARANTINED,
    STATE_SUSPECT,
    SUSPECT_RETRY_S,
    AgentHealth,
)


def fresh(addr: str = "a:1") -> AgentHealth:
    return AgentHealth(addr=addr)


class TestStateMachine:
    def test_new_agents_start_suspect_and_unplaceable(self):
        h = fresh()
        assert h.state == STATE_SUSPECT
        assert not h.placeable
        assert h.due(0.0)

    def test_one_success_proves_a_suspect(self):
        h = fresh()
        assert h.record_success(0.0, 0.001) == STATE_HEALTHY
        assert h.placeable
        # and the next probe moves to the healthy cadence
        assert not h.due(0.5)
        assert h.due(1.0)

    def test_healthy_failure_falls_to_suspect_with_quick_retry(self):
        h = fresh()
        h.record_success(0.0, 0.001)
        assert h.record_failure(1.0, "boom") == STATE_SUSPECT
        assert h.flaps == 1
        assert not h.placeable
        assert h.due(1.0 + SUSPECT_RETRY_S)

    def test_consecutive_suspect_failures_quarantine(self):
        h = fresh()
        for _ in range(QUARANTINE_AFTER - 1):
            assert h.record_failure(0.0, "down") == STATE_SUSPECT
        assert h.record_failure(0.0, "down") == STATE_QUARANTINED

    def test_quarantine_recovery_demands_sustained_successes(self):
        h = fresh()
        for _ in range(QUARANTINE_AFTER):
            h.record_failure(0.0, "down")
        assert h.state == STATE_QUARANTINED
        # one lucky pong is not enough
        assert h.record_success(10.0, 0.001) == STATE_QUARANTINED
        assert not h.placeable
        assert h.record_success(10.5, 0.001) == STATE_HEALTHY
        assert h.placeable

    def test_full_recovery_clears_the_flap_tally(self):
        h = fresh()
        h.record_success(0.0, 0.001)
        h.record_failure(1.0, "flap")           # healthy -> suspect
        assert h.flaps == 1
        for _ in range(QUARANTINE_AFTER):
            h.record_failure(1.5, "down")
        assert h.state == STATE_QUARANTINED
        for _ in range(RECOVER_AFTER):
            h.record_success(30.0, 0.001)
        assert h.state == STATE_HEALTHY
        assert h.flaps == 0

    def test_flapping_goes_straight_to_quarantine(self):
        h = fresh()
        now = 0.0
        for flap in range(FLAP_QUARANTINE):
            h.record_success(now, 0.001)
            state = h.record_failure(now + 0.5, "flap")
            if flap < FLAP_QUARANTINE - 1:
                assert state == STATE_SUSPECT
                now += 1.0
        # the final fall skipped suspect entirely
        assert state == STATE_QUARANTINED

    def test_mark_lost_demotes_a_healthy_agent_immediately(self):
        h = fresh()
        h.record_success(0.0, 0.001)
        assert h.mark_lost(0.2, "runner lost the host") == STATE_SUSPECT
        assert h.flaps == 1
        assert h.due(0.2), "truth should be re-established promptly"
        assert h.last_error == "runner lost the host"

    def test_mark_lost_is_a_noop_demotion_when_already_suspect(self):
        h = fresh()
        assert h.mark_lost(0.0, "lost") == STATE_SUSPECT
        assert h.flaps == 0


class TestQuarantineBackoff:
    def _quarantined(self, addr: str) -> AgentHealth:
        h = fresh(addr)
        for _ in range(QUARANTINE_AFTER):
            h.record_failure(0.0, "down")
        return h

    def test_backoff_grows_and_stays_capped(self):
        h = self._quarantined("a:1")
        delays = []
        now = 0.0
        for _ in range(10):
            delays.append(h.next_probe_at - now)
            now = h.next_probe_at
            h.record_failure(now, "still down")
        assert all(0 < d <= BACKOFF_CAP_S for d in delays)
        # exponential at the front: later delays dwarf the first
        assert max(delays[4:]) > delays[0]

    def test_backoff_is_deterministic_per_agent(self):
        a1 = self._quarantined("a:1")
        a2 = self._quarantined("a:1")
        b = self._quarantined("b:2")
        assert a1.next_probe_at == a2.next_probe_at
        # different agents jitter differently (decorrelated probe storms)
        assert a1.next_probe_at != b.next_probe_at
