"""The agent registry: membership, probing, placement, fault injection."""

from __future__ import annotations

import pytest

from repro.cluster.health import (
    DEFAULT_PROBE_INTERVAL_S,
    QUARANTINE_AFTER,
    STATE_HEALTHY,
    STATE_QUARANTINED,
    STATE_SUSPECT,
    SUSPECT_RETRY_S,
)
from repro.cluster.registry import AgentRegistry
from repro.errors import ConfigError
from repro.faults.plan import SITE_CLUSTER_AGENT_FLAP, FaultPlan, FaultSpec

class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class FakePinger:
    """Scripted probe outcomes: addr -> latency or an exception."""

    def __init__(self, outcomes: dict) -> None:
        self.outcomes = dict(outcomes)
        self.calls: list[str] = []

    def __call__(self, addr: str, timeout_s: float):
        self.calls.append(addr)
        outcome = self.outcomes[addr]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome, {"workers": 0, "counters": {}}


def registry(outcomes: dict, **kw) -> tuple[AgentRegistry, FakeClock]:
    clock = FakeClock()
    reg = AgentRegistry(
        agents=tuple(outcomes),
        pinger=FakePinger(outcomes), clock=clock, **kw,
    )
    return reg, clock


class TestMembership:
    def test_register_is_canonicalizing_and_idempotent(self):
        reg = AgentRegistry()
        assert reg.register("h:09") == ("h:9", True)
        assert reg.register("h:9") == ("h:9", False)
        assert len(reg) == 1
        assert reg.addrs() == ("h:9",)

    def test_register_rejects_garbage(self):
        reg = AgentRegistry()
        with pytest.raises(ConfigError, match="host:port"):
            reg.register("nonsense")

    def test_deregister(self):
        reg = AgentRegistry(agents=("a:1",))
        assert reg.deregister("a:1")
        assert not reg.deregister("a:1")
        assert len(reg) == 0

    def test_empty_pool_is_settled(self):
        assert AgentRegistry().settled


class TestProbing:
    def test_pool_settles_after_one_round(self):
        reg, _ = registry({"a:1": 0.001, "b:2": ConnectionRefusedError()})
        assert not reg.settled
        assert reg.probe_round() == 2
        assert reg.settled
        states = {r["addr"]: r["state"] for r in reg.snapshot()}
        assert states == {"a:1": STATE_HEALTHY, "b:2": STATE_SUSPECT}

    def test_probe_schedule_is_honored(self):
        reg, clock = registry({"a:1": 0.001})
        reg.probe_round()
        # not due again until the healthy cadence elapses
        assert reg.probe_round() == 0
        clock.advance(DEFAULT_PROBE_INTERVAL_S)
        assert reg.probe_round() == 1

    def test_dead_agent_quarantines_then_backs_off(self):
        reg, clock = registry({"a:1": ConnectionRefusedError()})
        for _ in range(QUARANTINE_AFTER):
            assert reg.probe_round() == 1
            clock.advance(SUSPECT_RETRY_S)
        row = reg.snapshot()[0]
        assert row["state"] == STATE_QUARANTINED
        # immediately after quarantining the next probe is not yet due,
        # and every further failure widens the gap (exponential backoff)
        assert reg.probe_round() == 0
        gaps = []
        for _ in range(4):
            start = clock.now
            while reg.probe_round() == 0:
                clock.advance(0.05)
            gaps.append(clock.now - start)
        assert gaps[-1] > gaps[0]
        assert reg.snapshot()[0]["state"] == STATE_QUARANTINED

    def test_mark_lost_demotes_and_ignores_unknown_hosts(self):
        reg, _ = registry({"a:1": 0.001})
        reg.probe_round()
        assert reg.healthy() == ("a:1",)
        reg.mark_lost("a:1", "runner reported the host lost")
        assert reg.healthy() == ()
        reg.mark_lost("ghost:9", "never registered")     # no-op
        reg.mark_lost("garbage", "unparsable")           # no-op

    def test_injected_flap_reaches_quarantine_deterministically(self):
        plan = FaultPlan(seed=7, specs=(
            FaultSpec(site=SITE_CLUSTER_AGENT_FLAP, probability=1.0),
        ))
        reg, clock = registry(
            {"a:1": 0.001}, injector=plan.arm(),
        )
        # every probe is forced to fail, so the pinger is never consulted
        rounds = 0
        while reg.snapshot()[0]["state"] != STATE_QUARANTINED:
            assert reg.probe_round() == 1
            clock.advance(SUSPECT_RETRY_S)
            rounds += 1
            assert rounds <= QUARANTINE_AFTER
        assert reg.snapshot()[0]["last_error"].startswith("injected")


class TestPlacement:
    def _healthy_pool(self):
        reg, clock = registry({"a:1": 0.001, "b:2": 0.001, "c:3": 0.001})
        reg.probe_round()
        return reg, clock

    def test_unprobed_agents_take_no_work(self):
        reg, _ = registry({"a:1": 0.001})
        assert reg.place("job", 2) == ()

    def test_leases_are_exclusive_per_job(self):
        reg, _ = self._healthy_pool()
        assert reg.place("j1", 1) == ("a:1",)
        assert reg.place("j2", 1) == ("b:2",)
        assert reg.place("j3", 1) == ("c:3",)
        # Every agent carries a job, so a fourth concurrent job gets
        # nothing and runs locally: the agent control protocol is
        # single-coordinator, and a shared agent would splice the two
        # jobs' worker results (and digests) together.
        assert reg.place("j4", 2) == ()
        assert reg.inflight_total() == 3
        # releases free the lease for the next placement
        reg.release("j2")
        assert reg.place("j5", 2) == ("b:2",)
        assert reg.inflight_total() == 3

    def test_release_uncharges_every_agent(self):
        reg, _ = self._healthy_pool()
        reg.place("j1", 3)
        assert reg.inflight_total() == 3
        reg.release("j1")
        assert reg.inflight_total() == 0
        reg.release("j1")  # idempotent
        assert reg.inflight_total() == 0

    def test_want_caps_and_zero_is_empty(self):
        reg, _ = self._healthy_pool()
        assert reg.place("j", 99) == ("a:1", "b:2", "c:3")
        reg.release("j")
        assert reg.place("j", 0) == ()

    def test_only_healthy_agents_are_drawn(self):
        reg, clock = registry({
            "a:1": 0.001, "b:2": ConnectionRefusedError(),
        })
        reg.probe_round()
        assert reg.place("j", 2) == ("a:1",)
        assert reg.healthy_count() == 1


class TestSnapshot:
    def test_rows_carry_the_cli_fields(self):
        reg, _ = registry({"a:1": 0.002})
        reg.probe_round()
        row = reg.snapshot()[0]
        assert row["addr"] == "a:1"
        assert row["state"] == STATE_HEALTHY
        assert row["latency_ms"] == pytest.approx(2.0)
        assert row["inflight"] == 0
        assert row["probes"] == 1
        assert row["flaps"] == 0
        assert row["last_error"] == ""
        assert row["workers"] == 0
