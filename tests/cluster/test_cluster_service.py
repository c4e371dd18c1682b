"""Cluster e2e: a live daemon dispatching onto a registered agent pool.

The acceptance bar: placed jobs produce digests byte-identical to their
one-shot runs, the ``agents`` RPC/CLI reflect probe truth, a stale
dispatch (agent dead between health check and dial) is requeued onto
survivors, and a SIGKILLed daemon restarted over a partially-healthy
pool still converges to the one-shot digest.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.net.agent import AgentServer
from repro.parallel.backends import fork_available
from repro.service.client import ServiceClient
from repro.service.jobspec import ServiceJobSpec
from repro.service.state import STATE_DONE
from repro.workloads import generate_text_file

from tests.service.conftest import _daemon_env, start_daemon, stop_daemon

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)

#: Daemon knobs every cluster test wants: quick probes, quick retries.
FAST_HEALTH = ("--health-interval", "0.2", "--probe-timeout", "1.0")


@pytest.fixture
def agent_pool(tmp_path):
    """Two live in-process agents, closed at teardown."""
    agents = [
        AgentServer(workdir=tmp_path / f"agent{i}", grace_s=0.3).start()
        for i in range(2)
    ]
    yield agents
    for srv in agents:
        srv.close()


@pytest.fixture(scope="module")
def big_corpus(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("cluster-data") / "big.txt"
    generate_text_file(path, 1_500_000, vocab_size=800, seed=7)
    return path


def one_shot_digest(capsys, argv) -> str:
    assert main([*argv, "--json"]) == 0
    return json.loads(capsys.readouterr().out)["digest"]


def sharded_spec(path: Path, chunk: str = "32KB", **kw) -> ServiceJobSpec:
    return ServiceJobSpec(
        app="wordcount", inputs=(str(path),), chunk_size=chunk,
        shards=2, **kw,
    )


def await_settled(client: ServiceClient, timeout_s: float = 15.0) -> dict:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        reply = client.agents()
        if reply.get("settled"):
            return reply
        time.sleep(0.05)
    raise AssertionError("agent pool never settled")


def await_states(client, wanted: dict, timeout_s: float = 15.0) -> dict:
    """Poll the agents RPC until every addr reports its wanted state."""
    deadline = time.monotonic() + timeout_s
    states: dict = {}
    while time.monotonic() < deadline:
        states = {
            row["addr"]: row["state"]
            for row in client.agents().get("agents", [])
        }
        if all(states.get(a) == s for a, s in wanted.items()):
            return states
        time.sleep(0.05)
    raise AssertionError(f"agent states never reached {wanted}: {states}")


class TestAgentsRpcAndCli:
    def test_pool_settles_and_reports_health(self, tmp_path, daemon,
                                             agent_pool):
        addrs = ",".join(a.addr for a in agent_pool)
        state_dir = tmp_path / "svc"
        daemon(state_dir, "--agents", addrs, *FAST_HEALTH)
        client = ServiceClient.from_state_dir(state_dir)
        reply = await_settled(client)
        rows = {row["addr"]: row for row in reply["agents"]}
        assert set(rows) == {a.addr for a in agent_pool}
        await_states(client, {a.addr: "healthy" for a in agent_pool})
        for row in client.agents()["agents"]:
            assert row["probes"] >= 1
            assert row["inflight"] == 0
            assert row["latency_ms"] is None or row["latency_ms"] >= 0

        # a dead agent is demoted once its probe fails
        agent_pool[0].close()
        states = await_states(client, {agent_pool[0].addr: "suspect"})
        assert states[agent_pool[1].addr] == "healthy"

    def test_register_and_deregister_over_the_wire(self, tmp_path, daemon,
                                                   agent_pool):
        state_dir = tmp_path / "svc"
        daemon(state_dir, *FAST_HEALTH)
        client = ServiceClient.from_state_dir(state_dir)
        assert client.agents()["agents"] == []
        assert client.agents()["settled"]  # empty pool is settled

        reply = client.register_agent(agent_pool[0].addr)
        assert reply["created"]
        assert not client.register_agent(agent_pool[0].addr)["created"]
        await_states(client, {agent_pool[0].addr: "healthy"})

        assert client.deregister_agent(agent_pool[0].addr)["removed"]
        assert not client.deregister_agent(agent_pool[0].addr)["removed"]
        assert client.agents()["agents"] == []

        from repro.errors import ServiceError

        with pytest.raises(ServiceError, match="host:port"):
            client.register_agent("nonsense")

    def test_agents_cli_lists_the_pool(self, tmp_path, daemon, agent_pool):
        addrs = ",".join(a.addr for a in agent_pool)
        state_dir = tmp_path / "svc"
        daemon(state_dir, "--agents", addrs, *FAST_HEALTH)
        client = ServiceClient.from_state_dir(state_dir)
        await_states(client, {a.addr: "healthy" for a in agent_pool})
        out = subprocess.run(
            [sys.executable, "-m", "repro.cli", "agents",
             "--state-dir", str(state_dir)],
            env=_daemon_env(), capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert "agent pool: 2 agent(s), settled" in out.stdout
        for srv in agent_pool:
            assert srv.addr in out.stdout
        assert "healthy" in out.stdout

        reg = subprocess.run(
            [sys.executable, "-m", "repro.cli", "agents",
             "--state-dir", str(state_dir), "--deregister",
             agent_pool[0].addr],
            env=_daemon_env(), capture_output=True, text=True, timeout=60,
        )
        assert reg.returncode == 0, reg.stderr
        assert "deregistered" in reg.stdout


@needs_fork
class TestPlacedDispatch:
    def test_placed_job_digest_matches_one_shot(self, text_file, tmp_path,
                                                daemon, agent_pool, capsys):
        expected = one_shot_digest(capsys, [
            "wordcount", str(text_file), "--chunk-size", "32KB",
            "--shards", "2",
        ])
        addrs = ",".join(a.addr for a in agent_pool)
        state_dir = tmp_path / "svc"
        daemon(state_dir, "--agents", addrs, *FAST_HEALTH)
        client = ServiceClient.from_state_dir(state_dir)
        job_id = client.submit(sharded_spec(text_file))["job_id"]
        record = client.wait(job_id, timeout_s=180)
        assert record.state == STATE_DONE
        assert record.digest == expected
        counters = client.ping()["counters"]
        assert counters["placed"] >= 1
        # the placement reached the runner in its spawn request: both
        # agents were dialed and no side file was left beside the spec
        report = client.result(job_id)["report"]
        assert report["counters"]["net_peers"] == 2
        assert not (state_dir / "jobs" / job_id / "placement.json").exists()
        # the job's in-flight charges were released at completion
        assert all(
            row["inflight"] == 0 for row in client.agents()["agents"]
        )

    def test_stale_dispatch_is_requeued_onto_survivors(self, text_file,
                                                       tmp_path, daemon,
                                                       agent_pool, capsys):
        expected = one_shot_digest(capsys, [
            "wordcount", str(text_file), "--chunk-size", "32KB",
            "--shards", "2",
        ])
        addrs = ",".join(a.addr for a in agent_pool)
        state_dir = tmp_path / "svc"
        daemon(state_dir, "--agents", addrs, *FAST_HEALTH,
               "--faults", "cluster.dispatch.stale=once",
               "--max-attempts", "3")
        client = ServiceClient.from_state_dir(state_dir)
        job_id = client.submit(sharded_spec(text_file))["job_id"]
        record = client.wait(job_id, timeout_s=180)
        assert record.state == STATE_DONE
        assert record.digest == expected
        assert record.attempts == 2, (
            "the poisoned placement should cost exactly one attempt"
        )
        assert client.ping()["counters"]["stale_dispatches"] == 1


@needs_fork
class TestRestartWithPartiallyHealthyPool:
    def _await_remote_workers(self, agent_pool, timeout_s=60.0) -> None:
        """Wait until the placed job's shard workers are live on the
        agents — the job is genuinely mid-flight across hosts."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if any(srv.workers for srv in agent_pool):
                return
            time.sleep(0.01)
        raise AssertionError("no remote shard worker before the timeout")

    def test_sigkill_recovery_requeues_onto_survivors(self, big_corpus,
                                                      tmp_path, daemon,
                                                      agent_pool, capsys):
        expected = one_shot_digest(capsys, [
            "wordcount", str(big_corpus), "--chunk-size", "64KB",
            "--shards", "2",
        ])
        addrs = ",".join(a.addr for a in agent_pool)
        state_dir = tmp_path / "svc"
        proc = start_daemon(state_dir, "--agents", addrs, *FAST_HEALTH)
        try:
            client = ServiceClient.from_state_dir(state_dir)
            spec = sharded_spec(big_corpus, chunk="64KB")
            job_id = client.submit(spec)["job_id"]
            self._await_remote_workers(agent_pool)
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            stop_daemon(proc)

        # SIGKILL skipped the drain, so the dead daemon's endpoint
        # advertisement is still on disk; clear it or the restart wait
        # (and the client) would race against the stale port
        (state_dir / "endpoint.json").unlink()

        # one agent never comes back; the daemon restarts over the same
        # state dir with the same --agents list and must converge anyway
        agent_pool[0].close()
        restarted = daemon(state_dir, "--agents", addrs, *FAST_HEALTH)
        assert restarted.poll() is None
        client = ServiceClient.from_state_dir(state_dir)
        record = client.wait(job_id, timeout_s=240)
        assert record.state == STATE_DONE
        assert record.digest == expected, (
            "recovery onto the surviving agent must not change the digest"
        )
        states = await_states(client, {agent_pool[1].addr: "healthy"})
        assert states[agent_pool[0].addr] in ("suspect", "quarantined")
        assert all(
            row["inflight"] == 0 for row in client.agents()["agents"]
        )
