"""Agent control sessions: liveness, dedup in both directions, grace."""

from __future__ import annotations

import pickle
import socket
import time

import pytest

from repro.apps.wordcount import make_wordcount_job
from repro.chunking.planner import plan_whole_input
from repro.core.options import RuntimeOptions
from repro.net import wire
from repro.net.agent import AgentServer
from repro.net.jobs import chunks_to_wire, job_to_wire, options_to_wire
from repro.net.remote import AgentLink, RemoteHandle
from repro.parallel.backends import fork_available
from repro.service.protocol import recv_frame, send_frame

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


@pytest.fixture
def agent(tmp_path):
    srv = AgentServer(workdir=tmp_path / "agent", grace_s=0.3).start()
    yield srv
    srv.close()


def _wait_until(predicate, timeout_s: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


class _RawControl:
    """A hand-rolled coordinator side, for protocol-level assertions."""

    def __init__(self, addr: str) -> None:
        self.sock = wire.connect(addr, timeout_s=5.0)
        send_frame(self.sock, {"type": "hello"})

    def command(self, **cmd) -> None:
        send_frame(self.sock, pickle.dumps(cmd))

    def recv_res(self, timeout_s: float = 2.0):
        """Next ``("res", rseq, payload)`` frame, or None on silence."""
        try:
            frame = recv_frame(self.sock, timeout_s=timeout_s, idle_ok=False)
        except Exception:  # noqa: BLE001 - silence/teardown are expected
            return None
        tag, rseq, payload = pickle.loads(frame)
        assert tag == "res"
        return rseq, payload

    def close(self) -> None:
        self.sock.close()


class TestControlProtocol:
    def test_ping_answers_pong_with_rseq(self, agent):
        ctl = _RawControl(agent.addr)
        try:
            ctl.command(cmd="ping", seq=0)
            rseq, payload = ctl.recv_res()
            assert rseq == 0
            assert payload == {"type": "pong", "seq": 0}
        finally:
            ctl.close()

    def test_duplicate_seq_is_ignored(self, agent):
        ctl = _RawControl(agent.addr)
        try:
            ctl.command(cmd="ping", seq=5)
            assert ctl.recv_res()[1]["seq"] == 5
            # A resend of an already-processed command must be a no-op.
            ctl.command(cmd="ping", seq=5)
            assert ctl.recv_res(timeout_s=0.5) is None
            ctl.command(cmd="ping", seq=6)
            assert ctl.recv_res()[1]["seq"] == 6
        finally:
            ctl.close()

    def test_unacked_tail_is_resent_on_reconnect(self, agent):
        ctl = _RawControl(agent.addr)
        ctl.command(cmd="ping", seq=0)
        first = ctl.recv_res()
        assert first == (0, {"type": "pong", "seq": 0})
        # Drop the connection without ever acking rseq 0.  The pong the
        # kernel already accepted is gone; the agent must not care.
        ctl.close()
        ctl2 = _RawControl(agent.addr)
        try:
            assert ctl2.recv_res() == first  # the unacked tail, again
        finally:
            ctl2.close()

    def test_acked_frames_are_not_resent(self, agent):
        ctl = _RawControl(agent.addr)
        ctl.command(cmd="ping", seq=0)
        assert ctl.recv_res()[0] == 0
        ctl.command(cmd="ping", seq=1, ack=0)  # trims rseq 0
        assert ctl.recv_res()[0] == 1
        ctl.close()
        ctl2 = _RawControl(agent.addr)
        try:
            rseq, payload = ctl2.recv_res()
            assert rseq == 1  # rseq 0 was acked; only 1 comes back
            assert payload["seq"] == 1
        finally:
            ctl2.close()


class TestAgentLink:
    def test_pings_keep_the_link_usable(self, agent):
        link = AgentLink(agent.addr, net_timeout_s=0.8)
        try:
            link.attach()
            time.sleep(1.6)  # two timeout windows of pure idle
            assert link.usable
        finally:
            link.close()

    def test_dead_agent_marks_the_link_unusable(self, agent):
        link = AgentLink(agent.addr, net_timeout_s=0.5, retries=1)
        link.attach()
        agent.close()
        assert _wait_until(lambda: not link.usable)
        link.close()

    def test_injected_partition_is_indistinguishable_from_death(self, agent):
        link = AgentLink(agent.addr, net_timeout_s=0.5, retries=1)
        link.attach()
        try:
            assert link.inject_partition(duration_s=30.0)
            # The agent is alive but silent: past net_timeout_s that is
            # a partition, and a partitioned peer is written off.
            assert _wait_until(lambda: not link.usable, timeout_s=5.0)
        finally:
            link.close()

    def test_unreachable_peer_raises_at_construction(self):
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        listener.close()
        from repro.errors import PeerUnreachable

        with pytest.raises(PeerUnreachable):
            AgentLink(f"127.0.0.1:{port}", net_timeout_s=0.5, retries=1)

    def test_send_after_death_returns_false(self, agent):
        link = AgentLink(agent.addr, net_timeout_s=0.5, retries=0)
        link.attach()
        agent.close()
        assert _wait_until(lambda: not link.usable)
        assert link.send({"cmd": "ping"}) is False
        link.close()


@needs_fork
class TestHostedWorkers:
    def _spawn_args(self, text_file):
        job = make_wordcount_job([text_file])
        options = RuntimeOptions.supmr_interfile("64KB", 2, 2)
        chunks = plan_whole_input(job.inputs)
        return (
            job_to_wire(job), options_to_wire(options),
            chunks_to_wire(chunks), 2,
        )

    def test_worker_exit_is_reported_over_the_link(self, agent, text_file):
        job_w, opt_w, chunks_w, parts = self._spawn_args(text_file)
        link = AgentLink(agent.addr, net_timeout_s=5.0)
        link.attach()
        try:
            assert link.spawn(0, 0, job_w, opt_w, chunks_w, parts)
            handle = RemoteHandle(link, sid=0, wid=0)
            assert _wait_until(lambda: (0, 0) in agent.workers)
            assert handle.alive()
            handle.stop()  # graceful sentinel: worker exits cleanly
            assert _wait_until(lambda: (0, 0) in link.exited)
            assert link.exited[(0, 0)] == 0
            assert not handle.alive()
            assert "exited with code 0" in handle.describe_exit()
        finally:
            link.close()

    def test_grace_reaper_kills_orphaned_workers(self, agent, text_file):
        job_w, opt_w, chunks_w, parts = self._spawn_args(text_file)
        link = AgentLink(agent.addr, net_timeout_s=5.0)
        link.attach()
        assert link.spawn(0, 0, job_w, opt_w, chunks_w, parts)
        assert _wait_until(lambda: (0, 0) in agent.workers)
        proc = agent.workers[(0, 0)].proc
        # Sever the control connection and never come back: after
        # grace_s the agent must reap the worker — no orphans.  (The
        # in-process fork holds dup fds of this test's sockets, so the
        # agent would never see our FIN; detach the session by hand and
        # run the reaper exactly as a real disconnect does.)
        link._closing = True  # silence the pinger *before* severing
        link._drop_socket()
        with agent._send_lock:
            agent._ctl = None
        agent._grace_reaper()
        assert _wait_until(lambda: not proc.is_alive(), timeout_s=5.0)
        assert _wait_until(lambda: (0, 0) not in agent.workers)
        # A reap is an *event*, not an order: it must be observable —
        # counted apart from commanded kills and logged as a fault row.
        from repro.faults.log import ACTION_REAPED
        from repro.faults.plan import SITE_NET_AGENT_REAP

        assert agent.counters["agent_reaped"] == 1
        assert agent.counters["agent_killed"] == 0
        rows = [r for r in agent.fault_log.events
                if r.site == SITE_NET_AGENT_REAP]
        assert len(rows) == 1
        assert rows[0].action == ACTION_REAPED
        assert "grace" in rows[0].detail
        assert rows[0].scope == "0.0"
