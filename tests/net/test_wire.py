"""Wire-level primitives: the reconnect budget and seeded send faults."""

from __future__ import annotations

import socket

import pytest

from repro.errors import PeerUnreachable, ProtocolError
from repro.faults.plan import (
    SITE_NET_CONN_DROP,
    SITE_NET_PARTIAL_WRITE,
    FaultPlan,
    FaultSpec,
)
from repro.faults.policy import RecoveryPolicy
from repro.net import wire
from repro.net.remote import AgentLink
from repro.service.protocol import recv_frame, send_frame
from repro.util.retry import Retry


def _armed(site: str):
    plan = FaultPlan(seed=1, specs=(
        FaultSpec(site=site, once_per_scope=True),
    ))
    return plan.arm(RecoveryPolicy())


def _retrying(fn, retry: Retry):
    """A reconnect loop on ``retry``: call ``fn(attempt)`` until it
    returns, re-raising what the budget refuses."""
    while True:
        try:
            return fn(retry.failures)
        except (EOFError, OSError, ProtocolError) as exc:
            if not retry.again(exc):
                raise


class TestWithRetries:
    """The one reconnect budget every network retry loop runs on."""

    def _no_sleep(self, _s: float) -> None:
        pass

    def test_succeeds_after_transient_failures(self):
        calls = []

        def fn(attempt: int) -> str:
            calls.append(attempt)
            if attempt < 2:
                raise ConnectionResetError("flap")
            return "ok"

        retry = Retry(3, base_s=0.05, sleep=self._no_sleep)
        assert _retrying(fn, retry) == "ok"
        assert calls == [0, 1, 2]

    def test_eof_and_transient_protocol_damage_retry(self):
        errors = [
            EOFError("closed"),
            ProtocolError("torn", reason="truncated"),
            ProtocolError("stalled", reason="stalled"),
        ]

        def fn(attempt: int) -> int:
            if attempt < len(errors):
                raise errors[attempt]
            return attempt

        retry = Retry(3, base_s=0.05, sleep=self._no_sleep)
        assert _retrying(fn, retry) == 3

    def test_structural_damage_is_not_retried(self):
        for reason in ("bad-magic", "bad-crc"):
            calls = []

            def fn(attempt: int) -> None:
                calls.append(attempt)
                raise ProtocolError("garbage", reason=reason)

            retry = Retry(3, base_s=0.05, sleep=self._no_sleep)
            with pytest.raises(ProtocolError):
                _retrying(fn, retry)
            assert calls == [0], reason

    def test_exhaustion_raises_peer_unreachable_with_peer(self):
        listener = socket.create_server(("127.0.0.1", 0))
        addr = f"127.0.0.1:{listener.getsockname()[1]}"
        listener.close()

        with pytest.raises(PeerUnreachable) as exc:
            AgentLink(addr, net_timeout_s=0.5, retries=2)
        assert exc.value.peer == addr
        assert f"connect to agent {addr}: 3 attempt(s)" in str(exc.value)

    def test_backoff_delays_are_seeded_and_bounded(self):
        def fn(attempt: int) -> None:
            raise OSError("down")

        delays: list[float] = []
        with pytest.raises(OSError):
            _retrying(fn, Retry(3, base_s=0.05, seed=7, sleep=delays.append))
        assert len(delays) == 3
        assert all(0 <= d <= 0.05 * 8 for d in delays)
        # Same seed, same schedule: determinism is the whole point.
        replay: list[float] = []
        with pytest.raises(OSError):
            _retrying(fn, Retry(3, base_s=0.05, seed=7, sleep=replay.append))
        assert replay == delays


class TestSendFrameFaulted:
    def _pair(self):
        a, b = socket.socketpair()
        a.settimeout(5.0)
        b.settimeout(5.0)
        return a, b

    def test_unfaulted_send_is_a_plain_frame(self):
        a, b = self._pair()
        try:
            wire.send_frame_faulted(a, {"x": 1})
            assert recv_frame(b) == {"x": 1}
        finally:
            a.close()
            b.close()

    def test_injected_drop_severs_before_any_byte(self):
        a, b = self._pair()
        try:
            with pytest.raises(ConnectionResetError, match="net.conn.drop"):
                wire.send_frame_faulted(
                    a, {"x": 1}, _armed(SITE_NET_CONN_DROP), scope=("s", 0)
                )
            # Peer sees a close with no payload bytes at all.
            with pytest.raises((EOFError, OSError, ProtocolError)):
                recv_frame(b, timeout_s=2.0)
        finally:
            b.close()

    def test_injected_partial_write_tears_the_frame(self):
        a, b = self._pair()
        try:
            with pytest.raises(
                ConnectionResetError, match="net.partial.write"
            ):
                wire.send_frame_faulted(
                    a, {"big": "y" * 500},
                    _armed(SITE_NET_PARTIAL_WRITE), scope=("s", 0),
                )
            # Peer got half a frame: torn, never silently decoded.
            with pytest.raises((ProtocolError, OSError)):
                recv_frame(b, timeout_s=2.0)
        finally:
            b.close()

    def test_fault_fires_once_per_scope(self):
        injector = _armed(SITE_NET_CONN_DROP)
        a, b = self._pair()
        a.close()  # first send severed it
        with pytest.raises(ConnectionResetError):
            wire.send_frame_faulted(a, {"x": 1}, injector, scope=("s", 0))
        c, d = self._pair()
        try:
            # Same scope again: the once-per-scope site stays quiet.
            wire.send_frame_faulted(c, {"x": 2}, injector, scope=("s", 0))
            assert recv_frame(d) == {"x": 2}
        finally:
            c.close()
            d.close()
            b.close()


class TestConnect:
    def test_refused_raises_oserror(self):
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        listener.close()
        with pytest.raises(OSError):
            wire.connect(f"127.0.0.1:{port}", timeout_s=2.0)

    def test_connect_round_trip(self):
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        try:
            sock = wire.connect(f"127.0.0.1:{port}", timeout_s=2.0)
            server_side, _ = listener.accept()
            try:
                send_frame(sock, {"hi": True})
                assert recv_frame(server_side, timeout_s=2.0) == {"hi": True}
            finally:
                sock.close()
                server_side.close()
        finally:
            listener.close()
