"""Client-side retry: idempotent RPCs survive severed connections.

A scripted fake daemon plays one misbehaviour per accepted connection
(drop before reply, drop mid-frame, damaged CRC, plain success, a watch
stream that drops or goes silent), so every test pins exactly how many
fresh sockets the client opened and which failures it refused to retry.
"""

from __future__ import annotations

import socket
import struct
import threading
import time

import pytest

from repro.errors import ProtocolError, ServiceError
from repro.service.client import ServiceClient
from repro.service.protocol import (
    encode_frame,
    ok_reply,
    recv_frame,
    send_frame,
)
from repro.service.state import JobRecord


def _rst_close(sock: socket.socket) -> None:
    """Abortive close: the peer sees ECONNRESET, not a clean FIN."""
    sock.setsockopt(
        socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
    )
    sock.close()


class _ScriptedServer:
    """Per-connection behaviours, consumed left to right."""

    def __init__(self, script: list[str]) -> None:
        self.script = list(script)
        self.connections = 0
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while self.script:
            behaviour = self.script.pop(0)
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            self.connections += 1
            conn.settimeout(5.0)
            try:
                self._play(conn, behaviour)
            except OSError:
                pass

    def _play(self, conn: socket.socket, behaviour: str) -> None:
        if behaviour == "refuse-by-reset":
            _rst_close(conn)
            return
        request = recv_frame(conn, timeout_s=5.0)
        assert isinstance(request, dict)
        if behaviour == "reset-before-reply":
            _rst_close(conn)
        elif behaviour == "tear-mid-reply":
            frame = encode_frame(ok_reply(pong=True))
            conn.sendall(frame[: len(frame) // 2])
            _rst_close(conn)
        elif behaviour == "bad-crc-reply":
            frame = bytearray(encode_frame(ok_reply(pong=True)))
            frame[-1] ^= 0x01
            conn.sendall(bytes(frame))
            conn.close()
        elif behaviour == "ok":
            send_frame(conn, ok_reply(pong=True))
            conn.close()
        elif behaviour.startswith("watch:"):
            # "watch:<state>,...[:reset|:silent]" streams job records.
            _, states, *end = behaviour.split(":")
            for state in states.split(","):
                send_frame(conn, ok_reply(
                    job=JobRecord(job_id="j", state=state).to_dict()
                ))
            if end == ["reset"]:
                _rst_close(conn)
                return
            if end == ["silent"]:
                conn.recv(1)  # until the client hangs up
            conn.close()
        else:  # pragma: no cover - script typo guard
            raise AssertionError(behaviour)

    def close(self) -> None:
        self.script.clear()
        try:
            self.listener.close()
        except OSError:
            pass
        self._thread.join(timeout=2.0)


def _client(server: _ScriptedServer) -> ServiceClient:
    return ServiceClient("127.0.0.1", server.port, timeout_s=5.0)


class TestIdempotentRetry:
    def test_reset_before_reply_is_retried_on_a_fresh_socket(self):
        server = _ScriptedServer(["reset-before-reply", "ok"])
        try:
            assert _client(server).ping()["pong"] is True
            assert server.connections == 2
        finally:
            server.close()

    def test_mid_frame_tear_is_retried(self):
        server = _ScriptedServer(["tear-mid-reply", "ok"])
        try:
            assert _client(server).ping()["pong"] is True
            assert server.connections == 2
        finally:
            server.close()

    def test_connect_refused_then_recovery(self):
        server = _ScriptedServer(["refuse-by-reset", "refuse-by-reset", "ok"])
        try:
            assert _client(server).ping()["pong"] is True
            assert server.connections == 3
        finally:
            server.close()

    def test_exhaustion_raises_service_error_with_attempt_count(self):
        server = _ScriptedServer(["reset-before-reply"] * 4)
        try:
            with pytest.raises(ServiceError, match="4 time"):
                _client(server).ping()
            assert server.connections == 4
        finally:
            server.close()

    def test_unreachable_endpoint_raises_service_error(self):
        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = ServiceClient("127.0.0.1", port, timeout_s=1.0)
        with pytest.raises(ServiceError, match="4 time"):
            client.ping()

    def test_frame_damage_is_not_retried(self):
        # Garbage from a live peer will be garbage again: one socket,
        # an immediate typed error, no retry storm.
        server = _ScriptedServer(["bad-crc-reply", "ok"])
        try:
            with pytest.raises(ProtocolError) as exc:
                _client(server).ping()
            assert exc.value.reason == "bad-crc"
            assert server.connections == 1
        finally:
            server.close()


class TestWatchRetry:
    def test_a_dropped_stream_rewatches_without_losing_a_transition(self):
        server = _ScriptedServer([
            "watch:queued,running:reset", "watch:running,done",
        ])
        seen: list[str] = []
        try:
            record = _client(server).wait(
                "j", on_transition=lambda r: seen.append(r.state)
            )
            assert record.state == "done"
            assert seen == ["queued", "running", "done"]
            assert server.connections == 2
        finally:
            server.close()

    def test_every_frame_resets_the_budget(self):
        # Four drops, each after a frame: progress every time, so the
        # budget of three never runs out.
        server = _ScriptedServer(["watch:running:reset"] * 4 + ["watch:done"])
        try:
            assert _client(server).wait("j").state == "done"
            assert server.connections == 5
        finally:
            server.close()

    def test_four_drops_in_a_row_exhaust_the_budget(self):
        # The stream that delivered a frame drops, then three fresh
        # connections drop before any frame: four in a row.
        server = _ScriptedServer(
            ["watch:running:reset"] + ["reset-before-reply"] * 3
        )
        try:
            with pytest.raises(ServiceError, match="4 time"):
                _client(server).wait("j")
            assert server.connections == 4
        finally:
            server.close()

    def test_a_silent_stream_cannot_outlast_the_deadline(self):
        server = _ScriptedServer(["watch:running:silent"])
        client = ServiceClient("127.0.0.1", server.port, timeout_s=4.0)
        try:
            start = time.monotonic()
            with pytest.raises(ServiceError, match="timed out .*running"):
                client.wait("j", timeout_s=0.5)
            assert time.monotonic() - start < 1.5
        finally:
            server.close()
