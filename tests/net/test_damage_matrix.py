"""One damage matrix, every decode surface.

The same catalogue of damaged byte streams — truncations at every
structural boundary, single-bit flips at every offset, oversize claims,
interleaved garbage — is replayed against each way frames enter the
system: pure ``decode_frame``, the blocking socket reader the net
transport uses, the asyncio reader the service daemon uses, and a live
agent session.  A surface that hangs, crashes, or silently accepts a
damaged frame fails; the only acceptable outcomes are a typed
:class:`ProtocolError` (or clean EOF) and, for the agent, staying up.
"""

from __future__ import annotations

import asyncio
import socket
import struct
import threading

import pytest

from repro.errors import ProtocolError
from repro.service.protocol import (
    decode_frame,
    encode_frame,
    read_frame,
    recv_frame,
    send_frame,
)

_HEADER_SIZE = 14
_FRAME = encode_frame({"type": "hello", "pad": "x" * 64})


def _truncations() -> list[tuple[str, bytes]]:
    cuts = [0, 1, _HEADER_SIZE - 1, _HEADER_SIZE, _HEADER_SIZE + 1,
            len(_FRAME) // 2, len(_FRAME) - 1]
    return [(f"cut@{n}", _FRAME[:n]) for n in cuts if n < len(_FRAME)]


def _bit_flips() -> list[tuple[str, bytes]]:
    # One flip in every structural region: magic, version, kind, crc,
    # length, and a spread of payload offsets.
    offsets = [0, 3, 4, 5, 6, 10, _HEADER_SIZE,
               _HEADER_SIZE + 7, len(_FRAME) - 1]
    cases = []
    for off in offsets:
        damaged = bytearray(_FRAME)
        damaged[off] ^= 0x40
        cases.append((f"flip@{off}", bytes(damaged)))
    return cases


def _oversize() -> list[tuple[str, bytes]]:
    header = struct.Struct(">4sBBII").pack(
        b"RSVC", 1, 0, 0, 2**31
    )
    return [("oversize-claim", header + b"{}")]


def _garbage() -> list[tuple[str, bytes]]:
    return [
        ("pure-noise", b"\x00" * 64),
        ("http-request", b"GET / HTTP/1.1\r\nHost: x\r\n\r\n"),
        ("frame-then-noise", _FRAME + b"\xde\xad\xbe\xef" * 8),
        ("noise-then-frame", b"junkjunkjunk" + _FRAME),
    ]


DAMAGE = _truncations() + _bit_flips() + _oversize() + _garbage()
_IDS = [name for name, _ in DAMAGE]


def _is_clean(name: str, data: bytes) -> bool:
    """Damage that still yields one intact leading frame."""
    return name == "frame-then-noise"


@pytest.mark.parametrize("name,data", DAMAGE, ids=_IDS)
class TestDecodeFrame:
    def test_never_accepts_damage(self, name, data):
        if _is_clean(name, data):
            pytest.skip("leading frame is intact by construction")
        with pytest.raises(ProtocolError):
            decode_frame(data)


@pytest.mark.parametrize("name,data", DAMAGE, ids=_IDS)
class TestBlockingReader:
    def test_typed_error_or_clean_frame_never_a_hang(self, name, data):
        a, b = socket.socketpair()
        try:
            a.sendall(data)
            a.close()
            if _is_clean(name, data):
                assert recv_frame(b, timeout_s=2.0) == decode_frame(_FRAME)
            else:
                with pytest.raises((ProtocolError, EOFError)):
                    recv_frame(b, timeout_s=2.0)
        finally:
            b.close()


@pytest.mark.parametrize("name,data", DAMAGE, ids=_IDS)
class TestAsyncReader:
    def test_typed_error_or_clean_frame_never_a_hang(self, name, data):
        async def scenario():
            server_got = asyncio.Queue()

            async def on_conn(reader, writer):
                try:
                    frame = await read_frame(reader, stall_timeout_s=2.0)
                    await server_got.put(("ok", frame))
                except (ProtocolError, EOFError) as exc:
                    await server_got.put(("err", exc))
                finally:
                    writer.close()

            server = await asyncio.start_server(on_conn, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(data)
            await writer.drain()
            writer.close()
            outcome = await asyncio.wait_for(server_got.get(), timeout=5.0)
            server.close()
            await server.wait_closed()
            return outcome

        kind, value = asyncio.run(scenario())
        if _is_clean(name, data):
            assert kind == "ok" and value == decode_frame(_FRAME)
        else:
            assert kind == "err"


class TestAgentSessionSurvivesDamage:
    """A damaged session never takes the agent down or wedges it."""

    @pytest.fixture
    def agent(self, tmp_path):
        from repro.net.agent import AgentServer

        srv = AgentServer(workdir=tmp_path / "agent").start()
        yield srv
        srv.close()

    @pytest.mark.parametrize("name,data", DAMAGE, ids=_IDS)
    def test_damage_then_a_fresh_session_still_works(
        self, agent, name, data
    ):
        import pickle

        from repro.net import wire

        hostile = wire.connect(agent.addr, timeout_s=2.0)
        try:
            hostile.sendall(data)
        finally:
            hostile.close()
        # Whatever the damage did to that session, the agent must
        # still accept and serve a brand-new control session.
        ctl = wire.connect(agent.addr, timeout_s=2.0)
        try:
            send_frame(ctl, {"type": "hello", "owner": "damage-test"})
            send_frame(ctl, pickle.dumps({"cmd": "ping", "seq": 0}))
            frame = recv_frame(ctl, timeout_s=5.0)
            tag, rseq, payload = pickle.loads(frame)
            assert tag == "res"
            assert payload["type"] == "pong"
        finally:
            ctl.close()
