"""Remote run fetch: resume, verify-then-refetch, deadlines, escapes."""

from __future__ import annotations

import socket
import threading
from pathlib import Path

import pytest

from repro.errors import NetError, PeerUnreachable, RetryExhausted
from repro.net.exchange import (
    CHUNK_BYTES,
    _FetchConn,
    fetch_run_remote,
    serve_fetch_session,
)
from repro.spill.runfile import RunReader, RunWriter
from tests.spill.damage import DAMAGE


class _FetchServer:
    """A tiny threaded fetch exporter over one base directory."""

    def __init__(self, base_dir: Path) -> None:
        self.base_dir = base_dir
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.addr = "127.0.0.1:%d" % self._listener.getsockname()[1]
        self._threads: list[threading.Thread] = []
        self._accepting = True
        self._acceptor = threading.Thread(target=self._accept, daemon=True)
        self._acceptor.start()

    def _accept(self) -> None:
        while self._accepting:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return
            sock.settimeout(10.0)
            # Swallow the session-type hello the client leads with.
            t = threading.Thread(
                target=self._serve, args=(sock,), daemon=True
            )
            t.start()
            self._threads.append(t)

    def _serve(self, sock: socket.socket) -> None:
        from repro.service.protocol import recv_frame

        try:
            recv_frame(sock, timeout_s=10.0)  # {"type": "fetch"} hello
            serve_fetch_session(sock, self.base_dir, stall_timeout_s=10.0)
        except Exception:
            pass
        finally:
            sock.close()

    def close(self) -> None:
        self._accepting = False
        self._listener.close()
        for t in self._threads:
            t.join(timeout=2.0)


@pytest.fixture
def run_file(tmp_path) -> Path:
    """A real (CRC-verifiable) exchange run of a few hundred records."""
    path = tmp_path / "outbox" / "part-0003.run"
    path.parent.mkdir()
    with RunWriter(path) as w:
        for i in range(400):
            w.write_group(f"key-{i:05d}", (f"value-{i}",))
    return path


@pytest.fixture
def server(run_file):
    srv = _FetchServer(run_file.parent)
    yield srv
    srv.close()


def _assert_intact(reader: RunReader, src: Path) -> None:
    assert reader.verify()
    assert [k for k, _ in reader] == [k for k, _ in RunReader(src)]


class TestFetchRunRemote:
    def test_plain_fetch_verifies_and_matches(self, server, run_file, tmp_path):
        dst = tmp_path / "fetched.run"
        reader, attempt = fetch_run_remote(server.addr, run_file, dst)
        assert attempt == 0
        _assert_intact(reader, run_file)

    def test_injected_drop_resumes_and_still_verifies(
        self, server, run_file, tmp_path
    ):
        dst = tmp_path / "fetched.run"
        events = []
        reader, attempt = fetch_run_remote(
            server.addr, run_file, dst,
            drop_attempts=(0,), events=events, scope="(0, 1)",
        )
        assert attempt == 0  # resume repairs in-place, no refetch needed
        _assert_intact(reader, run_file)
        assert any("resuming from the received offset" in e[2] for e in events)

    def test_injected_corruption_is_caught_and_refetched(
        self, server, run_file, tmp_path
    ):
        dst = tmp_path / "fetched.run"
        events = []
        reader, attempt = fetch_run_remote(
            server.addr, run_file, dst,
            corrupt_attempts=(0,), events=events, scope="(0, 1)",
        )
        assert attempt == 1  # first copy rejected by its checksum
        _assert_intact(reader, run_file)
        assert any("rejected" in e[2] for e in events)

    @pytest.mark.parametrize("kind", sorted(DAMAGE))
    def test_damage_matrix_every_kind_is_refetched(
        self, server, run_file, tmp_path, monkeypatch, kind
    ):
        # The injected corruption site damages the received copy; swap
        # its byte flip for each kind of format-2 damage in turn.
        monkeypatch.setattr(
            "repro.shard.exchange._flip_byte",
            lambda path, _offset: DAMAGE[kind](path),
        )
        events = []
        reader, attempt = fetch_run_remote(
            server.addr, run_file, tmp_path / "fetched.run",
            corrupt_attempts=(0,), events=events, scope="(0, 1)",
        )
        assert attempt == 1
        _assert_intact(reader, run_file)
        assert [e[1] for e in events] == ["refetched"]

    def test_persistent_corruption_exhausts_the_budget(
        self, server, run_file, tmp_path
    ):
        with pytest.raises(RetryExhausted) as exc:
            fetch_run_remote(
                server.addr, run_file, tmp_path / "fetched.run",
                corrupt_attempts=(0, 1, 2), max_retries=2,
            )
        assert exc.value.site == "net.frame.corrupt"
        assert exc.value.attempts == 3
        assert not (tmp_path / "fetched.run").exists()

    def test_deadline_surfaces_as_peer_unreachable(
        self, server, run_file, tmp_path
    ):
        with pytest.raises(PeerUnreachable) as exc:
            fetch_run_remote(
                server.addr, run_file, tmp_path / "fetched.run",
                deadline_s=-1.0,
            )
        assert exc.value.peer == server.addr

    def test_missing_run_is_refused(self, server, run_file, tmp_path):
        with pytest.raises(RetryExhausted, match="failed"):
            fetch_run_remote(
                server.addr, run_file.parent / "part-9999.run",
                tmp_path / "fetched.run", max_retries=0, deadline_s=5.0,
            )


class TestServeFetchSession:
    def test_path_escape_is_refused(self, server, run_file, tmp_path):
        outside = tmp_path / "secret.txt"
        outside.write_text("not exported")
        conn = _FetchConn(server.addr, timeout_s=5.0)
        try:
            with pytest.raises(NetError, match="refused"):
                conn.stat(str(outside))
        finally:
            conn.close()

    def test_read_is_clamped_to_chunk_bytes(self, server, run_file):
        conn = _FetchConn(server.addr, timeout_s=5.0)
        try:
            data = conn.read_range(str(run_file), 0, CHUNK_BYTES * 64)
            assert len(data) <= CHUNK_BYTES
        finally:
            conn.close()

    def test_unknown_op_is_an_error_not_a_hang(self, server, run_file):
        from repro.service.protocol import recv_frame, send_frame

        conn = _FetchConn(server.addr, timeout_s=5.0)
        try:
            send_frame(conn.sock, {"op": "delete", "path": str(run_file)})
            reply = recv_frame(conn.sock, timeout_s=5.0)
            assert reply["ok"] is False
            assert "unknown op" in reply["error"]
        finally:
            conn.close()
