"""Remote run exchange: partition runs fetched over the framed wire.

On one host the reduce phase *copies* each source run out of the owning
shard's outbox and CRC-verifies the copy (:func:`repro.shard.exchange.
fetch_run`).  Across hosts the copy becomes a transfer: the reducer
opens a **fetch session** to the host holding the outbox and pulls the
run down in bounded range requests — :func:`fetch_run_remote` is that
transfer, run by the same verify-then-refetch loop.  The same integrity
discipline applies end to end —

* every frame is CRC-framed by the transport, and the assembled file is
  re-verified against the run's own checksum before adoption (a copy
  that fails is deleted and refetched, bounded by the retry budget);
* a connection that dies mid-transfer is reopened and the transfer
  **resumes from the last received byte** (range requests make the
  retry incremental, not from-scratch);
* the whole transfer runs under a wall-clock deadline, so a partitioned
  or wedged peer surfaces as a typed error instead of a hang.

The seeded sites ``net.frame.corrupt`` (damage the received bytes, so
verification must catch it) and ``net.conn.drop`` (sever mid-transfer,
so resume must cover it) are decided by the coordinator per
``(partition, source)`` and arrive pre-rolled in the reduce command,
exactly like the local exchange's ``shard.exchange_corrupt`` schedule.
"""

from __future__ import annotations

import socket
import time
from pathlib import Path
from typing import Any, Sequence

from repro.errors import NetError, PeerUnreachable, ProtocolError
from repro.faults.log import ACTION_RETRIED
from repro.faults.plan import SITE_NET_CONN_DROP, SITE_NET_FRAME_CORRUPT
from repro.net import wire
from repro.service.protocol import recv_frame, send_frame
from repro.shard.exchange import EventRow, fetch_run
from repro.spill.runfile import RunReader

#: Range-request size.  One run travels as ``ceil(size / CHUNK_BYTES)``
#: data frames; small enough to keep resume granularity useful, large
#: enough that the header overhead is noise.
CHUNK_BYTES = 256 * 1024

#: Default whole-transfer deadline when the caller supplies none.
DEFAULT_DEADLINE_S = 30.0


# -- server side (shared by the agent and the coordinator) -------------------


def serve_fetch_session(
    sock: socket.socket, base_dir: Path, stall_timeout_s: float = 30.0
) -> None:
    """Answer one fetch connection's requests until it closes.

    Requests are JSON frames: ``{"op": "stat", "path"}`` answers the
    file size; ``{"op": "read", "path", "offset", "length"}`` answers
    one ``KIND_BYTES`` frame of at most ``length`` bytes from
    ``offset`` (empty at EOF).  Paths must resolve inside ``base_dir``
    — a fetch server only ever exports its own exchange workdir.
    """
    base = base_dir.resolve()
    while True:
        try:
            req = recv_frame(sock, timeout_s=stall_timeout_s, idle_ok=True)
        except (EOFError, ProtocolError, OSError):
            return
        if not isinstance(req, dict):
            send_frame(sock, {"ok": False, "error": "expected a JSON request"})
            continue
        try:
            path = _exported_path(base, str(req.get("path", "")))
            if req.get("op") == "stat":
                send_frame(sock, {"ok": True, "size": path.stat().st_size})
            elif req.get("op") == "read":
                offset = int(req.get("offset", 0))
                length = min(int(req.get("length", 0)), CHUNK_BYTES)
                with open(path, "rb") as f:
                    f.seek(offset)
                    data = f.read(max(0, length))
                send_frame(sock, data)
            else:
                send_frame(
                    sock, {"ok": False, "error": f"unknown op {req.get('op')!r}"}
                )
        except OSError as exc:
            try:
                send_frame(sock, {"ok": False, "error": str(exc)})
            except OSError:
                return


def _exported_path(base: Path, raw: str) -> Path:
    """Resolve one requested path, refusing escapes from the export root."""
    path = Path(raw).resolve()
    if base != path and base not in path.parents:
        raise FileNotFoundError(f"{raw!r} is outside the exported directory")
    return path


# -- client side --------------------------------------------------------------


class _FetchConn:
    """One open fetch session to a peer's run exporter."""

    def __init__(self, addr: str, timeout_s: float) -> None:
        self.addr = addr
        self.sock = wire.connect(addr, timeout_s=timeout_s)
        send_frame(self.sock, {"type": "fetch"})

    def stat(self, path: str) -> int:
        send_frame(self.sock, {"op": "stat", "path": path})
        return int(_ok(self.recv(), self.addr, path)["size"])

    def read_range(self, path: str, offset: int, length: int) -> bytes:
        send_frame(
            self.sock,
            {"op": "read", "path": path, "offset": offset, "length": length},
        )
        reply = self.recv()
        if isinstance(reply, dict):
            _ok(reply, self.addr, path)
            raise NetError(f"{self.addr}: expected a data frame for {path}")
        return reply

    def recv(self) -> "dict[str, Any] | bytes":
        return recv_frame(self.sock, timeout_s=10.0, idle_ok=False)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - already dead
            pass


def _ok(reply: "dict[str, Any] | bytes", addr: str, path: str) -> dict:
    if isinstance(reply, dict) and not reply.get("ok", True):
        raise NetError(f"{addr}: fetch of {path} refused: {reply.get('error')}")
    return reply if isinstance(reply, dict) else {}


def fetch_run_remote(
    addr: str,
    src: "str | Path",
    dst: Path,
    corrupt_attempts: Sequence[int] = (),
    drop_attempts: Sequence[int] = (),
    max_retries: int = 3,
    deadline_s: float = DEFAULT_DEADLINE_S,
    events: "list[EventRow] | None" = None,
    scope: str = "",
) -> tuple[RunReader, int]:
    """Fetch one exchange run from ``addr`` and verify it before adoption.

    :func:`repro.shard.exchange.fetch_run` with the copy swapped for a
    wire transfer: same verify-then-refetch loop, same retry bound, same
    return shape — but the bytes arrive over the framed transport,
    severed connections resume from the received offset, a transfer
    that fails outright costs one attempt (``net.conn.drop``), and the
    whole call is bounded by ``deadline_s`` (exceeding it raises
    :class:`~repro.errors.PeerUnreachable`, never a hang).
    """
    deadline = time.monotonic() + deadline_s

    def transfer(attempt: int) -> "Exception | None":
        try:
            _download(
                addr, str(src), dst,
                drop=attempt in drop_attempts,
                deadline=deadline, events=events, scope=scope,
                attempt=attempt,
            )
        except PeerUnreachable:
            raise
        except (OSError, EOFError, ProtocolError, NetError) as exc:
            if events is not None and attempt < max_retries:
                events.append((
                    SITE_NET_CONN_DROP, ACTION_RETRIED,
                    f"transfer attempt {attempt + 1} from {addr} failed "
                    f"({exc}); refetching", scope, attempt,
                ))
            return exc
        return None

    return fetch_run(
        src, dst, corrupt_attempts, max_retries, events, scope,
        transfer=transfer, site=SITE_NET_FRAME_CORRUPT,
    )


def _download(
    addr: str,
    path: str,
    dst: Path,
    drop: bool,
    deadline: float,
    events: "list[EventRow] | None",
    scope: str,
    attempt: int,
) -> None:
    """One full transfer attempt, resuming across severed connections."""
    conn = _open(addr, deadline, path)
    try:
        size = conn.stat(path)
        step = CHUNK_BYTES
        if drop and size > 1:
            # Guarantee the injected sever lands mid-transfer even for
            # runs smaller than one range, so resume is always exercised.
            step = min(step, max(1, (size + 1) // 2))
        offset = 0
        dropped = False
        with open(dst, "wb") as out:
            while offset < size:
                _check_deadline(addr, path, deadline)
                try:
                    data = conn.read_range(
                        path, offset, min(step, size - offset)
                    )
                except (OSError, EOFError, ProtocolError) as exc:
                    _note_resume(events, scope, attempt, addr, offset, exc)
                    conn.close()
                    conn = _open(addr, deadline, path)
                    continue
                if not data:
                    raise NetError(
                        f"{addr}: {path} shrank mid-transfer "
                        f"(EOF at {offset}/{size})"
                    )
                out.write(data)
                offset += len(data)
                if drop and not dropped and offset < size:
                    dropped = True
                    _note_resume(
                        events, scope, attempt, addr, offset,
                        f"injected {SITE_NET_CONN_DROP}",
                    )
                    conn.close()
                    conn = _open(addr, deadline, path)
    finally:
        conn.close()


def _open(addr: str, deadline: float, path: str) -> _FetchConn:
    _check_deadline(addr, path, deadline)
    remaining = deadline - time.monotonic()
    return _FetchConn(addr, timeout_s=max(0.05, min(10.0, remaining)))


def _check_deadline(addr: str, path: str, deadline: float) -> None:
    if time.monotonic() >= deadline:
        raise PeerUnreachable(
            f"transfer deadline exceeded fetching {path} from {addr}",
            peer=addr,
        )


def _note_resume(
    events: "list[EventRow] | None",
    scope: str,
    attempt: int,
    addr: str,
    offset: int,
    cause: Any,
) -> None:
    if events is not None:
        events.append((
            SITE_NET_CONN_DROP, ACTION_RETRIED,
            f"connection to {addr} dropped at byte {offset} ({cause}); "
            "resuming from the received offset", scope, attempt,
        ))
