"""Deadline-bounded framed transport with seeded fault injection.

Thin wrappers over :mod:`repro.service.protocol`'s encode/decode core —
the net layer and the job service speak byte-identical frames — adding
the two things a multi-host coordinator needs:

* **per-call deadlines** — every connect, send, and recv is bounded, so
  a partitioned peer can never hang a caller (the coordinator's only
  unbounded waits are its own leases);
* **seeded wire faults** — ``net.conn.drop`` (the socket dies before
  the frame is written) and ``net.partial.write`` (half a frame is
  written, then the socket dies) fire deterministically from the armed
  :class:`~repro.faults.injector.FaultInjector`, exercising the exact
  failure surfaces real networks produce.

Reconnecting after either is the caller's, on :mod:`repro.util.retry`.
"""

from __future__ import annotations

import socket
from typing import Any

from repro.faults.plan import SITE_NET_CONN_DROP, SITE_NET_PARTIAL_WRITE
from repro.net.peers import split_addr
from repro.service.protocol import encode_frame

#: Default per-call deadline when options carry none.
DEFAULT_TIMEOUT_S = 10.0


def connect(addr: str, timeout_s: float = DEFAULT_TIMEOUT_S) -> socket.socket:
    """One TCP connection to ``host:port``; raw ``OSError`` on failure."""
    host, port = split_addr(addr)
    sock = socket.create_connection((host, port), timeout=timeout_s)
    sock.settimeout(timeout_s)
    # Shard traffic is bursty command/result frames; never batch them.
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def send_frame_faulted(
    sock: socket.socket,
    payload: "dict[str, Any] | bytes",
    injector: Any = None,
    scope: tuple = (),
) -> None:
    """Send one frame, subject to the seeded wire-fault sites.

    ``net.conn.drop`` severs the socket *before* any byte is written
    (the peer sees a clean close); ``net.partial.write`` writes half
    the frame and then severs (the peer sees a torn frame).  Both
    surface to the caller as ``ConnectionResetError`` so the retry
    path is identical to a genuine network flap.
    """
    data = encode_frame(payload)
    if injector is not None:
        if injector.check(SITE_NET_CONN_DROP, scope=scope) is not None:
            _sever(sock)
            raise ConnectionResetError(
                f"injected {SITE_NET_CONN_DROP} at {scope!r}"
            )
        if injector.check(SITE_NET_PARTIAL_WRITE, scope=scope) is not None:
            try:
                sock.sendall(data[: max(1, len(data) // 2)])
            except OSError:
                pass
            _sever(sock)
            raise ConnectionResetError(
                f"injected {SITE_NET_PARTIAL_WRITE} at {scope!r}"
            )
    sock.sendall(data)


def _sever(sock: socket.socket) -> None:
    """Hard-close one socket (RST where the platform allows it)."""
    try:
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER,
            b"\x01\x00\x00\x00\x00\x00\x00\x00",
        )
    except OSError:  # pragma: no cover - platform-specific
        pass
    try:
        sock.close()
    except OSError:  # pragma: no cover - already dead
        pass
