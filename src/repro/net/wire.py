"""Deadline-bounded framed transport with seeded fault injection.

Thin wrappers over :mod:`repro.service.protocol`'s encode/decode core —
the net layer and the job service speak byte-identical frames — adding
the three things a multi-host coordinator needs:

* **per-call deadlines** — every connect, send, and recv is bounded, so
  a partitioned peer can never hang a caller (the coordinator's only
  unbounded waits are its own leases);
* **seeded wire faults** — ``net.conn.drop`` (the socket dies before
  the frame is written) and ``net.partial.write`` (half a frame is
  written, then the socket dies) fire deterministically from the armed
  :class:`~repro.faults.injector.FaultInjector`, exercising the exact
  failure surfaces real networks produce;
* **jittered bounded retries** — :func:`with_retries` runs any network
  call through :func:`repro.util.backoff.exponential_jitter`, raising
  :class:`~repro.errors.PeerUnreachable` only on exhaustion.
"""

from __future__ import annotations

import socket
import time
from typing import Any, Callable, TypeVar

from repro.errors import PeerUnreachable, ProtocolError
from repro.faults.plan import SITE_NET_CONN_DROP, SITE_NET_PARTIAL_WRITE
from repro.net.peers import split_addr
from repro.service.protocol import encode_frame
from repro.util.backoff import exponential_jitter

T = TypeVar("T")

#: Default per-call deadline when options carry none.
DEFAULT_TIMEOUT_S = 10.0
#: First retry delay for reconnect loops (grows exponentially, capped).
RETRY_BASE_S = 0.05

#: ProtocolError reasons that mean "the connection was damaged in
#: transit" — retryable over a fresh socket, unlike structural garbage
#: (bad magic, version skew) which would be garbage again.
TRANSIENT_REASONS = ("truncated", "stalled", "bad-crc")


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


def with_retries(
    fn: "Callable[[int], T]",
    retries: int = 3,
    seed: int = 0,
    label: str = "",
    peer: str = "",
    base_s: float = RETRY_BASE_S,
    sleep: "Callable[[float], None]" = time.sleep,
) -> T:
    """Run ``fn(attempt)`` with jittered backoff over transient failures.

    Retryable: any ``OSError`` (connect refused, reset, timeout), a
    clean ``EOFError`` mid-exchange, and transport damage
    (``truncated`` / ``stalled`` / ``bad-crc`` frames).  Exhaustion
    raises :class:`~repro.errors.PeerUnreachable` chained to the last
    underlying failure.
    """
    last: Exception | None = None
    for attempt in range(retries + 1):
        if attempt:
            sleep(exponential_jitter(
                attempt - 1, base=base_s, cap=base_s * 8, seed=seed,
            ))
        try:
            return fn(attempt)
        except (EOFError, OSError) as exc:
            last = exc
        except ProtocolError as exc:
            if exc.reason not in TRANSIENT_REASONS:
                raise
            last = exc
    raise PeerUnreachable(
        f"{label or 'network call'}: {retries + 1} attempt(s) failed; "
        f"last error: {last}", peer=peer,
    ) from last
