"""The coordinator's side of one agent connection.

:class:`AgentLink` owns the control connection to one ``supmr agent``:
it relays spawn/command/kill traffic out (seq-stamped, retried over a
fresh socket with jittered backoff when a frame is dropped or torn),
and writes the agent's worker result blobs into one pipe that the
coordinator reads like a local worker's channel — so the
lease/respawn/speculation machinery in :mod:`repro.shard.coordinator`
is *unchanged* whether a worker blob crossed a process boundary or a
host boundary.

Liveness is active, not assumed: a pinger thread expects pong traffic
within ``net_timeout_s``; silence past it (an injected or genuine
partition) marks the link **unusable** and closes it, at which point a
partitioned peer is indistinguishable from a dead one — the coordinator
respawns its shards locally and any late traffic from the old peer is
discarded with the socket.  Every wait on this path is bounded; the
link can never hang the coordinator.

:class:`RemoteHandle` is the per-worker facade over a link, exposing
the same surface as :class:`~repro.resilience.supervisor.LocalHandle`,
the handle of every forked worker on this host.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
import time
import uuid
from typing import Any

from repro.errors import ProtocolError
from repro.net import wire
from repro.service.protocol import recv_frame, send_frame
from repro.util.backoff import exponential_jitter
from repro.util.logging import get_logger

logger = get_logger(__name__)


class AgentLink:
    """One control connection to a remote agent, with liveness tracking."""

    def __init__(
        self,
        addr: str,
        index: int = 0,
        net_timeout_s: float = 10.0,
        retries: int = 3,
    ) -> None:
        self.addr = addr
        self.index = index
        self.net_timeout_s = net_timeout_s
        self.retries = retries
        #: Control-session ownership token.  Stable across *this* link's
        #: reconnects (so the agent's resend-tail protocol still serves
        #: a mere network blip) but unique per coordinator incarnation —
        #: the agent kills workers left by a previous owner on attach
        #: instead of handing their results to the wrong job.
        self.owner = uuid.uuid4().hex
        #: Worker exits reported by the agent: ``(sid, wid) -> exitcode``.
        self.exited: dict[tuple[int, int], "int | None"] = {}
        self._seq = 0
        self._dead = False
        self._closing = False
        self._dead_reason = ""
        #: Worker result blobs: the reader thread writes ``_sink``, the
        #: coordinator reads ``conn``.
        self.conn, self._sink = multiprocessing.Pipe(duplex=False)
        self._injector: Any = None
        self._send_lock = threading.RLock()
        self._last_heard = time.monotonic()
        #: Highest agent result-frame rseq seen: the at-least-once
        #: resend protocol's dedup watermark, echoed back as ``ack``.
        self._last_rseq = -1
        self._threads: list[threading.Thread] = []
        # Startup connect is the one failure that is *not* degraded
        # around: an unreachable peer on the command line is a usage
        # error (exit 2), surfaced by PeerUnreachable from with_retries.
        self._sock = wire.with_retries(
            lambda _attempt: self._dial(),
            retries=retries, seed=index,
            label=f"connect to agent {addr}", peer=addr,
        )

    def _dial(self):
        sock = wire.connect(self.addr, timeout_s=self.net_timeout_s)
        try:
            send_frame(sock, {"type": "hello", "owner": self.owner})
        except OSError:
            sock.close()
            raise
        return sock

    # -- lifecycle -----------------------------------------------------------

    def attach(self, injector: Any = None) -> None:
        """Start relaying: worker blobs go to :attr:`conn`, faults arm sends."""
        self._injector = injector
        for target in (self._read_loop, self._ping_loop):
            t = threading.Thread(target=target, daemon=True)
            t.start()
            self._threads.append(t)

    @property
    def usable(self) -> bool:
        """Whether the coordinator may still place or command work here."""
        return not self._dead and not self._closing

    def close(self) -> None:
        """Best-effort worker cleanup, then sever the connection.

        The blob pipe closes after the reader thread is joined (a reader
        still blocked on a full pipe gets ``EPIPE`` and returns).
        """
        if self._closing:
            return
        if not self._dead:
            self.send({"cmd": "kill-all"})
        self._closing = True
        self._drop_socket()
        for t in self._threads:
            t.join(timeout=1.0)
        self.conn.close()
        self._sink.close()

    def _drop_socket(self) -> None:
        with self._send_lock:
            sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def _mark_dead(self, reason: str) -> None:
        if self._dead:
            return
        self._dead = True
        self._dead_reason = reason
        logger.warning("agent %s marked unreachable: %s", self.addr, reason)
        self._drop_socket()

    # -- outbound ------------------------------------------------------------

    def send(self, cmd: "dict[str, Any]") -> bool:
        """Ship one seq-stamped command, reconnecting across failures.

        Transient damage (reset, torn frame, injected ``net.conn.drop``
        or ``net.partial.write``) is retried over a fresh connection
        under jittered backoff; the agent deduplicates by ``seq``, so a
        resend of a frame that did arrive is a no-op.  Exhaustion marks
        the link unusable and returns ``False`` — callers never see an
        exception, the coordinator's sweep sees a dead worker instead.
        """
        with self._send_lock:
            if self._dead or self._closing:
                return False
            cmd = dict(cmd)
            cmd["seq"] = self._seq
            self._seq += 1
            payload = pickle.dumps(cmd)
            for attempt in range(self.retries + 1):
                if attempt:
                    time.sleep(exponential_jitter(
                        attempt - 1, base=0.02, cap=0.2,
                        seed=self.index * 7919 + cmd["seq"],
                    ))
                sock = self._sock
                if sock is None:
                    try:
                        sock = self._dial()
                    except OSError:
                        continue
                    self._sock = sock
                try:
                    wire.send_frame_faulted(
                        sock, payload, self._injector,
                        scope=("ctl", self.index, cmd["seq"]),
                    )
                    return True
                except (OSError, ProtocolError):
                    if self._sock is sock:
                        self._sock = None
                    try:
                        sock.close()
                    except OSError:
                        pass
            self._mark_dead(
                f"{self.retries + 1} send attempt(s) failed for command "
                f"{cmd.get('cmd')!r}"
            )
            return False

    def spawn(
        self,
        sid: int,
        wid: int,
        job: dict,
        options: dict,
        chunks: list,
        num_partitions: int,
    ) -> bool:
        """Ask the agent to fork one shard worker from wire forms."""
        return self.send({
            "cmd": "spawn", "sid": sid, "wid": wid, "job": job,
            "options": options, "chunks": chunks,
            "num_partitions": num_partitions,
        })

    def inject_death(self, after_relays: int = 1) -> bool:
        """Command the seeded ``net.host.loss`` site: die mid-phase."""
        return self.send({"cmd": "die", "after_relays": after_relays})

    def inject_partition(self, duration_s: float) -> bool:
        """Command the seeded ``net.partition`` site: go silent."""
        return self.send({"cmd": "mute", "duration_s": duration_s})

    # -- inbound -------------------------------------------------------------

    def _read_loop(self) -> None:
        while not self._closing and not self._dead:
            sock = self._sock
            if sock is None:
                time.sleep(0.02)
                continue
            try:
                frame = recv_frame(sock, timeout_s=None, idle_ok=True)
            except (EOFError, ProtocolError, OSError) as exc:
                if self._closing or self._dead:
                    return
                if (
                    isinstance(exc, ProtocolError)
                    and exc.reason == "stalled"
                    and sock is self._sock
                ):
                    # The socket's own timeout elapsed between frames —
                    # an idle tick, not damage; liveness is the pinger's
                    # job.  (A rare stall *mid*-frame realigns on the
                    # next read and is then caught as bad-magic.)
                    continue
                # The send path owns reconnection; just detach the
                # broken socket so the next send (or ping) re-dials.
                with self._send_lock:
                    if self._sock is sock:
                        self._sock = None
                try:
                    sock.close()
                except OSError:
                    pass
                continue
            self._last_heard = time.monotonic()
            if not isinstance(frame, bytes):
                continue
            try:
                tag, rseq, payload = pickle.loads(frame)
            except Exception:  # noqa: BLE001 - damaged frame; resent anyway
                continue
            if tag != "res":
                continue
            if rseq <= self._last_rseq:
                continue  # resent tail after a reconnect; already seen
            self._last_rseq = rseq
            if isinstance(payload, bytes):
                try:
                    self._sink.send_bytes(payload)
                except OSError:
                    return  # closed under us: nobody reads any more
            elif payload.get("type") == "worker-exit":
                self.exited[(int(payload["sid"]), int(payload["wid"]))] = (
                    payload.get("exitcode")
                )

    def _ping_loop(self) -> None:
        interval = max(0.05, min(0.5, self.net_timeout_s / 4))
        while not self._closing and not self._dead:
            time.sleep(interval)
            if self._closing or self._dead:
                return
            if time.monotonic() - self._last_heard > self.net_timeout_s:
                self._mark_dead(
                    f"no traffic for over {self.net_timeout_s:.3g}s "
                    "(partitioned or dead)"
                )
                return
            # The piggybacked ack lets the agent trim its resend buffer.
            self.send({"cmd": "ping", "ack": self._last_rseq})


class RemoteHandle:
    """One remote shard worker, behind :class:`LocalHandle`'s interface."""

    is_remote = True
    #: Remote pids are agent-host facts; the coordinator's pid files
    #: only ever describe processes on its own host.
    pid = None

    def __init__(self, link: AgentLink, sid: int, wid: int) -> None:
        self.link = link
        self.sid = sid
        self.wid = wid
        self.name = f"repro-shard-{sid}.{wid}@{link.addr}"

    def send(self, msg: Any) -> None:
        """Relay one command dict down the worker's pipe on its host."""
        self.link.send({
            "cmd": "send", "sid": self.sid, "wid": self.wid, "msg": msg,
        })

    def alive(self) -> bool:
        """Best knowledge of liveness: link up, no exit reported."""
        return self.link.usable and (self.sid, self.wid) not in self.link.exited

    def kill(self) -> None:
        """Ask the agent to kill the worker (fire-and-forget)."""
        self.link.send({"cmd": "kill", "sid": self.sid, "wid": self.wid})

    def stop(self) -> None:
        """The graceful sentinel a local worker gets on its pipe."""
        self.send(None)

    def join(self, timeout: "float | None" = None) -> None:
        """No blocking join across hosts; exits arrive as frames."""

    def discard(self) -> None:
        """Nothing host-side to release for a remote worker."""

    def describe_exit(self) -> str:
        """Human-readable cause of death for recovery log lines."""
        if not self.link.usable:
            return f"its host {self.link.addr} became unreachable"
        code = self.link.exited.get((self.sid, self.wid))
        return f"exited with code {code}"


def ping_agent(
    addr: str, timeout_s: float = 2.0
) -> "tuple[float, dict[str, Any]]":
    """One standalone health probe of a ``supmr agent``.

    Opens a fresh connection, sends the one-frame ``ping`` session kind
    (which never touches the agent's control session — probing a busy
    agent must not steal the coordinator's socket), and measures the
    round trip.  Returns ``(latency_s, pong_payload)``; the payload
    carries the agent's hosted-worker count and its counters
    (``agent_reaped`` among them).  Raises ``OSError`` on connect/reset,
    ``socket.timeout`` on a stalled reply (a partitioned agent accepts
    the connection but never answers), and
    :class:`~repro.errors.ProtocolError` on a malformed one — the
    caller treats them all as "probe failed".
    """
    start = time.monotonic()
    sock = wire.connect(addr, timeout_s=timeout_s)
    try:
        send_frame(sock, {"type": "ping"})
        reply = recv_frame(sock, timeout_s=timeout_s)
    finally:
        try:
            sock.close()
        except OSError:
            pass
    if not isinstance(reply, dict) or reply.get("type") != "pong":
        raise ProtocolError(
            f"agent {addr} answered the ping with a non-pong frame",
            reason="bad-payload",
        )
    return time.monotonic() - start, reply
