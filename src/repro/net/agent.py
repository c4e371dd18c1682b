"""The ``supmr agent`` daemon: shard workers hosted on a remote peer.

One agent process serves one listen port with two connection types,
distinguished by the first (JSON) frame:

* ``{"type": "hello", "owner": token}`` — the coordinator's **control
  session** (a hello without an owner is refused).  Subsequent frames
  are pickled command dicts (spawn a shard worker, relay a map/reduce
  command down its pipe, kill, ping); the agent streams back
  rseq-stamped ``("res", rseq, payload)`` frames whose payloads are
  the workers' pickled result blobs — heartbeats,
  ``map_done`` wave stats, fault event rows — plus small control dicts
  (``pong``, ``worker-exit``), so the coordinator's lease/respawn/
  speculation machinery sees exactly what a local fork would have sent.
* ``{"type": "fetch"}`` — a **fetch session** exporting the agent's
  exchange workdir (:func:`repro.net.exchange.serve_fetch_session`),
  which is how reducers on other hosts pull this host's map outboxes.

Robustness contract: delivery is at-least-once with dedup in **both**
directions — commands carry a monotonically increasing ``seq`` and are
deduplicated here, result frames carry ``rseq`` and are kept until the
coordinator acks them (piggybacked on pings), resent across reconnects,
and deduplicated there; a lost control connection starts a
**grace timer** — workers survive a reconnect inside it, and are killed
(no orphans) once it expires or the agent exits.  Forked workers (a
:class:`~repro.resilience.supervisor.LocalHandle` each, with its own
pipe) also watch the agent's pid and die with it, so even ``SIGKILL``
of the agent leaks nothing.  One pump thread is the only reader of
those pipes: it relays each blob, and a pipe that ends is its worker's
exit report.

The seeded ``net.host.loss`` and ``net.partition`` sites are commanded
*into* the agent by the coordinator (``die`` / ``mute``) — the same
decided-at-the-coordinator pattern every shard-level fault site uses —
so a fault run replays identically wherever the workers land.
"""

from __future__ import annotations

import argparse
import os
import pickle
import shutil
import signal
import socket
import tempfile
import threading
import time
from collections import deque
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import Any

from repro.errors import ProtocolError, ReproError
from repro.faults.log import ACTION_REAPED, FaultLog
from repro.faults.plan import SITE_NET_AGENT_REAP
from repro.net.exchange import serve_fetch_session
from repro.net.jobs import chunks_from_wire, job_from_wire, options_from_wire
from repro.net.peers import format_addr, split_addr
from repro.parallel.shard_worker import MSG_MAP, MSG_REDUCE, shard_worker_main
from repro.resilience.supervisor import LocalHandle, die
from repro.service.protocol import recv_frame, send_frame
from repro.util.atomic import publish
from repro.util.logging import get_logger

logger = get_logger(__name__)

#: Seconds a *started* frame may stall before the session is dropped.
FRAME_STALL_S = 30.0
#: Default orphan-cleanup grace after losing the control connection.
DEFAULT_GRACE_S = 10.0


def _watch_parent(parent_pid: int) -> None:
    """Die with the agent: a re-parented worker is an orphan, not work."""
    while os.getppid() == parent_pid:
        time.sleep(0.2)
    die()


def _worker_shell(parent_pid: int, *args: Any) -> None:
    """Worker entrypoint: the shard worker body plus a parent watchdog.

    The watchdog is what makes ``SIGKILL`` of the agent equivalent to
    losing the whole host — every worker notices the re-parenting and
    exits, so the soak's no-orphan check holds even for the
    ungraceful death paths.
    """
    threading.Thread(
        target=_watch_parent, args=(parent_pid,), daemon=True
    ).start()
    shard_worker_main(*args)


class AgentServer:
    """One listening agent: control session + fetch exports + workers."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workdir: "str | Path | None" = None,
        grace_s: float = DEFAULT_GRACE_S,
        accept_control: bool = True,
    ) -> None:
        self.listener = socket.create_server((host, port))
        self.listener.settimeout(0.2)
        self.host = host
        self.port = self.listener.getsockname()[1]
        self.addr = format_addr(host, self.port)
        self.grace_s = grace_s
        self.accept_control = accept_control
        self._owns_workdir = workdir is None
        self.workdir = Path(
            workdir or tempfile.mkdtemp(prefix="repro-agent-")
        )
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._send_lock = threading.Lock()
        #: At-least-once outbound delivery.  Every frame to the
        #: coordinator is stamped with ``rseq`` and kept here until the
        #: coordinator acks it (piggybacked on pings) — a torn
        #: connection, or an RST that destroys frames already handed to
        #: the kernel, just means the unacked tail is resent on the next
        #: reconnect and deduplicated at the far end.  Losing a
        #: ``map_done`` silently would stall its shard for a full lease.
        self._unsent: deque = deque()
        self._rseq = 0
        self._sent_upto = -1
        #: Ownership epoch: bumped (under the send lock) on takeover so
        #: a result blob pumped out of a worker just before the switch
        #: can never be posted to the new owner.
        self._epoch = 0
        self.workers: dict[tuple[int, int], LocalHandle] = {}
        self._ctl: "socket.socket | None" = None
        #: Current control-session owner token (None until the first
        #: coordinator attaches).
        self._owner: "str | None" = None
        self._last_seq = -1
        self._mute_until = 0.0
        self._die_after: "int | None" = None
        self._relays = 0
        #: Post-mortem surface: the grace reaper logs every orphan kill
        #: here (site ``net.agent.reap``), and the counters separate
        #: grace-expiry reaps from commanded kills — both are exposed
        #: through the ``ping`` session for health probes and tests.
        self.fault_log = FaultLog(clock=time.monotonic)
        self.counters: dict[str, int] = {
            "agent_reaped": 0, "agent_killed": 0,
        }
        if accept_control:
            # A fetch-only instance (the coordinator's own run exporter)
            # never forks workers, so it skips the worker plumbing.
            threading.Thread(target=self._pump, daemon=True).start()

    # -- accept loop ---------------------------------------------------------

    def start(self) -> "AgentServer":
        """Serve in a background thread (tests, embedded fetch server)."""
        threading.Thread(target=self.serve_forever, daemon=True).start()
        return self

    def serve_forever(self) -> None:
        """Accept connections until :meth:`close`."""
        while not self._stop.is_set():
            try:
                conn, _peer = self.listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            threading.Thread(
                target=self._session, args=(conn,), daemon=True
            ).start()

    def _session(self, conn: socket.socket) -> None:
        try:
            hello = recv_frame(conn, timeout_s=FRAME_STALL_S)
        except (EOFError, ProtocolError, OSError):
            conn.close()
            return
        kind = hello.get("type") if isinstance(hello, dict) else None
        if kind == "fetch":
            try:
                serve_fetch_session(conn, self.workdir, FRAME_STALL_S)
            finally:
                conn.close()
        elif kind == "hello" and self.accept_control and hello.get("owner"):
            self._control_session(conn, str(hello["owner"]))
        elif kind == "ping":
            self._ping_session(conn)
        else:
            conn.close()

    def _ping_session(self, conn: socket.socket) -> None:
        """One-shot health probe: answer and close.

        Deliberately *not* a control session — a ``hello`` would steal
        the coordinator's control socket mid-job (the agent keeps
        exactly one), so the registry's probes use this side door.
        During an injected partition the probe is swallowed like all
        other traffic: the prober sees the silence a real partition
        would produce.
        """
        try:
            if time.monotonic() < self._mute_until:
                return
            with self._lock:
                workers = len(self.workers)
            send_frame(conn, {
                "type": "pong",
                "addr": self.addr,
                "workers": workers,
                "counters": dict(self.counters),
                "reap_rows": self.fault_log.count(action=ACTION_REAPED),
            })
        except (OSError, ProtocolError):
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    # -- control session -----------------------------------------------------

    def _control_session(self, conn: socket.socket, owner: str) -> None:
        if owner != self._owner:
            # A *different* coordinator is taking the agent over (a new
            # job, or a relaunched attempt of the same one).  Workers
            # and queued results belong to the previous owner: handing
            # either to the newcomer would silently splice one job's
            # exchange data into another's digest.  Kill the leftovers
            # (audited as reaps), drop the unacked tail, and reset the
            # inbound dedup watermark — the new owner's seq starts at 0.
            # The same owner reconnecting keeps its session: tail resent.
            self._takeover(owner)
        with self._send_lock:
            old, self._ctl = self._ctl, conn
            # A reconnect re-delivers the whole unacked tail: frames the
            # torn connection ate, and frames that *did* arrive but were
            # not acked yet (the coordinator deduplicates by rseq).
            self._sent_upto = (
                self._unsent[0][0] - 1 if self._unsent else self._rseq - 1
            )
            self._flush_locked()
        if old is not None:
            try:
                old.close()
            except OSError:
                pass
        logger.debug("agent %s: coordinator attached", self.addr)
        try:
            while not self._stop.is_set():
                try:
                    frame = recv_frame(
                        conn, timeout_s=FRAME_STALL_S, idle_ok=True
                    )
                except (EOFError, ProtocolError, OSError):
                    break
                if not isinstance(frame, bytes):
                    continue
                try:
                    cmd = pickle.loads(frame)
                except Exception:  # noqa: BLE001 - hostile/corrupt command
                    continue
                self._handle(cmd)
        finally:
            with self._send_lock:
                if self._ctl is conn:
                    self._ctl = None
                    threading.Thread(
                        target=self._grace_reaper, daemon=True
                    ).start()
            try:
                conn.close()
            except OSError:
                pass

    def _takeover(self, owner: str) -> None:
        """Transfer control-session ownership to a new coordinator."""
        previous, self._owner = self._owner, owner
        if previous is None:
            return  # the first owner: nothing to take over
        self._kill_all(
            f"control session taken over by a new coordinator "
            f"(previous owner {previous})"
        )
        with self._send_lock:
            self._epoch += 1
            self._unsent.clear()
        self._last_seq = -1
        logger.debug(
            "agent %s: ownership transferred (%s -> %s)",
            self.addr, previous, owner,
        )

    def _grace_reaper(self) -> None:
        """Kill orphaned workers once the reconnect grace expires."""
        deadline = time.monotonic() + self.grace_s
        while time.monotonic() < deadline:
            if self._stop.is_set() or self._ctl is not None:
                return
            time.sleep(0.05)
        if self._ctl is None:
            logger.debug(
                "agent %s: no coordinator for %.3gs; reaping workers",
                self.addr, self.grace_s,
            )
            self._kill_all(
                f"grace {self.grace_s:.3g}s expired with no coordinator"
            )

    def _handle(self, cmd: dict) -> None:
        ack = cmd.get("ack")
        if ack is not None:
            with self._send_lock:
                while self._unsent and self._unsent[0][0] <= int(ack):
                    self._unsent.popleft()
        seq = int(cmd.get("seq", -1))
        if seq >= 0:
            if seq <= self._last_seq:
                return  # idempotent resend after a reconnect
            self._last_seq = seq
        if time.monotonic() < self._mute_until:
            return  # injected partition: inbound commands are "lost" too
        op = cmd.get("cmd")
        if op == "ping":
            self._post({"type": "pong", "seq": seq})
        elif op == "spawn":
            self._spawn(cmd)
        elif op == "send":
            self._relay(cmd)
        elif op == "kill":
            self._kill((int(cmd["sid"]), int(cmd["wid"])))
        elif op == "kill-all":
            self._kill_all()
        elif op == "mute":
            self._mute_until = (
                time.monotonic() + float(cmd.get("duration_s", 5.0))
            )
        elif op == "die":
            self._die_after = self._relays + int(cmd.get("after_relays", 1))

    def _spawn(self, cmd: dict) -> None:
        sid, wid = int(cmd["sid"]), int(cmd["wid"])
        try:
            job = job_from_wire(cmd["job"])
            options = options_from_wire(cmd["options"])
            chunks = chunks_from_wire(cmd["chunks"])
        except ReproError as exc:
            # Surface as the worker-error row a local fork would produce.
            self._post(pickle.dumps(
                ("error", sid, f"agent {self.addr} could not rebuild the "
                               f"job: {exc}")
            ))
            return
        handle = LocalHandle(
            _worker_shell,
            (os.getpid(), sid, job, options, chunks,
             int(cmd["num_partitions"])),
            f"repro-agent-shard-{sid}.{wid}",
        )
        with self._lock:
            self.workers[(sid, wid)] = handle

    def _relay(self, cmd: dict) -> None:
        sid, wid = int(cmd["sid"]), int(cmd["wid"])
        with self._lock:
            handle = self.workers.get((sid, wid))
        if handle is None:
            return
        msg = cmd["msg"]
        if isinstance(msg, dict):
            msg = dict(msg)
            if msg.get("kind") == MSG_MAP:
                # Paths in the command are coordinator-host paths; the
                # work happens here, so the outbox moves to the agent's
                # workdir (advertised back verbatim in ``map_done``) and
                # checkpointing — a coordinator-host directory — is off.
                msg["outbox"] = str(self.workdir / f"out-{sid}.{wid}")
                msg["ckpt"] = None
                msg["resume"] = False
            elif msg.get("kind") == MSG_REDUCE:
                msg["workdir"] = str(self.workdir / f"in-{sid}.{wid}")
                msg["self_addr"] = self.addr
        handle.send(msg)

    def _kill(self, key: tuple[int, int], reap: "str | None" = None) -> None:
        """Kill one hosted worker; ``reap`` says why, when nobody asked.

        The worker leaves the table first, so the pump never reads its
        channel again and reports no exit for it.
        """
        with self._lock:
            handle = self.workers.pop(key, None)
        if handle is None:
            return
        handle.kill()
        handle.discard()
        if reap is None:
            self.counters["agent_killed"] += 1
            return
        # A grace-expiry (or takeover) kill is an *event*, not an order:
        # nobody asked for it, so post-mortems need the audit row to
        # tell "the agent cleaned up abandoned workers" apart from "the
        # coordinator commanded a kill".
        self.counters["agent_reaped"] += 1
        self.fault_log.record(
            SITE_NET_AGENT_REAP, ACTION_REAPED,
            f"{reap}; killed worker {key[0]}.{key[1]}",
            scope=f"{key[0]}.{key[1]}",
        )

    def _kill_all(self, reap: "str | None" = None) -> None:
        with self._lock:
            keys = list(self.workers)
        for key in keys:
            self._kill(key, reap)

    # -- outbound ------------------------------------------------------------

    def _post(
        self,
        payload: "dict[str, Any] | bytes",
        epoch: "int | None" = None,
    ) -> None:
        """Queue one rseq-stamped frame for the coordinator.

        Frames stay in :attr:`_unsent` until *acked*, not merely until
        written — an injected RST can destroy frames the kernel already
        accepted, so "send succeeded" proves nothing.  During an
        injected partition frames really are lost: a partitioned host's
        traffic never arrives, late or otherwise, because the
        coordinator writes the host off and closes the link for good.
        """
        if time.monotonic() < self._mute_until:
            return
        with self._send_lock:
            if epoch is not None and epoch != self._epoch:
                return  # pumped before a takeover: the old owner's data
            self._unsent.append((self._rseq, payload))
            self._rseq += 1
            self._flush_locked()

    def _flush_locked(self) -> None:
        """Ship every not-yet-written unacked frame (lock held)."""
        for rseq, payload in list(self._unsent):
            if rseq <= self._sent_upto:
                continue
            if self._ctl is None:
                return
            try:
                send_frame(self._ctl, pickle.dumps(("res", rseq, payload)))
            except (OSError, ProtocolError):
                self._ctl = None
                threading.Thread(
                    target=self._grace_reaper, daemon=True
                ).start()
                return
            self._sent_upto = rseq

    def _pump(self) -> None:
        """Relay worker result blobs and report worker exits.

        The only reader of the hosted workers' channels.  A channel that
        ends while its worker is still in the table is that worker's
        exit: join it, then post ``worker-exit`` with its code.  Honors
        mute and commanded death.
        """
        while not self._stop.is_set():
            if time.monotonic() < self._mute_until:
                time.sleep(0.02)
                continue
            epoch = self._epoch
            with self._lock:
                workers = dict(self.workers)
            try:
                ready = mp_connection.wait(
                    [handle.conn for handle in workers.values()], timeout=0.1
                )
            except OSError:
                continue  # a channel a kill closed since the snapshot
            for (sid, wid), handle in workers.items():
                if handle.conn not in ready:
                    continue
                with self._lock:
                    if self.workers.get((sid, wid)) is not handle:
                        continue  # killed since the snapshot
                    try:
                        blob = handle.conn.recv_bytes()
                    except (EOFError, OSError):
                        blob = None
                        del self.workers[(sid, wid)]
                if blob is None:
                    handle.join(timeout=5.0)
                    handle.discard()
                    self._post({
                        "type": "worker-exit", "sid": sid, "wid": wid,
                        "exitcode": handle.proc.exitcode,
                    })
                    continue
                self._post(blob, epoch=epoch)
                self._relays += 1
                if (
                    self._die_after is not None
                    and self._relays >= self._die_after
                ):
                    # Injected net.host.loss: the whole "host" goes away
                    # mid-phase — workers die with the agent, abruptly.
                    logger.debug("agent %s: injected host loss", self.addr)
                    self._kill_all()
                    os._exit(1)

    # -- teardown ------------------------------------------------------------

    def close(self) -> None:
        """Stop accepting, kill workers, release the workdir."""
        self._stop.set()
        try:
            # Wakes a blocked accept: nothing is accepted once we return.
            self.listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.listener.close()
        if self.accept_control:
            self._kill_all()
        with self._send_lock:
            if self._ctl is not None:
                try:
                    self._ctl.close()
                except OSError:
                    pass
                self._ctl = None
        if self._owns_workdir:
            shutil.rmtree(self.workdir, ignore_errors=True)


# -- CLI entrypoint ----------------------------------------------------------


def cmd_agent(args: argparse.Namespace) -> int:
    """``supmr agent``: serve until SIGTERM/SIGINT, then clean up."""
    host, port = split_addr(args.listen, listen=True)
    server = AgentServer(
        host=host, port=port, workdir=args.workdir, grace_s=args.grace
    )
    print(f"supmr agent listening on {server.addr}", flush=True)
    if args.addr_file:
        publish(args.addr_file, server.addr + "\n")

    def _terminate(_signum: int, _frame: Any) -> None:
        server._stop.set()
        try:
            server.listener.close()
        except OSError:
            pass

    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)
    try:
        server.serve_forever()
    finally:
        server.close()
    return 0
