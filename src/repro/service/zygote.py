"""The daemon's end of the runner zygote: spawn requests out, pids and
wait statuses back.

Shell by nature — a subprocess, a socket pair, signals — and the only
part of the daemon that touches any of them for a runner.  The daemon
(:mod:`repro.service.server`) execs one :class:`Zygote`
(:mod:`repro.service.runner`: a fresh interpreter that has imported
everything a job touches) and each attempt is a ``fork`` of it, so an
attempt costs its job, not an interpreter start.  The zygote forks,
sweeps the ended runner's process group, reaps it and reports pid, wait
status and rusage (a :class:`Runner`); the daemon signals runners by the
reported pid, which is also their process group
(:func:`signal_runner_tree`).
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import socket
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable

from repro.errors import ProtocolError
from repro.service import protocol

#: How long a drain waits for the zygote to exit on its own after the
#: control socket closed, before killing it.
ZYGOTE_EXIT_GRACE_S = 5.0


def signal_runner_tree(pid: int, sig: int = signal.SIGKILL) -> None:
    """Deliver ``sig`` to a runner's whole process tree.

    Runners are session leaders, so their process group holds every
    pool and shard worker they forked.  Killing only the runner pid leaves
    those workers alive as orphans that keep writing the attempt's
    checkpoint journal, spill runs, and exchange outboxes — and a
    relaunched attempt resuming from that journal then races a concurrent
    writer, which can silently corrupt the resumed container state (the
    digest diverges from the one-shot run).  The group kill closes that
    window; the direct pid kill keeps pre-session-leader runner pids
    (stale ``runner.pid`` files from an older daemon) covered.
    """
    with contextlib.suppress(OSError):
        os.killpg(pid, sig)
    with contextlib.suppress(OSError):
        os.kill(pid, sig)


class ZygoteLost(Exception):
    """The zygote died (or hung up) with a fork request outstanding."""


class Runner:
    """One forked runner as the daemon sees it: the awaitable stand-in
    for ``asyncio.subprocess.Process`` that ``_run_job`` drives."""

    def __init__(self, pid: int) -> None:
        self.pid = pid
        #: ``os.waitstatus_to_exitcode`` of the wait status; None while live.
        self.returncode: int | None = None
        #: The attempt's rusage as the zygote's ``wait4`` reported it
        #: (None when the zygote died before the runner did).
        self.cpu_s: float | None = None
        self.max_rss_mb: float | None = None
        self._ended = asyncio.Event()

    def _end(self, returncode: int) -> None:
        self.returncode = returncode
        self._ended.set()

    async def wait(self) -> int:
        """The exit code (negative signal number for a signal death)."""
        await self._ended.wait()
        return self.returncode


class Zygote:
    """The daemon's end of one runner zygote (:mod:`repro.service.runner`).

    Construction execs the zygote and returns at once; requests written
    while it is still importing wait in the control socket.  The socket
    is the liveness signal both ways: the zygote treats EOF as "the
    daemon is gone" (kills its runners, exits), and ``_read_replies``
    treats EOF as "the zygote is gone" — it SIGKILLs the groups of the
    runners in flight, ends them as signal deaths so the daemon
    requeues them, and tells the service through ``on_lost``.
    """

    def __init__(
        self, state_dir: Path, on_lost: "Callable[[Zygote], None]"
    ) -> None:
        ours, theirs = socket.socketpair()
        try:
            # A fresh interpreter in its own session: nothing of the
            # event loop is inherited, and a terminal's ^C reaches the
            # daemon (which drains) but not the zygote.
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.service.runner", str(state_dir)],
                stdin=theirs, start_new_session=True,
            )
        except BaseException:
            ours.close()
            raise
        finally:
            theirs.close()
        self._on_lost = on_lost
        #: True once the zygote has answered anything, i.e. it booted.
        self.served = False
        self._forking: dict[str, asyncio.Future] = {}
        self._live: dict[str, Runner] = {}
        self._closing = False
        self._streams = asyncio.ensure_future(
            asyncio.open_connection(sock=ours)
        )
        self._replies = asyncio.ensure_future(self._read_replies())

    async def spawn(self, request: dict[str, Any]) -> Runner:
        """Fork one runner over ``request["job_id"]``'s directory; the
        rest of ``request`` is the attempt's parameters, which the
        forked runner reads (:func:`repro.service.runner.run_job_dir`).

        Raises ``OSError`` when the fork itself failed and
        :class:`ZygoteLost` when the zygote died before answering.
        """
        _, writer = await self._streams
        if self._replies.done():
            raise ZygoteLost()
        answer = asyncio.get_running_loop().create_future()
        self._forking[request["job_id"]] = answer
        try:
            await protocol.write_frame(writer, request)
        except ConnectionError:
            pass  # the reply loop sees the same hang-up and fails ``answer``
        return await answer

    async def _read_replies(self) -> None:
        reader, writer = await self._streams
        try:
            while True:
                msg = await protocol.read_frame(reader)
                self.served = True
                job_id = msg["job_id"]
                if "status" in msg:
                    runner = self._live.pop(job_id)
                    runner.cpu_s = msg["cpu_s"]
                    runner.max_rss_mb = msg["max_rss_mb"]
                    runner._end(os.waitstatus_to_exitcode(msg["status"]))
                elif "pid" in msg:
                    runner = self._live[job_id] = Runner(msg["pid"])
                    self._forking.pop(job_id).set_result(runner)
                else:
                    self._forking.pop(job_id).set_exception(
                        OSError(msg["error"])
                    )
        except (EOFError, ProtocolError, OSError, KeyError):
            pass  # hung up, or answered something we never asked
        writer.close()
        # The conversation is over (a cancellation does not get here: the
        # loop is being torn down, and the socket closing with it tells
        # the zygote).  This zygote reaps nothing more for us, so its
        # runners die with it.
        for answer in self._forking.values():
            answer.set_exception(ZygoteLost())
        self._forking.clear()
        for runner in self._live.values():
            signal_runner_tree(runner.pid, signal.SIGKILL)
            runner._end(-signal.SIGKILL)
        self._live.clear()
        if not self._closing:
            self._on_lost(self)

    async def close(self) -> None:
        """Hang up — the zygote kills whatever it still has and exits —
        and reap it, so it is gone before the daemon is."""
        self._closing = True
        _, writer = await self._streams
        writer.close()
        await asyncio.wait([self._replies])
        await asyncio.get_running_loop().run_in_executor(
            None, self.reap, ZYGOTE_EXIT_GRACE_S
        )

    def reap(self, grace_s: float = 0.0) -> None:
        """Wait for the zygote process (blocking), killing it if it is
        still there after ``grace_s``."""
        try:
            self.proc.wait(grace_s)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

