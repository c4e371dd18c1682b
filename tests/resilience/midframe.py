"""Kill a forked worker halfway through a frame, on every run, no sleeps.

A process forked inside :func:`large_writes_paused` writes the first
bytes of any frame of :data:`BIG` bytes or more, reports its pid on a
pipe, and only then writes the rest.  The rest blocks: the frame is
many times the channel's buffer and nobody reads it yet.
:func:`kill_mid_frame` reads that pid and ``SIGKILL``s the worker, so
it dies with part of a frame readable in its channel.
"""

from __future__ import annotations

import os
import select
import signal
import struct
from contextlib import contextmanager
from multiprocessing.connection import Connection
from typing import Iterator

#: Many times a default pipe (64 KiB) or socket (208 KiB) buffer.
BIG = 4 * 1024 * 1024
#: How long a test waits for a worker to report or a frame to arrive.
BOUND_S = 10.0
#: What a paused writer sends before it reports.
_HEAD = 4096


@contextmanager
def large_writes_paused(report_w: int) -> Iterator[None]:
    """Processes forked in this block pause large frames mid-write."""
    send = Connection._send

    def paused(self, buf, *args):
        if len(buf) >= BIG:
            send(self, buf[:_HEAD], *args)
            os.write(report_w, struct.pack("=i", os.getpid()))
            buf = buf[_HEAD:]
        send(self, buf, *args)

    Connection._send = paused
    try:
        yield
    finally:
        Connection._send = send


def kill_mid_frame(report_r: int) -> int:
    """SIGKILL the worker that reported itself mid-frame; its pid."""
    assert select.select([report_r], [], [], BOUND_S)[0], (
        "no worker started a large frame"
    )
    (pid,) = struct.unpack("=i", os.read(report_r, 4))
    os.kill(pid, signal.SIGKILL)
    return pid
