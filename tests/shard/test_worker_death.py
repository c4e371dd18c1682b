"""A commanded shard death leaves the shared results queue usable.

Every shard worker of a job posts to one ``multiprocessing`` queue, and
a worker's feeder thread holds the queue's cross-process write lock for
as long as a frame is in flight.  A commanded death (``MODE_LOSS``) that
exits while its feeder is mid-write would keep that lock forever: every
other worker would then block in ``put`` until its lease expired.
``_die`` is the one way such a death exits.  No sleeps: the frame is
larger than the pipe's buffer and nothing reads it until the dying
worker has committed to exiting, so the feeder is blocked holding the
lock at that moment on every run.
"""

from __future__ import annotations

import multiprocessing
import os
from multiprocessing.connection import wait

import pytest

from repro.parallel.backends import fork_available
from repro.parallel.shard_worker import SHARD_CRASH_EXIT, _die

needs_fork = pytest.mark.skipif(not fork_available(), reason="needs os.fork")

#: Four pipe buffers' worth (64 KiB each on Linux): the feeder blocks
#: mid-frame, holding the write lock, until somebody reads.
_BIG = 4 * 65536

#: How long the survivor's frame may take to arrive.
_BOUND_S = 30.0


def _die_mid_write(results, dying_w: int) -> None:
    """Post a frame that cannot fit in the pipe, then take the commanded
    death while the feeder is stuck inside it."""
    results.put(b"x" * _BIG)
    # Bytes in the pipe mean the feeder has taken the write lock and is
    # now blocked on the rest of the frame.
    results._reader.poll(None)
    flush = results.join_thread

    def join_thread() -> None:
        # The exit is due: tell the parent it may start reading.
        os.write(dying_w, b"!")
        flush()

    results.join_thread = join_thread
    _die(results)


def _put(results, blob: bytes) -> None:
    results.put(blob)


def _drain(results) -> None:
    """Exit 0 once the big frame and then the survivor's have arrived."""
    first, second = results.get(), results.get()
    os._exit(0 if (len(first), second) == (_BIG, b"survivor") else 1)


@needs_fork
def test_a_commanded_death_does_not_wedge_the_other_workers():
    ctx = multiprocessing.get_context("fork")
    results = ctx.Queue()
    dying_r, dying_w = os.pipe()
    dying = ctx.Process(
        target=_die_mid_write, args=(results, dying_w),
        name="repro-shard-dying",
    )
    survivor = ctx.Process(
        target=_put, args=(results, b"survivor"), name="repro-shard-survivor"
    )
    reader = ctx.Process(target=_drain, args=(results,), name="repro-shard-reader")
    procs = (dying, survivor, reader)
    try:
        dying.start()
        # Nothing reads until the death is under way: the worker has
        # either exited already (os._exit straight away) or is flushing.
        wait([dying.sentinel, dying_r])
        survivor.start()
        reader.start()
        reader.join(_BOUND_S)
        assert reader.exitcode == 0, (
            "the survivor's frame never arrived: the dead worker kept the "
            "results queue's write lock"
        )
        for proc in (dying, survivor):
            proc.join(_BOUND_S)
        assert dying.exitcode == SHARD_CRASH_EXIT
        assert survivor.exitcode == 0
    finally:
        for proc in procs:
            if proc.pid is not None and proc.exitcode is None:
                proc.kill()
                proc.join()
        os.close(dying_r)
        os.close(dying_w)
        results.close()
