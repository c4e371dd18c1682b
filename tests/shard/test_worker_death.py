"""A shard worker killed mid-frame leaves the other workers' channels usable.

Every shard worker of a job has its own pipe to the coordinator.  A
worker ``SIGKILL``ed halfway through a frame leaves part of that frame
in its own pipe, and nothing in anyone else's: the survivor's reply
must still reach the coordinator.  Were the replies one shared queue,
the kill would strand its write lock and the coordinator's half-read
frame, and no survivor would be heard again.  No sleeps: the dying
worker reports itself once its frame is partly written and the rest is
blocked on the full pipe.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.apps.wordcount import make_wordcount_job
from repro.chunking.planner import plan_chunks
from repro.core.options import RuntimeOptions
from repro.parallel.backends import fork_available
from repro.shard import core
from repro.shard.coordinator import _Coordinator
from repro.shard.plan import ShardPlan
from tests.resilience.midframe import (
    BIG,
    BOUND_S,
    kill_mid_frame,
    large_writes_paused,
)

needs_fork = pytest.mark.skipif(not fork_available(), reason="needs os.fork")


@needs_fork
def test_a_commanded_death_does_not_wedge_the_other_workers(text_file, tmp_path):
    job = make_wordcount_job([text_file])
    options = RuntimeOptions.supmr_interfile("32KB", 2, 4).with_(num_shards=2)
    plan = ShardPlan(
        plan_chunks(job.inputs, job.codec, options), 2, options.num_reducers
    )
    coordinator = _Coordinator(job, options, plan, tmp_path, injector=None)
    report_r, report_w = os.pipe()
    heard: list[tuple] = []
    stop = threading.Event()

    def collect_until_the_survivor_speaks() -> None:
        while not heard and not stop.is_set():
            msg = coordinator._collect()
            if msg is not None and msg[1] == 1:
                heard.append(msg)

    reader = threading.Thread(target=collect_until_the_survivor_speaks)
    reader.daemon = True
    try:
        with large_writes_paused(report_w):
            dying = coordinator._spawn(0, False, False)
        survivor = coordinator._spawn(1, False, False)
        for worker in (dying, survivor):
            core.seat(coordinator.shards[worker.sid], worker, coordinator.clock())
        # An unknown command comes back as an error row that names it.
        dying.handle.send({"kind": "x" * BIG})
        kill_mid_frame(report_r)
        survivor.handle.send({"kind": "survivor"})
        reader.start()
        reader.join(BOUND_S)
        assert heard, (
            "the survivor's frame never arrived: the killed worker wedged "
            "the coordinator's read"
        )
        kind, _, detail = heard[0]
        assert kind == "error" and "'survivor'" in detail
    finally:
        stop.set()
        coordinator.shutdown()
        os.close(report_r)
        os.close(report_w)
