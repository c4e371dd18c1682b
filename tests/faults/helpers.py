"""Shared fixtures for fault-injection tests.

These started life inside ``tests/test_failure_injection.py``; they are
used both by the legacy failure tests and by the ``tests/faults``
package, so they live here once.
"""

from __future__ import annotations

import threading
from pathlib import Path

from repro.containers import HashContainer, SumCombiner
from repro.core.job import JobSpec
from repro.io.records import TextCodec


def failing_map_after(n_calls: int):
    """A map_fn that succeeds ``n_calls`` times and then explodes."""
    counter = {"calls": 0}
    lock = threading.Lock()

    def map_fn(ctx):
        with lock:
            counter["calls"] += 1
            if counter["calls"] > n_calls:
                raise RuntimeError("injected map failure")
        for word in ctx.data.split():
            ctx.emit(word, 1)

    return map_fn


def failing_job(path: Path, map_fn) -> JobSpec:
    """A wordcount-shaped job over ``path`` using the given ``map_fn``."""
    return JobSpec(
        name="failing", inputs=(path,), map_fn=map_fn,
        container_factory=lambda: HashContainer(SumCombiner()),
        codec=TextCodec(),
    )


def ingest_threads() -> set[str]:
    """Names of currently-alive ingest pipeline threads."""
    return {
        t.name for t in threading.enumerate()
        if t.name.startswith("prefetch-reader")
    }
