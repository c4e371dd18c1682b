"""How many times a record crosses the process boundary: once.

Under the ``process`` backend a map worker ships its combined delta to
the parent; reduce and merge then run where the partitions already are.
The transport is the only door between the processes, so a transport
that adds up what is packed through it — in whichever process packs —
pins that: result frames carry about one input's worth of bytes for
sort (every record is a map output) and a fraction for word count
(combined in the worker), and the parent never packs a partition-sized
task frame.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.apps.sortapp import make_sort_job
from repro.apps.wordcount import make_wordcount_job
from repro.core import execution
from repro.core.options import RuntimeOptions
from repro.core.supmr import SupMRRuntime
from repro.parallel.backends import fork_available
from repro.xfer.transport import DEFAULT_INLINE_MAX, PipeTransport

pytestmark = pytest.mark.skipif(not fork_available(), reason="needs os.fork")


class CountingTransport(PipeTransport):
    """A pipe transport whose tallies are shared with forked workers."""

    def __init__(self) -> None:
        ctx = multiprocessing.get_context("fork")
        self.result_bytes = ctx.Value("q", 0)
        self.large_task_frames = ctx.Value("q", 0)

    def pack(self, payload, *, keep=False):
        frame = super().pack(payload, keep=keep)
        size = len(frame[1])
        if not keep:
            with self.result_bytes.get_lock():
                self.result_bytes.value += size
        elif size > DEFAULT_INLINE_MAX:
            with self.large_task_frames.get_lock():
                self.large_task_frames.value += 1
        return frame


def _run_counted(monkeypatch, job, chunk_bytes, mappers):
    transport = CountingTransport()
    monkeypatch.setattr(execution, "make_transport", lambda kind: transport)
    options = RuntimeOptions.supmr_interfile(
        chunk_bytes, num_mappers=mappers, num_reducers=3
    ).with_(executor_backend="process")
    result = SupMRRuntime(options).run(job)
    reference = SupMRRuntime(options.with_(executor_backend="serial")).run(job)
    assert result.output == reference.output
    assert result.counters["map_tasks"] > mappers, "not a multi-round job"
    return transport


def test_sort_records_cross_once(monkeypatch, terasort_file):
    size = terasort_file.stat().st_size
    transport = _run_counted(
        monkeypatch, make_sort_job([terasort_file]), size // 3, mappers=4
    )
    assert 0.8 * size <= transport.result_bytes.value <= 1.2 * size
    assert transport.large_task_frames.value == 0


def test_wordcount_crosses_combined(monkeypatch, text_file):
    # Two splits per round: a split must be large next to the corpus's
    # 500-word vocabulary for the in-worker combine to shrink it.
    size = text_file.stat().st_size
    transport = _run_counted(
        monkeypatch, make_wordcount_job([text_file]), size // 2, mappers=2
    )
    assert 0 < transport.result_bytes.value <= 0.2 * size
    assert transport.large_task_frames.value == 0
