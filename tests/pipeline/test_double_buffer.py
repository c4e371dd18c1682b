"""The paper's round schedule, in every mode of the one pipeline.

Each test runs the synchronous ablation and the default single
look-ahead (the paper's double buffer): the schedule's contract does not
depend on how the chunks were loaded.  Window and reader mechanics are
in ``test_prefetch.py``.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.chunking.chunk import Chunk, ChunkSource
from repro.errors import RuntimeStateError
from repro.pipeline.prefetch import PrefetchPipeline

#: Constructor arguments per mode.
MODES = {
    "synchronous": {"pipelined": False},
    "one reader": {},
}


def make_chunks(tmp_path, contents):
    chunks = []
    for i, blob in enumerate(contents):
        path = tmp_path / f"c{i}"
        path.write_bytes(blob)
        chunks.append(Chunk(i, (ChunkSource(path, 0, len(blob)),)))
    return chunks


def no_reader_threads():
    return not [
        t for t in threading.enumerate() if t.name.startswith("prefetch-")
    ]


class TestSchedule:
    def test_rounds_are_n_plus_one(self, tmp_path):
        chunks = make_chunks(tmp_path, [b"a", b"b", b"c"])
        for mode, kw in MODES.items():
            records = PrefetchPipeline(
                lambda c: c.load(), lambda c, d: None, **kw
            ).run(chunks)
            assert len(records) == 4, mode  # n + 1 for n = 3

    def test_round_structure(self, tmp_path):
        chunks = make_chunks(tmp_path, [b"a", b"bb"])
        for mode, kw in MODES.items():
            r0, r1, r2 = PrefetchPipeline(
                lambda c: c.load(), lambda c, d: None, **kw
            ).run(chunks)
            # serial first ingest, one overlap round, final map
            assert (r0.index, r0.map_s, r0.chunk_bytes) == (0, 0.0, 1), mode
            assert (r1.index, r1.chunk_bytes) == (1, 2), mode
            assert (r2.index, r2.ingest_s, r2.chunk_bytes) == (2, 0.0, 0), mode

    def test_work_sees_chunks_in_order_with_right_data(self, tmp_path):
        chunks = make_chunks(tmp_path, [b"aaa", b"bb", b"c"])
        for mode, kw in MODES.items():
            seen = []
            PrefetchPipeline(
                lambda c: c.load(), lambda c, d: seen.append((c.index, d)),
                **kw,
            ).run(chunks)
            assert seen == [(0, b"aaa"), (1, b"bb"), (2, b"c")], mode

    def test_single_chunk_degenerates(self, tmp_path):
        chunks = make_chunks(tmp_path, [b"only"])
        for mode, kw in MODES.items():
            seen = []
            records = PrefetchPipeline(
                lambda c: c.load(), lambda c, d: seen.append(d), **kw
            ).run(chunks)
            assert seen == [b"only"], mode
            assert len(records) == 2, mode

    def test_empty_chunk_list_raises(self):
        for kw in MODES.values():
            pipeline = PrefetchPipeline(lambda c: b"", lambda c, d: None, **kw)
            with pytest.raises(RuntimeStateError):
                pipeline.run([])

    def test_synchronous_mode_identical_results(self, tmp_path):
        chunks = make_chunks(tmp_path, [b"x", b"y", b"z"])
        for pipelined in (True, False):
            seen = []
            PrefetchPipeline(
                lambda c: c.load(), lambda c, d: seen.append((c.index, d)),
                pipelined=pipelined,
            ).run(chunks)
            assert seen == [(0, b"x"), (1, b"y"), (2, b"z")]


class TestOverlap:
    def test_ingest_runs_on_background_thread(self, tmp_path):
        chunks = make_chunks(tmp_path, [b"a", b"b"])
        loader_threads = []

        def load(chunk):
            loader_threads.append(threading.current_thread().name)
            return chunk.load()

        PrefetchPipeline(load, lambda c, d: None).run(chunks)
        assert all(name.startswith("prefetch-") for name in loader_threads)

        # the synchronous ablation (and a lone chunk, which has nothing
        # to overlap) never leaves the caller's thread
        del loader_threads[:]
        PrefetchPipeline(load, lambda c, d: None, pipelined=False).run(chunks)
        PrefetchPipeline(load, lambda c, d: None).run(chunks[:1])
        assert set(loader_threads) == {threading.current_thread().name}

    def test_overlap_saves_wall_clock(self, tmp_path):
        # load and work each sleep; pipelined total must be well under
        # the serial sum (this is Fig. 4 in miniature)
        chunks = make_chunks(tmp_path, [b"1"] * 5)
        delay = 0.02

        def slow_load(chunk):
            time.sleep(delay)
            return b""

        def slow_work(chunk, data):
            time.sleep(delay)

        walls = {}
        for mode, kw in MODES.items():
            t0 = time.perf_counter()
            PrefetchPipeline(slow_load, slow_work, **kw).run(chunks)
            walls[mode] = time.perf_counter() - t0

        assert walls["one reader"] < walls["synchronous"] * 0.8


class TestFailureHandling:
    def test_ingest_thread_error_propagates(self, tmp_path):
        chunks = make_chunks(tmp_path, [b"a", b"b", b"c"])

        def load(chunk):
            if chunk.index == 1:
                raise IOError("disk gone")
            return chunk.load()

        for mode, kw in MODES.items():
            consumed = []
            pipeline = PrefetchPipeline(
                load, lambda c, d: consumed.append(c.index), **kw
            )
            with pytest.raises(IOError, match="disk gone"):
                pipeline.run(chunks)
            # raised at the round that owns the failed chunk: the one
            # before it was still mapped, later ones were not
            assert consumed == [0], mode
            assert no_reader_threads(), mode

    def test_worker_error_propagates(self, tmp_path):
        chunks = make_chunks(tmp_path, [b"a", b"b", b"c", b"d"])

        def work(chunk, data):
            raise ValueError("map failed")

        for mode, kw in MODES.items():
            pipeline = PrefetchPipeline(lambda c: c.load(), work, **kw)
            with pytest.raises(ValueError, match="map failed"):
                pipeline.run(chunks)
            # readers are joined even when the map wave fails: an
            # abandoned one would keep a file handle and a chunk alive
            assert no_reader_threads(), mode
