"""Prefetch pipeline: one reader, one chunk ahead, same answers.

Every cross-thread step is an ``Event`` handshake, so no test sleeps
and none depends on how fast the box is.
"""

from __future__ import annotations

import threading

import pytest

from repro.chunking.chunk import Chunk, ChunkSource
from repro.errors import DeadlineExceeded, RuntimeStateError
from repro.pipeline.prefetch import PrefetchPipeline

#: Bound on one handshake; a test that waits this long has failed.
WAIT_S = 10.0


def make_chunks(tmp_path, contents):
    chunks = []
    for i, blob in enumerate(contents):
        path = tmp_path / f"c{i}"
        path.write_bytes(blob)
        chunks.append(Chunk(i, (ChunkSource(path, 0, len(blob)),)))
    return chunks


def no_prefetch_threads():
    return not [
        t for t in threading.enumerate() if t.name.startswith("prefetch-")
    ]


class TestSchedule:
    def test_rounds_are_n_plus_one(self, tmp_path):
        chunks = make_chunks(tmp_path, [b"a", b"b", b"c"])
        records = PrefetchPipeline(
            load=lambda c: c.load(), work=lambda c, d: None
        ).run(chunks)
        assert [r.index for r in records] == [0, 1, 2, 3]  # n + 1, in order

    def test_round_structure_matches_double_buffer(self, tmp_path):
        chunks = make_chunks(tmp_path, [b"a", b"b"])
        pipeline = PrefetchPipeline(lambda c: c.load(), lambda c, d: None)
        r0, r1, r2 = pipeline.run(chunks)
        assert (r0.index, r0.map_s, r0.chunk_bytes) == (0, 0.0, 1)
        assert (r1.index, r1.chunk_bytes) == (1, 1)
        assert (r2.index, r2.ingest_s, r2.chunk_bytes) == (2, 0.0, 0)

    def test_work_sees_chunks_in_order_with_right_data(self, tmp_path):
        chunks = make_chunks(tmp_path, [b"aaa", b"bb", b"c", b"dd", b"eee"])
        seen = []
        PrefetchPipeline(
            lambda c: c.load(), lambda c, d: seen.append((c.index, bytes(d)))
        ).run(chunks)
        assert seen == [
            (0, b"aaa"), (1, b"bb"), (2, b"c"), (3, b"dd"), (4, b"eee")
        ]

    def test_single_chunk_degenerates(self, tmp_path):
        chunks = make_chunks(tmp_path, [b"only"])
        seen, loaders = [], []

        def load(chunk):
            loaders.append(threading.current_thread())
            return chunk.load()

        records = PrefetchPipeline(
            load, lambda c, d: seen.append(bytes(d))
        ).run(chunks)
        assert seen == [b"only"]
        assert len(records) == 2
        assert loaders == [threading.current_thread()]  # no reader started

    def test_empty_chunk_list_raises(self):
        pipeline = PrefetchPipeline(lambda c: b"", lambda c, d: None)
        with pytest.raises(RuntimeStateError):
            pipeline.run([])


class TestWindow:
    def test_lookahead_bounded_by_depth(self, tmp_path):
        # The window is one chunk: chunk k starts loading only once the
        # mapper has taken chunk k-1, i.e. once chunk k-2 is mapped.
        # Each map waits for the next chunk's load to start, so the
        # reader provably runs ahead — by one chunk and no more.
        chunks = make_chunks(tmp_path, [b"x"] * 6)
        lock = threading.Lock()
        mapped, too_early = [], []
        started = [threading.Event() for _ in chunks]

        def load(chunk):
            with lock:
                if chunk.index > len(mapped) + 1:
                    too_early.append((chunk.index, list(mapped)))
            started[chunk.index].set()
            return chunk.load()

        def work(chunk, data):
            if chunk.index + 1 < len(chunks):
                assert started[chunk.index + 1].wait(WAIT_S), (
                    f"chunk {chunk.index + 1} did not load during the map "
                    f"of chunk {chunk.index}"
                )
            with lock:
                mapped.append(chunk.index)

        PrefetchPipeline(load, work).run(chunks)
        assert mapped == list(range(len(chunks)))
        assert too_early == []

    @pytest.mark.parametrize("kw, bound", [
        ({"pipelined": False}, 2),
        ({}, 2),  # the default: the paper's double buffer
    ])
    def test_live_chunk_buffers_bounded_by_depth_plus_one(
        self, tmp_path, kw, bound
    ):
        # A chunk's buffer is live from the moment its load starts until
        # its map wave returns: the one-chunk window loading or loaded,
        # plus the one being mapped.  This bound is the job's ingest
        # memory.
        chunks = make_chunks(tmp_path, [b"x"] * 10)
        pipelined = kw.get("pipelined", True)
        lock = threading.Lock()
        live, peak = set(), [0]
        started = [threading.Event() for _ in chunks]

        def load(chunk):
            with lock:
                live.add(chunk.index)
                peak[0] = max(peak[0], len(live))
            started[chunk.index].set()
            return chunk.load()

        def work(chunk, data):
            if pipelined and chunk.index + 1 < len(chunks):
                # hold the map until the reader has run ahead
                assert started[chunk.index + 1].wait(WAIT_S)
            with lock:
                live.discard(chunk.index)

        PrefetchPipeline(load, work, **kw).run(chunks)
        assert not live
        assert peak[0] <= bound
        if pipelined:
            assert peak[0] == bound, "the window never filled; vacuous"

    def test_no_threads_leak_after_success(self, tmp_path):
        chunks = make_chunks(tmp_path, [b"a", b"b", b"c"])
        PrefetchPipeline(lambda c: c.load(), lambda c, d: None).run(chunks)
        assert no_prefetch_threads()


class TestErrors:
    def test_load_error_surfaces_at_owning_round(self, tmp_path):
        chunks = make_chunks(tmp_path, [b"a", b"b", b"c", b"d"])
        consumed = []

        def load(chunk):
            if chunk.index == 2:
                raise OSError("disk on fire")
            return chunk.load()

        pipeline = PrefetchPipeline(
            load, lambda c, d: consumed.append(c.index)
        )
        with pytest.raises(OSError, match="disk on fire"):
            pipeline.run(chunks)
        # Chunks before the failed one were still mapped, later ones not.
        assert consumed == [0, 1]
        assert no_prefetch_threads()

    def test_work_error_stops_and_joins_readers(self, tmp_path):
        # The deadline expires in the map of chunk 1 while the reader is
        # inside the load of chunk 2: the run joins the reader, which
        # finishes that load and starts no other — a reader running more
        # than one chunk ahead would have been asked for chunk 3 by now.
        chunks = make_chunks(tmp_path, [b"a"] * 6)
        loads = []
        loading, release = threading.Event(), threading.Event()

        def load(chunk):
            loads.append(chunk.index)
            if chunk.index == 2:
                loading.set()
                release.wait(WAIT_S)
            return chunk.load()

        def work(chunk, data):
            if chunk.index == 1:
                assert loading.wait(WAIT_S)
                release.set()
                raise DeadlineExceeded("budget spent")

        pipeline = PrefetchPipeline(load, work)
        with pytest.raises(DeadlineExceeded):
            pipeline.run(chunks)
        assert loads == [0, 1, 2]
        assert no_prefetch_threads()
