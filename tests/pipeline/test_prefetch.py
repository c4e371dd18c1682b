"""Multi-reader prefetch pipeline: same answers, bounded lookahead."""

from __future__ import annotations

import threading
import time

import pytest

from repro.chunking.chunk import Chunk, ChunkSource
from repro.errors import DeadlineExceeded, RuntimeStateError
from repro.pipeline.prefetch import PrefetchPipeline


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
        pipeline = PrefetchPipeline(
            load=lambda c: c.load(), work=lambda c, d: None, readers=2
        )
        records = pipeline.run(chunks)
        assert len(records) == 4  # n + 1 for n = 3

    def test_round_structure_matches_double_buffer(self, tmp_path):
        chunks = make_chunks(tmp_path, [b"a", b"b"])
        pipeline = PrefetchPipeline(lambda c: c.load(), lambda c, d: None,
                                    readers=2)
        r0, r1, r2 = pipeline.run(chunks)
        assert (r0.index, r0.map_s, r0.chunk_bytes) == (0, 0.0, 1)
        assert (r1.index, r1.chunk_bytes) == (1, 1)
        assert (r2.index, r2.ingest_s, r2.chunk_bytes) == (2, 0.0, 0)

    def test_work_sees_chunks_in_order_with_right_data(self, tmp_path):
        chunks = make_chunks(tmp_path, [b"aaa", b"bb", b"c", b"dd", b"eee"])
        seen = []
        PrefetchPipeline(
            lambda c: c.load(), lambda c, d: seen.append((c.index, bytes(d))),
            readers=4,
        ).run(chunks)
        assert seen == [
            (0, b"aaa"), (1, b"bb"), (2, b"c"), (3, b"dd"), (4, b"eee")
        ]

    def test_order_survives_adversarial_load_latencies(self, tmp_path):
        # Early chunks load slowest: completion order inverts index order,
        # but consumption order must not.
        chunks = make_chunks(tmp_path, [b"a", b"b", b"c", b"d"])
        delays = {0: 0.08, 1: 0.04, 2: 0.02, 3: 0.0}
        seen = []

        def load(chunk):
            time.sleep(delays[chunk.index])
            return chunk.load()

        PrefetchPipeline(
            load, lambda c, d: seen.append(c.index), readers=4
        ).run(chunks)
        assert seen == [0, 1, 2, 3]

    def test_single_chunk_degenerates(self, tmp_path):
        chunks = make_chunks(tmp_path, [b"only"])
        seen = []
        records = PrefetchPipeline(
            lambda c: c.load(), lambda c, d: seen.append(bytes(d)), readers=3
        ).run(chunks)
        assert seen == [b"only"]
        assert len(records) == 2

    def test_empty_chunk_list_raises(self):
        pipeline = PrefetchPipeline(lambda c: b"", lambda c, d: None)
        with pytest.raises(RuntimeStateError):
            pipeline.run([])

    def test_zero_readers_rejected(self):
        with pytest.raises(RuntimeStateError):
            PrefetchPipeline(lambda c: b"", lambda c, d: None, readers=0)


class TestWindow:
    def test_lookahead_bounded_by_depth(self, tmp_path):
        # With work blocked, readers may hold at most `depth` chunks
        # (loaded or loading) — the memory cap of the prefetch window.
        chunks = make_chunks(tmp_path, [b"x"] * 8)
        depth = 2
        started = []
        lock = threading.Lock()
        release = threading.Event()

        def load(chunk):
            with lock:
                started.append(chunk.index)
            return chunk.load()

        def work(chunk, data):
            if chunk.index == 0:
                release.wait(5.0)

        done = []

        def run():
            PrefetchPipeline(load, work, readers=4, depth=depth).run(chunks)
            done.append(True)

        thread = threading.Thread(target=run)
        thread.start()
        time.sleep(0.3)  # readers race ahead as far as the window allows
        with lock:
            ahead = len(started)
        release.set()
        thread.join(10.0)
        assert done, "pipeline did not finish"
        # Chunk 0 was consumed (its permit returned) before work blocked,
        # so the readers can hold depth + 1 claims at that instant.
        assert ahead <= depth + 1, (
            f"readers loaded {ahead} chunks ahead with depth={depth}"
        )

    @pytest.mark.parametrize("kw, bound", [
        ({"pipelined": False}, 2),
        ({}, 2),  # the default: the paper's double buffer
        ({"readers": 1, "depth": 2}, 3),
        ({"readers": 3}, 5),
        ({"readers": 4, "depth": 1}, 2),
    ])
    def test_live_chunk_buffers_bounded_by_depth_plus_one(
        self, tmp_path, kw, bound
    ):
        # A chunk's buffer is live from the moment its load starts until
        # its map wave returns: depth of them loading or loaded, plus the
        # one being mapped.  This bound is the job's ingest memory.
        chunks = make_chunks(tmp_path, [b"x"] * 10)
        lock = threading.Lock()
        live, peak = set(), [0]

        def load(chunk):
            with lock:
                live.add(chunk.index)
                peak[0] = max(peak[0], len(live))
            time.sleep(0.001)
            return chunk.load()

        def work(chunk, data):
            time.sleep(0.004)  # slower than load: the readers run ahead
            with lock:
                live.discard(chunk.index)

        PrefetchPipeline(load, work, **kw).run(chunks)
        assert not live
        assert peak[0] <= bound
        if kw.get("pipelined", True):
            assert peak[0] == bound, "the window never filled; vacuous"

    def test_no_threads_leak_after_success(self, tmp_path):
        chunks = make_chunks(tmp_path, [b"a", b"b", b"c"])
        PrefetchPipeline(lambda c: c.load(), lambda c, d: None,
                         readers=3).run(chunks)
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
            load, lambda c, d: consumed.append(c.index), readers=4
        )
        with pytest.raises(OSError, match="disk on fire"):
            pipeline.run(chunks)
        # Chunks before the failed one were still mapped, later ones not.
        assert consumed == [0, 1]
        assert no_prefetch_threads()

    def test_work_error_stops_and_joins_readers(self, tmp_path):
        chunks = make_chunks(tmp_path, [b"a"] * 6)

        def work(chunk, data):
            if chunk.index == 1:
                raise DeadlineExceeded("budget spent")

        pipeline = PrefetchPipeline(lambda c: c.load(), work, readers=3)
        with pytest.raises(DeadlineExceeded):
            pipeline.run(chunks)
        assert no_prefetch_threads()
