"""The ingest/compute pipeline (paper section III.B, Fig. 4).

The schedule is the paper's pseudo-code::

    partition input into ingest chunks
    ingest 1st chunk
    for each ingest chunk do
        create thread to ingest next chunk
        run mappers on previous chunk
        destroy thread
    end
    run mappers on last chunk

giving ``n + 1`` rounds for ``n`` chunks: a serial first ingest, ``n-1``
overlapped rounds, and a final unoverlapped map.  File reads release the
GIL, so the overlap is genuine even under CPython.

:class:`PrefetchPipeline` is the one implementation: one reader thread
for the whole run, asked for chunk ``i+1`` only once the mapper has
taken chunk ``i`` — the paper's double buffer, so at most two chunk
buffers are live (one being mapped, one in flight).
``pipelined=False`` runs the same rounds with no reader thread at all
(identical results; the overlap ablation).

Chunk ``i`` is always mapped before chunk ``i+1``, so container
absorption order and output digests are byte-identical in both modes,
and the QoS token bucket is charged inside each ``load`` exactly once
per chunk.

A load error (or an injector giving up) is re-raised at the round that
*consumes* the failed chunk; any error — including a mid-wave
``DeadlineExceeded`` — stops and joins the reader before propagating,
so no thread or open file handle outlives the run.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.chunking.chunk import Chunk
from repro.errors import RuntimeStateError
from repro.util.logging import get_logger

logger = get_logger(__name__)

LoadFn = Callable[[Chunk], Any]
WorkFn = Callable[[Chunk, Any], None]


@dataclass(frozen=True)
class RoundTiming:
    """One pipeline round: the ingest and map work that overlapped.

    ``ingest_s`` is the load time of chunk ``index`` and ``map_s`` the
    map time of the previous chunk; the final round (``index == n``)
    ingests nothing.
    """

    index: int
    ingest_s: float
    map_s: float
    chunk_bytes: int

    @property
    def span_s(self) -> float:
        """Wall-clock of the round (the slower of the two overlapped legs)."""
        return max(self.ingest_s, self.map_s)


class PrefetchPipeline:
    """Drives chunks through load/work with one chunk of look-ahead."""

    def __init__(self, load: LoadFn, work: WorkFn, pipelined: bool = True) -> None:
        self._load = load
        self._work = work
        self.pipelined = pipelined

    def run(self, chunks: Sequence[Chunk]) -> list[RoundTiming]:
        """Drive all chunks; returns one record per round (n+1 total)."""
        if not chunks:
            raise RuntimeStateError("pipeline needs at least one chunk")
        n = len(chunks)

        def timed_load(i: int) -> tuple:
            """("ok", data, elapsed) or ("error", exc, elapsed)."""
            t0 = time.perf_counter()
            try:
                return ("ok", self._load(chunks[i]), time.perf_counter() - t0)
            except BaseException as exc:  # noqa: BLE001 - re-raised by owner
                return ("error", exc, time.perf_counter() - t0)

        requests: queue.SimpleQueue = queue.SimpleQueue()
        loaded: queue.SimpleQueue = queue.SimpleQueue()

        def serve() -> None:
            for i in iter(requests.get, None):
                loaded.put(timed_load(i))

        # A lone chunk has nothing to overlap, so no reader starts.
        reader = None
        if self.pipelined and n > 1:
            reader = threading.Thread(target=serve, daemon=True, name="prefetch-reader")
            reader.start()
            requests.put(0)

        def take(i: int) -> tuple[Any, float]:
            """Chunk ``i``'s data and load time; the reader moves on to
            chunk ``i+1`` only now, while the mapper works on ``i``."""
            kind, value, elapsed = loaded.get() if reader else timed_load(i)
            if kind == "error":
                raise value
            if reader and i + 1 < n:
                requests.put(i + 1)
            return value, elapsed

        records: list[RoundTiming] = []
        try:
            # Round 0: nothing to overlap the first chunk with.
            current, ingest_s = take(0)
            records.append(RoundTiming(0, ingest_s, 0.0, chunks[0].length))

            for i in range(1, n):
                t0 = time.perf_counter()
                self._work(chunks[i - 1], current)
                map_s = time.perf_counter() - t0
                current, ingest_s = take(i)
                logger.debug(
                    "round %d: ingest=%.4fs map=%.4fs chunk=%dB",
                    i, ingest_s, map_s, chunks[i].length,
                )
                records.append(
                    RoundTiming(i, ingest_s, map_s, chunks[i].length)
                )

            # Final round: map the last chunk with nothing left to ingest.
            t0 = time.perf_counter()
            self._work(chunks[-1], current)
            records.append(RoundTiming(n, 0.0, time.perf_counter() - t0, 0))
            return records
        finally:
            # Reached on success and on any error (including a mid-wave
            # DeadlineExceeded): the reader finishes the load it is in,
            # if any, and exits.
            if reader is not None:
                requests.put(None)
                reader.join()
