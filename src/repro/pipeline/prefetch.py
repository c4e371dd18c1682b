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

:class:`PrefetchPipeline` is the one implementation.  ``readers``
threads pull chunk indices from a shared cursor and load concurrently
into a bounded window of ``depth`` chunks — a permit is taken before a
load starts and returned when the mapper takes the chunk, so at most
``depth + 1`` chunk buffers are live (``depth`` loading or loaded, one
being mapped).  One reader with ``depth=1`` is the paper's double
buffer: one chunk being mapped, one in flight.  More readers help once
mapper waves get short (persistent pool, shm transport) and a single
reader stops keeping up.  ``pipelined=False`` runs the same rounds with
no reader thread at all (identical results; the overlap ablation).

The *consumption* order never changes — chunk ``i`` is always mapped
before chunk ``i+1`` — so container absorption order and output digests
are byte-identical in every mode, and the QoS token bucket is charged
inside each ``load`` exactly once per chunk (readers contend on the
bucket's lock, never double-charge).

A load error (or an injector giving up) is re-raised at the round that
*consumes* the failed chunk; any error — including a mid-wave
``DeadlineExceeded`` — stops and joins every reader before propagating,
so no thread or open file handle outlives the run.
"""

from __future__ import annotations

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
    """Drives chunks through load/work with bounded reader lookahead."""

    def __init__(
        self,
        load: LoadFn,
        work: WorkFn,
        readers: int = 1,
        depth: "int | None" = None,
        pipelined: bool = True,
    ) -> None:
        if readers < 1:
            raise RuntimeStateError("prefetch pipeline needs >= 1 reader")
        self._load = load
        self._work = work
        self.readers = readers
        if depth is None:
            depth = 1 if readers == 1 else readers + 1
        self.depth = max(depth, 1)
        self.pipelined = pipelined

    def run(self, chunks: Sequence[Chunk]) -> list[RoundTiming]:
        """Drive all chunks; returns one record per round (n+1 total)."""
        if not chunks:
            raise RuntimeStateError("pipeline needs at least one chunk")
        n = len(chunks)
        #: index -> ("ok", data, elapsed) | ("error", exc, elapsed)
        results: dict[int, tuple] = {}
        ready = threading.Condition()
        cursor = [0]
        window = threading.Semaphore(self.depth)
        stop = threading.Event()

        def timed_load(i: int) -> tuple:
            t0 = time.perf_counter()
            try:
                return ("ok", self._load(chunks[i]), time.perf_counter() - t0)
            except BaseException as exc:  # noqa: BLE001 - re-raised by owner
                return ("error", exc, time.perf_counter() - t0)

        def reader() -> None:
            while True:
                window.acquire()
                if stop.is_set():
                    return
                with ready:
                    i = cursor[0]
                    if i >= n:
                        return
                    cursor[0] = i + 1
                entry = timed_load(i)
                with ready:
                    results[i] = entry
                    ready.notify_all()

        # A lone chunk has nothing to overlap, so no reader starts.
        n_readers = min(self.readers, n) if self.pipelined and n > 1 else 0
        threads = [
            threading.Thread(target=reader, daemon=True, name=f"prefetch-{r}")
            for r in range(n_readers)
        ]

        def take(i: int) -> tuple[Any, float]:
            """Chunk ``i``'s data and load time; frees its window slot."""
            if not threads:
                kind, value, elapsed = timed_load(i)
            else:
                with ready:
                    while i not in results:
                        ready.wait()
                    kind, value, elapsed = results.pop(i)
                window.release()
            if kind == "error":
                raise value
            return value, elapsed

        records: list[RoundTiming] = []
        try:
            for thread in threads:
                thread.start()

            # Round 0: nothing to overlap the first chunk with (though
            # the readers are already loading chunks 1.. behind it).
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
            # DeadlineExceeded): wake every reader — whether blocked on
            # the window or mid-load — and join them all.
            stop.set()
            for _ in threads:
                window.release()
            for thread in threads:
                thread.join()
