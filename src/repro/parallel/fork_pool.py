"""Fork-based task fan-out: real multicore without a picklable API.

The Phoenix++-style job contract is built on closures (``make_sort_job``
and friends capture their codec in ``map_fn``), so a conventional
``ProcessPoolExecutor`` — which pickles the callable — cannot run it.
:func:`fork_map` sidesteps pickling entirely: the workers are **forked
at call time**, so the function, the job, and any input buffers are
inherited copy-on-write; only *results* cross a pipe back to the
parent.  That is the zero-copy half of the process backend's bargain —
input bytes never serialize, and map results are compact in-worker
combined container deltas rather than raw emits.

Work is assigned by stride (worker ``w`` takes items ``w, w+W, ...``),
results are reordered by item index in the parent, and the first failing
item's exception is re-raised after all results arrive — the same
"first future wins" semantics as the thread backend's wave loop.

Results cross back through a :mod:`repro.xfer` transport: the default
pipe transport is the original synchronous-pickle-over-the-queue path;
handing in a shared-memory transport moves large payloads out of the
pipe entirely.  The parent never polls — it blocks in
``multiprocessing.connection.wait`` on the result pipe *and* every
worker sentinel, so a result wakes it instantly and so does a death.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_mod
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Iterable, Sequence, TypeVar

from repro.errors import ParallelError
from repro.parallel.backends import require_process_backend
from repro.xfer.transport import PipeTransport, ShmTransport

T = TypeVar("T")
R = TypeVar("R")

#: How long the silent result pipe is given to flush buffered frames
#: after every worker has exited, before declaring the wave crashed.
_DRAIN_GRACE_S = 0.2


def _run_assigned(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    worker: int,
    stride: int,
    results: Any,
    transport: "PipeTransport | ShmTransport",
) -> None:
    """Worker body: compute this worker's strided share of ``items``.

    Every outcome — value or exception — is posted as ``(index, ok,
    payload)``.  The payload is packed *here*, synchronously, because
    ``Queue.put`` pickles in a feeder thread where failures cannot be
    caught — anything unpicklable is downgraded to a
    :class:`~repro.errors.ParallelError` carrying its ``repr`` so the
    parent still learns what happened.
    """
    for idx in range(worker, len(items), stride):
        try:
            payload = (idx, True, fn(items[idx]))
        except BaseException as exc:  # noqa: BLE001 - transported to parent
            payload = (idx, False, exc)
        try:
            frame = transport.pack(payload)
        except Exception:  # noqa: BLE001 - unpicklable result or error
            kind = "result" if payload[1] else "error"
            frame = transport.pack((
                idx, False,
                ParallelError(
                    f"worker {kind} for item {idx} could not be pickled: "
                    f"{payload[2]!r}"
                ),
            ))
        results.put(frame)


def fork_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    workers: int,
    transport: "PipeTransport | ShmTransport | None" = None,
) -> list[R]:
    """Run ``fn`` over ``items`` in forked worker processes.

    Returns results in item order.  ``fn``, ``items``, and everything
    they close over are inherited by fork (never pickled); each result
    crosses back once through ``transport`` (default: the pipe codec).
    Raises the lowest-index item's exception after the whole wave has
    reported, or :class:`~repro.errors.ParallelError` if a worker dies
    without reporting (e.g. killed by the OOM killer).
    """
    items = list(items)
    if not items:
        return []
    require_process_backend()
    transport = transport or PipeTransport()
    workers = max(1, min(workers, len(items), (os.cpu_count() or 1) * 4))
    ctx = multiprocessing.get_context("fork")
    results_q = ctx.Queue()
    procs = [
        ctx.Process(
            target=_run_assigned,
            args=(fn, items, w, workers, results_q, transport),
            daemon=True,
            name=f"repro-fork-{w}",
        )
        for w in range(workers)
    ]
    for p in procs:
        p.start()

    out: list[Any] = [None] * len(items)
    failures: dict[int, BaseException] = {}
    pending = len(items)
    reader = results_q._reader
    try:
        while pending:
            # Block until a frame lands or a worker's sentinel trips —
            # no fixed-interval polling, so results wake the parent
            # instantly and a small wave pays zero idle latency.
            live = [p.sentinel for p in procs if p.is_alive()]
            ready = mp_connection.wait(
                [reader, *live],
                timeout=None if live else _DRAIN_GRACE_S,
            )
            if reader not in ready:
                if ready or live:
                    # A worker exited (cleanly or not); reassess.  Any
                    # frames it flushed first are already in the pipe.
                    continue
                # Every worker is gone and the pipe stayed silent for
                # the grace window: the missing results are never
                # coming.  Drop the queue's feeder thread before
                # raising: with a worker dead mid-put, join-on-close
                # could hang shutdown.
                results_q.cancel_join_thread()
                dead = ", ".join(
                    f"{p.name}={p.exitcode}" for p in procs
                )
                raise ParallelError(
                    f"{pending} of {len(items)} fork-map tasks never "
                    f"reported; a worker process died ({dead})"
                )
            try:
                frame = results_q.get_nowait()
            except queue_mod.Empty:  # pragma: no cover - partial write
                continue
            pending -= 1
            try:
                idx, ok, payload = transport.unpack(frame)
            except Exception as exc:  # noqa: BLE001 - corrupt transport
                results_q.cancel_join_thread()
                raise ParallelError(
                    f"could not decode a fork-map worker result: {exc!r}"
                ) from exc
            if ok:
                out[idx] = payload
            else:
                failures[idx] = payload
    finally:
        for p in procs:
            p.join(timeout=5.0)
        for p in procs:
            if p.is_alive():  # pragma: no cover - defensive cleanup
                p.terminate()
                p.join(timeout=1.0)
        results_q.close()
    if failures:
        raise failures[min(failures)]
    return out
