"""Shard worker entrypoint: one supervised process group member.

Each shard of a :class:`~repro.shard.coordinator.ShardedRuntime` job is
one forked process running :func:`shard_worker_main`.  The contract
mirrors the resilience supervisor's worker protocol — the job, options,
and chunk block ride into the fork copy-on-write; only small command
dicts and pickled result blobs cross the queues — but a shard worker is
long-lived and *phased*: it serves a ``map`` command (map its contiguous
chunk block, publish per-partition exchange runs to its outbox), then
any number of ``reduce`` commands (fetch + CRC-verify the named
partitions' runs from every shard's outbox and reduce them), until the
``None`` sentinel.

Fault-site split: the **shard-level** sites (``shard.worker_loss``,
``shard.straggler``, ``shard.exchange_corrupt``) are decided by the
coordinator at dispatch time and arrive pre-resolved inside the command
(``mode``/``corrupt`` — and, on multi-host runs, the ``net.*`` transfer
fault tables), keeping the schedule deterministic no matter how workers
race.  The **task-level** sites (``ingest.read``,
``record.corrupt``, ``map.task``...) are armed *inside* the worker
against the same plan, with globally-stable scopes, and the resulting
fault events are shipped back for replay into the coordinator's log.
"""

from __future__ import annotations

import os
import pickle
import time
from pathlib import Path
from typing import Any, NoReturn, Sequence

from repro.chunking.chunk import Chunk
from repro.core.driver import JobRun
from repro.core.job import JobSpec
from repro.core.options import RuntimeOptions
from repro.errors import ParallelError
from repro.parallel.backends import ExecutorBackend
from repro.resilience.journal import job_fingerprint
from repro.shard.exchange import (
    EventRow,
    fetch_run,
    merged_partition_groups,
    reduce_partition,
    run_name,
    write_partition_runs,
)

#: Exit code for a commanded (injected) shard-worker death — same value
#: the task supervisor uses, so process post-mortems read uniformly.
SHARD_CRASH_EXIT = 37

#: Message kinds the worker understands.
MSG_MAP = "map"
MSG_REDUCE = "reduce"
#: Dispatch modes for both phases (pre-resolved shard-level faults).
MODE_RUN = "run"
MODE_LOSS = "loss"
MODE_STRAGGLE = "straggle"


def shard_fingerprint(job: JobSpec, options: RuntimeOptions, shard_id: int) -> str:
    """Per-shard journal fingerprint: the job fingerprint, salted.

    Salting with the shard id stops shard 2 resuming from shard 1's
    checkpoint after a reassignment reshuffles directories.
    """
    return f"{job_fingerprint(job, options)}:shard-{shard_id}"


def _post(results: Any, payload: tuple) -> None:
    """Ship one result tuple, downgrading unpicklables to an error."""
    try:
        blob = pickle.dumps(payload)
    except Exception as exc:  # noqa: BLE001 - unpicklable result
        blob = pickle.dumps((
            "error", payload[1] if len(payload) > 1 else -1,
            f"shard result could not be pickled: {exc!r}",
        ))
    results.put(blob)


def _die(results: Any) -> NoReturn:
    """A commanded death: flush this worker's frames, then exit.

    The results queue is shared by every worker of the job, and its
    feeder thread holds the queue's write lock while a frame is in the
    pipe.  An ``os._exit`` that lands mid-write would keep that lock
    forever and leave every other worker blocked in ``put``; closing and
    joining the feeder first lets the frame finish and the lock go.
    """
    results.close()
    results.join_thread()
    os._exit(SHARD_CRASH_EXIT)


def _log_rows(injector: Any) -> list[EventRow]:
    """The worker injector's fault events as transportable rows."""
    if injector is None:
        return []
    return [
        (e.site, e.action, e.detail, e.scope, e.attempt)
        for e in injector.log.events
    ]


def _serve_map(
    shard_id: int,
    job: JobSpec,
    options: RuntimeOptions,
    chunks: Sequence[Chunk],
    num_partitions: int,
    msg: dict,
    results: Any,
) -> None:
    """Map the shard's chunk block and publish its exchange runs."""
    mode = msg.get("mode", MODE_RUN)
    if mode == MODE_LOSS and not chunks:
        # Nothing to checkpoint first: die straight away.
        _die(results)
    straggle_s = float(msg.get("straggle_s") or 0.0)
    attempt = msg.get("attempt", 0)

    def after_round(chunk: Chunk) -> None:
        if mode == MODE_STRAGGLE and straggle_s > 0:
            time.sleep(straggle_s)
        _post(results, ("hb", shard_id, attempt, chunk.index))
        if mode == MODE_LOSS:
            # Die *after* the first journaled round, exactly the window
            # the checkpoint/resume path has to cover.
            _die(results)

    # The shard's block runs the one-shot runtimes' round loop, serially
    # and without read-ahead (its fault events ship back in program
    # order).  Task-level sites are re-armed per attempt inside the
    # worker; the shard-level sites were already resolved by the
    # coordinator, which also owns the job deadline and hands each
    # shard its share of the I/O budget.
    ckpt = msg.get("ckpt")
    run = JobRun(
        job,
        options.with_(
            executor_backend=ExecutorBackend.SERIAL,
            pipelined_ingest=False,
            checkpoint_dir=ckpt,
            resume=bool(ckpt and msg.get("resume")),
            job_deadline_s=None,
        ),
        fingerprint=(
            shard_fingerprint(job, options, shard_id) if ckpt else None
        ),
    )
    with run:
        rounds = run.map_rounds(chunks, after=after_round)
        if mode == MODE_LOSS:
            # Every round was restored from the journal, so the
            # per-chunk death window never opened — but the coordinator
            # has already consumed the shard.worker_loss injection, so
            # honor it anyway to keep the seeded schedule and fault log
            # in step.
            _die(results)
        manifest = write_partition_runs(
            run.container, num_partitions, msg["outbox"]
        )
        run.commit()
    stats = run.container.stats()
    spill = run.spill_mgr.stats() if run.spill_mgr is not None else None
    _post(results, (
        "map_done", shard_id, attempt,
        {
            "manifest": manifest,
            "outbox": msg["outbox"],
            "rounds": max(len(rounds) - 1, 0),  # n chunks -> n+1 records
            "restored_rounds": len(run.restored_rounds),
            "map_tasks": run.map_tasks,
            "emits": stats.emits,
            "distinct_keys": stats.distinct_keys,
            "events": _log_rows(run.injector),
            "throttle": (
                run.throttle.counters() if run.throttle is not None else None
            ),
            "spill": None if spill is None else {
                "spill_runs": spill.runs, "spilled_bytes": spill.spilled_bytes,
            },
        },
    ))


def _serve_reduce(
    shard_id: int,
    job: JobSpec,
    options: RuntimeOptions,
    msg: dict,
    results: Any,
) -> None:
    """Fetch, verify, merge, and reduce the commanded partitions."""
    if msg.get("mode", MODE_RUN) == MODE_LOSS:
        _die(results)
    sources: dict[int, str] = msg["sources"]
    corrupt: dict[tuple[int, int], list[int]] = msg.get("corrupt", {})
    # Multi-host extras: where each source outbox actually lives.  A
    # source whose address matches this worker's own host (or is empty)
    # is a plain file copy; anything else goes over the resumable,
    # verify-then-refetch TCP fetch path.
    via: dict[int, str] = msg.get("via") or {}
    self_addr: str = msg.get("self_addr", "")
    net_corrupt: dict[tuple[int, int], list[int]] = msg.get("net_corrupt", {})
    net_drop: dict[tuple[int, int], list[int]] = msg.get("net_drop", {})
    net_timeout = float(msg.get("net_timeout_s") or 10.0)
    inbox_dir = Path(msg["workdir"])
    inbox_dir.mkdir(parents=True, exist_ok=True)
    events: list[EventRow] = []
    refetches = 0
    parts: dict[int, list] = {}
    for p in msg["partitions"]:
        readers = []
        for src in sorted(sources):
            dst = inbox_dir / f"p{p:05d}-from-{src:05d}.spl"
            addr = via.get(src, "")
            if addr and addr != self_addr:
                from repro.net.exchange import fetch_run_remote

                reader, attempts = fetch_run_remote(
                    addr,
                    Path(sources[src]) / run_name(p),
                    dst,
                    corrupt_attempts=net_corrupt.get((p, src), ()),
                    drop_attempts=net_drop.get((p, src), ()),
                    max_retries=options.recovery.max_retries,
                    deadline_s=net_timeout,
                    events=events,
                    scope=repr((p, src)),
                )
            else:
                reader, attempts = fetch_run(
                    Path(sources[src]) / run_name(p),
                    dst,
                    corrupt_attempts=corrupt.get((p, src), ()),
                    max_retries=options.recovery.max_retries,
                    events=events,
                    scope=repr((p, src)),
                )
            refetches += attempts
            readers.append(reader)
        parts[p] = reduce_partition(job, merged_partition_groups(readers))
        _post(results, ("hb", shard_id, 0, p))
    _post(results, (
        "reduce_done", shard_id,
        {"parts": parts, "events": events, "refetches": refetches},
    ))


def shard_worker_main(
    shard_id: int,
    job: JobSpec,
    options: RuntimeOptions,
    chunks: Sequence[Chunk],
    num_partitions: int,
    inbox: Any,
    results: Any,
) -> None:
    """Worker body: serve map/reduce commands until the ``None`` sentinel.

    Everything positional is inherited by the fork (never pickled);
    commands are small dicts, results are pre-pickled blobs.  Exceptions
    are transported back as ``("error", shard_id, detail)`` rows rather
    than killing the process — only a commanded loss exits.
    """
    while True:
        msg = inbox.get()
        if msg is None:
            return
        try:
            if msg["kind"] == MSG_MAP:
                _serve_map(
                    shard_id, job, options, chunks, num_partitions,
                    msg, results,
                )
            elif msg["kind"] == MSG_REDUCE:
                _serve_reduce(shard_id, job, options, msg, results)
            else:
                raise ParallelError(
                    f"shard worker got an unknown command {msg['kind']!r}"
                )
        except BaseException as exc:  # noqa: BLE001 - transported to parent
            _post(results, ("error", shard_id, f"{type(exc).__name__}: {exc}"))
