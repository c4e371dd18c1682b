"""Timed calls into single layers, on the workload's own data.

Each function returns ``{metric name: value}`` for one layer
(``src/repro/<layer>``).  Rates are measured on a sample of the
workload's input — its real keys, deltas and reduced runs — so a layer
reads differently on word count (few distinct keys, combined states)
and on sort (unique keys, raw records), as it does inside a job.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path
from typing import Any, Callable

from repro.chunking.chunk import ChunkPlan
from repro.chunking.intrafile import plan_intrafile_chunks
from repro.chunking.planner import plan_chunks
from repro.containers import ArrayContainer
from repro.core.execution import split_for_mappers
from repro.core.job import JobSpec, MapContext
from repro.core.options import RuntimeOptions
from repro.parallel.fork_pool import fork_map
from repro.qos.throttle import TokenBucket
from repro.resilience.journal import JobJournal, job_fingerprint
from repro.resilience.supervisor import WorkerPool
from repro.service.protocol import decode_frame, encode_frame
from repro.shard.exchange import fetch_run, write_partition_runs
from repro.sortlib import kway_merge, pairwise_merge_sort, pway_merge
from repro.spill import (
    RunReader,
    RunWriter,
    SpillManager,
    group_sorted_pairs,
    merge_spilled,
)
from repro.workloads import generate_small_files
from repro.xfer.transport import make_transport

from benchlib.replay import frame_bytes

_MB = 1e6
#: Input bytes mapped to collect the workload's own keys and deltas.
SAMPLE_BYTES = 512 * 1024
#: The multi-source (``readinto``) ingest set.
SMALL_FILES = 16
SMALL_FILE_BYTES = 64 * 1024


def measure(fn: Callable[..., Any], setup: Callable[[], Any] | None = None,
            min_s: float = 0.03, max_reps: int = 40) -> float:
    """Median seconds per ``fn`` call; at least three calls, and enough
    of them to fill ``min_s``.  ``setup`` (untimed) feeds each call."""
    times = []
    while len(times) < 3 or (sum(times) < min_s and len(times) < max_reps):
        arg = (setup(),) if setup is not None else ()
        t0 = time.perf_counter()
        fn(*arg)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def chunking(job: JobSpec, options: RuntimeOptions) -> dict:
    plan = plan_chunks(job.inputs, job.codec, options)
    plan_s = measure(lambda: plan_chunks(job.inputs, job.codec, options))
    return {"chunking.plan_us": plan_s * 1e6, "chunking.chunks": plan.n_chunks}


def io(plan: ChunkPlan, scratch: Path, seed: int) -> dict:
    """``Chunk.load`` over single-source chunks (the mmap path) and over
    one multi-source chunk of small files (the ``readinto`` path)."""
    mmap_s = measure(lambda: [c.load() for c in plan.chunks])
    paths = generate_small_files(
        scratch / "small-files", SMALL_FILES, SMALL_FILE_BYTES, seed=seed
    )
    (multi,) = plan_intrafile_chunks(paths, len(paths)).chunks
    multi_s = measure(multi.load)
    return {
        "io.load_mmap_mb_s": plan.total_bytes / _MB / mmap_s,
        "io.load_multi_mb_s": multi.length / _MB / multi_s,
    }


class Sample:
    """The workload's own emits and deltas, from the head of its input."""

    def __init__(self, job: JobSpec, plan: ChunkPlan,
                 options: RuntimeOptions) -> None:
        self.pairs: list[tuple] = []
        self.deltas: list = []
        self.input_bytes = 0
        for chunk in plan.chunks:
            if self.input_bytes >= SAMPLE_BYTES:
                break
            data = chunk.load()
            self.input_bytes += len(data)
            for split in split_for_mappers(
                data, options.num_mappers, job.codec.delimiter
            ):
                recorder = ArrayContainer()
                recorder.begin_round()
                job.map_fn(MapContext(split, recorder.emitter(0), 0))
                (segment,) = recorder.drain().items or ([],)
                self.pairs.extend(segment)
                local = self.filled(job, segment)
                local.seal()
                self.deltas.append(local.drain())

    @staticmethod
    def filled(job: JobSpec, pairs: list[tuple]) -> Any:
        """The job's own container holding ``pairs``, still open."""
        container = job.container_factory()
        container.begin_round()
        emit = container.emitter(0).emit
        for key, value in pairs:
            emit(key, value)
        return container


def delta_pairs(delta: Any) -> int:
    """Items a delta carries (combined states or raw pairs)."""
    if delta.kind == "array":
        return sum(len(segment) for segment in delta.items)
    return len(delta.items)


def containers(job: JobSpec, sample: Sample, workers: int) -> dict:
    """Insert, drain, absorb and partition on the job's own container."""
    pairs = sample.pairs
    insert_s = measure(lambda: Sample.filled(job, pairs), min_s=0.1,
                       max_reps=5)
    sealed = Sample.filled(job, pairs)
    sealed.seal()
    delta = sealed.drain()
    drain_s = measure(sealed.drain)

    def fresh() -> Any:
        container = job.container_factory()
        container.begin_round()
        return container

    absorb_s = measure(lambda c: c.absorb(delta), setup=fresh)
    moved = delta_pairs(delta)
    return {
        "containers.insert_pairs_s": len(pairs) / insert_s,
        "containers.drain_pairs_s": moved / drain_s,
        "containers.absorb_pairs_s": moved / absorb_s,
        "containers.partitions_s": measure(lambda: sealed.partitions(workers)),
    }


def _noop(_task: Any) -> None:
    return None


def parallel(workers: int) -> dict:
    """Fork-per-wave and persistent-pool dispatch over no-op tasks."""
    tasks = list(range(workers))
    fork_s = measure(lambda: fork_map(_noop, tasks, workers), min_s=0.1)
    pool = WorkerPool(_noop, workers)
    try:
        pool.run_wave(tasks)  # forks the workers; not timed
        wave_s = measure(lambda: pool.run_wave(tasks), min_s=0.1)
    finally:
        pool.close()
    return {
        "parallel.fork_map_noop_ms": fork_s * 1e3,
        "parallel.pool_dispatch_us": wave_s / workers * 1e6,
    }


def xfer(sample: Sample) -> dict:
    """``pack`` -> ``unpack`` of the workload's real deltas, per kind."""
    out = {}
    for kind in ("shm", "pipe"):
        transport = make_transport(kind)
        try:
            def roundtrip() -> int:
                moved = 0
                for delta in sample.deltas:
                    frame = transport.pack(delta)
                    moved += frame_bytes(frame)
                    transport.unpack(frame)
                return moved

            out[f"xfer.{kind}_roundtrip_mb_s"] = (
                roundtrip() / _MB / measure(roundtrip)
            )
        finally:
            transport.cleanup()
    return out


def sortlib(job: JobSpec, runs: list[list], workers: int) -> dict:
    """The three merges over the replay's reduced runs."""
    pairs = sum(len(run) for run in runs)
    key = job.output_key
    return {
        "sortlib.pway_pairs_s":
            pairs / measure(lambda: pway_merge(runs, workers, key=key)),
        "sortlib.pairwise_pairs_s":
            pairs / measure(lambda: pairwise_merge_sort(runs, key=key)),
        "sortlib.kway_pairs_s":
            pairs / measure(lambda: kway_merge(runs, key=key)),
    }


def _spillable_groups(job: JobSpec, sample: Sample) -> tuple[list, bool]:
    """The sample as ``_spill_live`` would drain it: the container's one
    partition, and whether its values are raw emits."""
    container = Sample.filled(job, sample.pairs)
    container.seal()
    (pairs,) = container.partitions(1)
    return pairs, not hasattr(container, "combiner")


def spill(job: JobSpec, sample: Sample, scratch: Path) -> dict:
    """Run-file write, CRC-checked read-back, and the external merge."""
    pairs, raw = _spillable_groups(job, sample)
    groups = list(group_sorted_pairs(sorted(pairs, key=lambda kv: kv[0])))
    path = scratch / "bench-run.spl"

    def write() -> int:
        with RunWriter(path) as writer:
            for key, values in groups:
                writer.write_group(key, values)
            return writer.payload_bytes

    payload = write()
    write_s = measure(write)
    read_s = measure(lambda: sum(1 for _group in RunReader(path)))
    manager = SpillManager(budget_bytes=1 << 40,
                           spill_dir=scratch / "bench-spill")
    try:
        quarter = -(-len(pairs) // 4)
        for start in range(0, len(pairs), quarter):
            manager.spill_pairs(pairs[start:start + quarter], raw=raw)
        merged = sum(1 for _group in merge_spilled(manager, iter(())))
        merge_s = measure(
            lambda: sum(1 for _group in merge_spilled(manager, iter(())))
        )
    finally:
        manager.cleanup()
    return {
        "spill.run_write_mb_s": payload / _MB / write_s,
        "spill.run_read_mb_s": payload / _MB / read_s,
        "spill.external_merge_pairs_s": merged / merge_s,
    }


def shard(job: JobSpec, sample: Sample, workers: int, scratch: Path) -> dict:
    """Exchange-run publish and CRC-verified fetch of the sample."""
    outbox = scratch / "bench-outbox"
    inbox = scratch / "bench-inbox"
    inbox.mkdir(parents=True, exist_ok=True)
    manifest = write_partition_runs(
        Sample.filled(job, sample.pairs), workers, outbox
    )
    payload = sum(run.payload_bytes for run in manifest)
    write_s = measure(
        lambda c: write_partition_runs(c, workers, outbox),
        setup=lambda: Sample.filled(job, sample.pairs),
    )

    def fetch_all() -> None:
        for run in manifest:
            fetch_run(outbox / run.name, inbox / run.name)

    return {
        "shard.exchange_write_mb_s": payload / _MB / write_s,
        "shard.exchange_fetch_mb_s": payload / _MB / measure(fetch_all),
    }


def service_codec() -> dict:
    """Frame encode/decode of a 4 KiB JSON frame."""
    message = {"ok": True, "type": "status", "blob": "x" * 4000}
    frame = encode_frame(message)
    return {
        "service.frame_encode_us":
            measure(lambda: encode_frame(message)) * 1e6,
        "service.frame_decode_us": measure(lambda: decode_frame(frame)) * 1e6,
    }


def qos() -> dict:
    """Uncontended ``TokenBucket.acquire`` at a rate that never waits."""
    bucket = TokenBucket(rate_bps=1e15)
    calls = 2000

    def burst() -> None:
        for _ in range(calls):
            bucket.acquire(1)

    return {"qos.acquire_ns": measure(burst) / calls * 1e9}


def resilience(job: JobSpec, options: RuntimeOptions, sample: Sample,
               scratch: Path) -> dict:
    """``JobJournal.record_round`` with the sample as the round's state."""
    journal = JobJournal(scratch / "bench-journal",
                         job_fingerprint(job, options))
    container = Sample.filled(job, sample.pairs)
    rounds = iter(range(1 << 30))
    round_s = measure(
        lambda: journal.record_round(next(rounds), container, 1), max_reps=10
    )
    journal.purge()
    return {"resilience.journal_round_ms": round_s * 1e3}
