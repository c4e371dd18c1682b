"""Staged replay: the workload's pipeline, one layer call at a time.

The runtime overlaps ingest with map and (on the process backend) runs
tasks in other processes, so wall-clock inside a real job cannot be
split by layer from outside.  The replay calls the same public layer
functions in pipeline order, in this process, on the workload's input
with the workload's options, and records one span per call.  Its output
digest must equal the real job's — otherwise the per-layer numbers
describe a different computation.

What each workload's replay stages (``->`` is data flow):

* serial (``wc_serial``, ``sort_spill``, the service job): plan ->
  per chunk ``load`` -> ``split_for_mappers`` -> per split ``map_fn``
  straight into the job's container (budget-wrapped for ``sort_spill``,
  whose run-file writes and external merge appear as ``spill.*`` child
  spans) -> ``partitions`` -> reduce -> merge;
* process (``wc_process``, ``sort_process``): plan -> per chunk ``warm``
  -> ``split_refs_for_chunk`` -> per split ``resolve`` (mmap) ->
  ``map_fn`` into a task-local container -> ``drain`` -> ``pack`` /
  ``unpack`` -> ``absorb``; reduce partitions and reduced runs cross the
  transport too, as the worker pool moves them.  The merged output
  ranges the real runtime ships back from forked merge workers are not
  replayed;
* sharded (``sort_sharded``): per shard the serial map stage over its
  contiguous chunk block -> ``write_partition_runs``; per partition
  ``fetch_run`` from every outbox -> ``merged_partition_groups`` ->
  reduce; then merge.

Reduce uses ``repro.shard.exchange.reduce_partition`` — the public twin
of the reducer-task body inside ``run_reducers`` — so that
``partitions`` and the transport can be staged around it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.chunking.chunk import Chunk
from repro.chunking.planner import plan_chunks
from repro.containers.base import Container, ContainerDelta
from repro.core.execution import (
    build_container,
    merge_outputs,
    split_for_mappers,
)
from repro.core.job import JobSpec, MapContext
from repro.core.options import RuntimeOptions
from repro.parallel.backends import ExecutorBackend
from repro.parallel.splits import split_refs_for_chunk
from repro.shard.exchange import (
    fetch_run,
    merged_partition_groups,
    reduce_partition,
    run_name,
    write_partition_runs,
)
from repro.shard.plan import ShardPlan
from repro.xfer.transport import make_transport

from benchlib.spans import Tracer
from benchlib.workloads import pairs_digest


@dataclass
class ReplayResult:
    digest: str
    bytes_read: int = 0
    emits: int = 0
    #: Reducer output runs, kept for the merge microbenchmarks.
    runs: list = field(default_factory=list)
    inline_frames: int = 0
    segment_frames: int = 0
    #: Everything that crossed the transport: map deltas, reduce tasks,
    #: reduced runs.
    bytes_moved: int = 0
    #: The map deltas' share of ``bytes_moved``.
    delta_bytes: int = 0
    #: Exchange-run payload bytes the shards published (sharded only).
    exchange_bytes: int = 0


def frame_bytes(frame: tuple) -> int:
    """Payload bytes a transport control frame stands for (the frame
    layouts are the ones ``repro.xfer.transport`` documents)."""
    if frame[0] == "i":
        return len(frame[1]) + sum(len(b) for b in frame[2])
    return frame[2] + sum(frame[3])


class _Stage:
    """The replay's moving parts: tracer, transport, counters."""

    def __init__(self, job: JobSpec, options: RuntimeOptions,
                 tracer: Tracer, result: ReplayResult) -> None:
        self.job = job
        self.options = options
        self.tracer = tracer
        self.result = result
        self.transport = None
        if options.executor_backend is ExecutorBackend.PROCESS:
            self.transport = make_transport(options.transport)

    def cross(self, payload: Any, keep: bool = False) -> Any:
        """Move ``payload`` through the transport as a worker would."""
        with self.tracer.span("xfer.pack"):
            frame = self.transport.pack(payload, keep=keep)
        if frame[0] == "i":
            self.result.inline_frames += 1
        else:
            self.result.segment_frames += 1
        self.result.bytes_moved += frame_bytes(frame)
        if isinstance(payload, ContainerDelta):
            self.result.delta_bytes += frame_bytes(frame)
        with self.tracer.span("xfer.unpack"):
            out = self.transport.unpack(frame)
        if keep:
            self.transport.release(frame)
        return out

    def map_chunk(self, chunk: Chunk, container: Container,
                  task_id_base: int) -> int:
        """One mapper wave over ``chunk``; returns tasks launched."""
        job, span = self.job, self.tracer.span
        n = self.options.num_mappers
        delimiter = job.codec.delimiter
        self.result.bytes_read += chunk.length
        container.begin_round()
        if self.transport is None:
            with span("io.load"):
                data = chunk.load()
            with span("core.split"):
                splits = split_for_mappers(data, n, delimiter)
            for i, split in enumerate(splits):
                task_id = task_id_base + i
                with span("apps.map"):
                    job.map_fn(MapContext(
                        data=split, emitter=container.emitter(task_id),
                        task_id=task_id, chunk_index=chunk.index,
                    ))
            return len(splits)
        with span("io.warm"):
            chunk.warm()
        with span("core.split"):
            refs = split_refs_for_chunk(chunk, n, delimiter)
        for i, ref in enumerate(refs):
            task_id = task_id_base + i
            with span("io.mmap"):
                data = ref.resolve()
            local = job.container_factory()
            local.begin_round()
            with span("apps.map"):
                job.map_fn(MapContext(
                    data=data, emitter=local.emitter(task_id),
                    task_id=task_id, chunk_index=chunk.index,
                ))
            local.seal()
            with span("containers.drain"):
                delta = local.drain()
            delta = self.cross(delta)
            with span("containers.absorb"):
                container.absorb(delta)
        return len(refs)

    def reduce_local(self, container: Container, spilled: bool) -> list:
        """``partitions`` then one reduce per partition."""
        span = self.tracer.span
        container.seal()
        name = "spill.external_merge" if spilled else "containers.partitions"
        with span(name):
            parts = container.partitions(self.options.num_reducers)
        runs = []
        for part in parts:
            if self.transport is not None:
                part = self.cross(("reduce", part), keep=True)[1]
            with span("core.reduce"):
                run = reduce_partition(self.job, part)
            if self.transport is not None:
                run = self.cross(run)
            runs.append(run)
        return runs


def staged_replay(
    job: JobSpec,
    options: RuntimeOptions,
    tracer: Tracer,
    scratch: Path,
    root_name: str,
) -> ReplayResult:
    """Replay ``job`` under ``options`` layer by layer; spans go to
    ``tracer`` under one root span called ``root_name``."""
    result = ReplayResult(digest="")
    stage = _Stage(job, options, tracer, result)
    span = tracer.span
    serial = options.with_(executor_backend=ExecutorBackend.SERIAL)
    spill_mgr = None
    try:
        with span(root_name):
            with span("chunking.plan"):
                plan = plan_chunks(job.inputs, job.codec, options)
            if options.num_shards is not None:
                runs = _sharded_stages(stage, plan, scratch)
            else:
                container, spill_mgr = build_container(job, options)
                if spill_mgr is not None:
                    spill_mgr.spill_pairs = tracer.wrap(
                        "spill.run_write", spill_mgr.spill_pairs)
                    spill_mgr.write_merged = tracer.wrap(
                        "spill.consolidate", spill_mgr.write_merged)
                tasks = 0
                for chunk in plan.chunks:
                    tasks += stage.map_chunk(chunk, container, tasks)
                runs = stage.reduce_local(container, spill_mgr is not None)
                result.emits = container.stats().emits
            with span("core.merge"):
                output, _rounds = merge_outputs(runs, job, serial)
    finally:
        if spill_mgr is not None:
            spill_mgr.cleanup()
        if stage.transport is not None:
            stage.transport.cleanup()
    result.runs = runs
    result.digest = pairs_digest(output)
    return result


def _sharded_stages(stage: _Stage, plan: Any, scratch: Path) -> list:
    """Map per shard, exchange run files, reduce per partition."""
    job, options, span = stage.job, stage.options, stage.tracer.span
    shard_plan = ShardPlan(plan, options.num_shards, options.num_reducers)
    outboxes = []
    for spec in shard_plan.shards:
        container, _none = build_container(job, options)
        for chunk in shard_plan.chunks_for(spec.shard_id):
            stage.map_chunk(chunk, container,
                            chunk.index * options.num_mappers)
        outbox = scratch / f"outbox-{spec.shard_id}"
        with span("shard.exchange_write"):
            manifest = write_partition_runs(
                container, shard_plan.num_partitions, outbox
            )
        outboxes.append(outbox)
        stage.result.exchange_bytes += sum(r.payload_bytes for r in manifest)
        stage.result.emits += container.stats().emits
    inbox = scratch / "inbox"
    inbox.mkdir(parents=True, exist_ok=True)
    runs = []
    for p in range(shard_plan.num_partitions):
        readers = []
        for sid, outbox in enumerate(outboxes):
            with span("shard.exchange_fetch"):
                reader, _refetches = fetch_run(
                    outbox / run_name(p), inbox / f"p{p}-from-{sid}.spl"
                )
            readers.append(reader)
        with span("shard.exchange_merge"):
            groups = list(merged_partition_groups(readers))
        with span("core.reduce"):
            runs.append(reduce_partition(job, groups))
    return runs
