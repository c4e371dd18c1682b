"""The traced run of one workload: every per-layer metric, and spans.

Separate from the timed run, so tracing never touches an end-to-end
number.  Four parts, all on the workload's own input and options:

1. the real job a few times — ``JobResult`` already reports phases,
   container and spill counters at no cost — plus the same input on the
   serial, process, sharded and thread drivers for the cross-driver
   ratios;
2. the staged replay (:mod:`benchlib.replay`) with one span per layer
   call; its digest must equal the real job's;
3. timed calls into single layers (:mod:`benchlib.layers`);
4. a short closed loop against a fresh ``supmr serve`` with client-side
   spans per job (submit RPC, queued->running, running->done, result
   RPC) — the main part for ``svc_small_jobs``, a probe elsewhere.
"""

from __future__ import annotations

import shutil
import statistics
import time
from pathlib import Path
from typing import Any

from repro.chunking.planner import plan_chunks

from benchlib import host, layers, spans
from benchlib.replay import staged_replay
from benchlib.service import Daemon, LoopResult, closed_loop
from benchlib.timed import RunContext
from benchlib.workloads import (
    BY_NAME,
    Inputs,
    generate,
    make_job,
    make_options,
    make_runtime,
    pairs_digest,
    reference_pairs,
)

#: Real-job repetitions the ``JobResult`` medians rest on.
OWN_RUNS = 3
#: Repetitions of each other driver on the same input.
OTHER_RUNS = 2
#: Share of the input the thread-vs-serial ratio runs on (the thread
#: backend does not repeat within a tenth on whole inputs).
THREAD_SLICE_SHARE = 6
#: Service jobs per client: the workload's own trace, or a probe.
SERVICE_TRIPS = 10
PROBE_TRIPS = 2
PING_SAMPLES = 30
#: ``xfer.transport`` as a number (metric values are numbers).
TRANSPORT_CODES = {None: 0, "pipe": 1, "shm": 2, "exchange-file": 3,
                   "exchange-tcp": 4}


def _run_real(job: Any, options: Any, repeats: int) -> tuple[float, list]:
    """Median wall of ``repeats`` real runs, and their results."""
    runtime = make_runtime(options)
    walls, results = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        results.append(runtime.run(job))
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls), results


def _median(results: list, pick: Any) -> float:
    return statistics.median(pick(r) for r in results)


def _job_result_metrics(results: list) -> dict:
    """What ``JobResult`` reports for free, medians over the runs."""
    last = results[-1]
    timings = [r.timings for r in results]
    rounds = last.timings.rounds
    busy = sum(r.ingest_s + r.map_s for r in rounds)
    out = {
        "phase.read_map_s": _median(timings, lambda t: t.read_map_s),
        "phase.reduce_s": _median(timings, lambda t: t.reduce_s),
        "phase.merge_s": _median(timings, lambda t: t.merge_s),
        "phase.spill_s": _median(timings, lambda t: t.spill_s),
        # spill time is spent inside read+map, so it is not added again
        "phase.coverage": _median(
            timings,
            lambda t: (t.read_map_s + t.reduce_s + t.merge_s) / t.total_s,
        ),
        # 0.5 = ingest fully hidden behind map, 1 = nothing overlapped;
        # 0 = this driver reports no rounds (sharded)
        "pipeline.overlap_ratio":
            sum(r.span_s for r in rounds) / busy if busy else 0.0,
        "containers.emits": last.container_stats.emits,
        "containers.distinct_keys": last.container_stats.distinct_keys,
        "shard.respawns": last.counters.get("shard_respawns", 0),
        "shard.exchange_refetches": last.counters.get("exchange_refetches", 0),
        "xfer.transport": TRANSPORT_CODES[last.counters.get("transport")],
    }
    s = last.spill_stats
    out.update({
        "spill.runs": s.runs if s else 0,
        "spill.spilled_bytes": s.spilled_bytes if s else 0,
        "spill.merge_passes": s.merge_passes if s else 0,
        "spill.write_amplification":
            (s.spilled_bytes + s.merge_rewritten_bytes) / last.input_bytes
            if s else 0.0,
        "spill.write_s": _median(
            results,
            lambda r: r.spill_stats.spill_write_s if r.spill_stats else 0.0,
        ),
        "spill.peak_over_budget":
            s.peak_accounted_bytes / s.budget_bytes if s else 0.0,
    })
    return out


def _head_slice(inputs: Inputs, delimiter: bytes, directory: Path) -> Inputs:
    """The first sixth of the input, cut at a record end."""
    data = inputs.path.read_bytes()[:max(
        inputs.chunk_bytes, inputs.nbytes // THREAD_SLICE_SHARE)]
    data = data[:data.rfind(delimiter) + len(delimiter)]
    path = directory / ("slice" + inputs.path.suffix)
    path.write_bytes(data)
    return Inputs(path, len(data), inputs.chunk_bytes)


def _service_metrics(loop: LoopResult, pings: list[float]) -> dict:
    trips = [t for t in loop.trips if t.ok]
    if not trips:
        raise RuntimeError(
            "no service job completed: "
            + "; ".join(t.detail for t in loop.trips)
        )

    def med_ms(values: list[float]) -> float:
        return statistics.median(values) * 1e3

    # a job the watch stream first saw already running (or done) waited
    # in the queue for no longer than the submit reply took
    queued = [(t.running or t.submitted) - t.submitted for t in trips]
    running = [t.done - (t.running or t.submitted) for t in trips]
    return {
        "service.ping_rtt_us": statistics.median(pings) * 1e6,
        "service.submit_rpc_ms": med_ms([t.submitted - t.start for t in trips]),
        "service.queue_to_running_ms": med_ms(queued),
        "service.runner_overhead_s": statistics.median(
            r - t.job_total_s for r, t in zip(running, trips)
        ),
        "service.result_rpc_ms": med_ms([t.end - t.done for t in trips]),
        "service.rejected": sum(1 for t in loop.trips if t.rejected),
    }


def _service_spans(loop: LoopResult, workload: str, first_id: int) -> list:
    """Client-side spans: one root per job, four stages under it."""
    out = []
    for trip in loop.trips:
        if not trip.ok:
            continue
        root = first_id + len(out)
        running = trip.running or trip.submitted
        out.append({"id": root, "name": "service.job", "workload": workload,
                    "parent": None, "start": trip.start, "end": trip.end})
        for name, start, end in (
            ("service.submit_rpc", trip.start, trip.submitted),
            ("service.queued", trip.submitted, running),
            ("service.running", running, trip.done),
            ("service.result_rpc", trip.done, trip.end),
        ):
            out.append({"id": first_id + len(out), "name": name,
                        "workload": workload, "parent": root,
                        "start": start, "end": end})
    return out


def _service_part(ctx: RunContext, scratch: Path) -> tuple[dict, LoopResult]:
    """Start a daemon, ping it, run the staged closed loop, shut down."""
    svc = BY_NAME["svc_small_jobs"]
    inputs = generate(svc, scratch / "svc-inputs", ctx.seed, ctx.scale)
    want = pairs_digest(reference_pairs(svc, inputs))
    trips = SERVICE_TRIPS if ctx.workload.service else PROBE_TRIPS
    daemon = Daemon(scratch / "state", ctx.src_dir, ctx.workers)
    try:
        client = daemon.client()
        pings = []
        for _ in range(PING_SAMPLES):
            t0 = time.perf_counter()
            client.ping()
            pings.append(time.perf_counter() - t0)
        loop = closed_loop(
            daemon, inputs, ctx.workers, want, f"t{ctx.seed}",
            lambda done: done < trips, staged=True,
        )
    finally:
        code = daemon.shutdown()
    if code != 0:
        raise RuntimeError(f"daemon exited {code} on shutdown")
    return _service_metrics(loop, pings), loop


def run_traced(ctx: RunContext) -> dict:
    """One workload, traced: every per-layer metric plus its spans."""
    shm_before = host.shm_segments()
    workload, workers = ctx.workload, ctx.workers
    scratch = ctx.workdir / "traced"
    scratch.mkdir(parents=True, exist_ok=True)
    inputs = generate(workload, ctx.workdir / "inputs", ctx.seed, ctx.scale)
    job = make_job(workload, inputs)
    options = make_options(workload, inputs, workers)
    plain = make_options(workload, inputs, workers, executor_backend="serial",
                         memory_budget=None, num_shards=None)
    failures = []

    # 1. the real job, and the same input on the other drivers
    own_s, own = _run_real(job, options, OWN_RUNS)
    want = pairs_digest(reference_pairs(workload, inputs))
    own_digest = own[-1].output_digest()
    if own_digest != want:
        failures.append("the real job's output differs from the reference")
    walls = {}
    for name, other in (
        ("serial", plain),
        ("process", plain.with_(executor_backend="process")),
        ("sharded", plain.with_(num_shards=workers)),
    ):
        if other == options:
            walls[name] = own_s
        else:
            walls[name], _results = _run_real(job, other, OTHER_RUNS)
    head = _head_slice(inputs, job.codec.delimiter, scratch)
    head_job = make_job(workload, head)
    head_walls = {
        backend: _run_real(
            head_job,
            make_options(workload, head, workers, executor_backend=backend,
                         memory_budget=None, num_shards=None),
            OTHER_RUNS,
        )[0]
        for backend in ("serial", "thread")
    }
    metrics = _job_result_metrics(own)
    metrics["parallel.efficiency"] = (
        walls["serial"] / (walls["process"] * workers)
    )
    metrics["parallel.thread_over_serial"] = (
        head_walls["thread"] / head_walls["serial"]
    )
    metrics["shard.overhead_s"] = walls["sharded"] - walls["serial"]

    # 2. the staged replay
    tracer = spans.Tracer(workload.name)
    replay = staged_replay(job, options, tracer, scratch,
                           f"replay.{workload.name}")
    if replay.digest != own_digest:
        failures.append("the staged replay's digest differs from the job's")
    root = tracer.spans[0]
    by_name = spans.self_time_by_name(tracer.spans)
    splits = sum(1 for s in tracer.spans if s["name"] == "core.split")
    map_s = by_name["apps.map"]
    metrics.update({
        "trace.coverage": spans.root_coverage(tracer.spans),
        # what measuring this way costs: staged, one process, no overlap
        "trace.replay_over_job": (root["end"] - root["start"]) / own_s,
        "io.bytes_read": replay.bytes_read,
        "core.split_us_per_chunk": by_name["core.split"] / splits * 1e6,
        "core.reduce_s": by_name["core.reduce"],
        "core.merge_s": by_name["core.merge"],
        "apps.map_ns_per_emit": map_s / replay.emits * 1e9,
        "apps.map_mb_s": replay.bytes_read / 1e6 / map_s,
        "xfer.inline_frames": replay.inline_frames,
        "xfer.segment_frames": replay.segment_frames,
        "xfer.bytes_moved": replay.bytes_moved,
        "xfer.bytes_per_input_byte": replay.delta_bytes / replay.bytes_read,
        "shard.exchange_bytes": replay.exchange_bytes,
    })

    # 3. timed calls into single layers
    plan = plan_chunks(job.inputs, job.codec, plain)
    sample = layers.Sample(job, plan, plain)
    for part in (
        layers.chunking(job, options),
        layers.io(plan, scratch, ctx.seed),
        layers.containers(job, sample, workers),
        layers.parallel(workers),
        layers.xfer(sample),
        layers.sortlib(job, replay.runs, workers),
        layers.spill(job, sample, scratch),
        layers.shard(job, sample, workers, scratch),
        layers.service_codec(),
        layers.qos(),
        layers.resilience(job, plain, sample, scratch),
    ):
        metrics.update(part)

    # 4. the service, from the client's side
    service_metrics, loop = _service_part(ctx, scratch)
    metrics.update(service_metrics)
    failures.extend(
        f"service job (client {t.client}) {t.detail}"
        for t in loop.trips if not t.ok
    )
    all_spans = list(tracer.spans)
    if workload.service:
        all_spans += _service_spans(loop, workload.name, len(all_spans))

    shutil.rmtree(scratch, ignore_errors=True)
    shutil.rmtree(ctx.workdir / "inputs", ignore_errors=True)
    failures.extend(
        f"left behind: {what}" for what in host.leaks(ctx.workdir, shm_before)
    )
    layer_s = spans.self_time_by_layer(tracer.spans)
    attempted = OWN_RUNS + 1 + len(loop.trips)
    return {
        "attempted": attempted,
        "failed": min(attempted, len(failures)),
        "failures": failures,
        "input_bytes": inputs.nbytes,
        "values": metrics,
        "sampled": {},
        "spans": all_spans,
        "layer_self_s": dict(
            sorted(layer_s.items(), key=lambda kv: kv[1], reverse=True)
        ),
        "driver_walls_s": walls,
    }
