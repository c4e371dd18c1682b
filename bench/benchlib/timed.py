"""The untraced, timed run of one workload: the end-to-end metrics.

Set-up (input generation, daemon start, one warm-up job) is repeated and
the quietest repetition reported, so work moved into set-up shows.  Then
jobs run back to back for ``--seconds``; every job's output digest is
compared with a reference computed without the runtime, and after the
workload the box is checked for anything left behind.  A job that
raised, was rejected, mismatched the reference or leaked counts as
failed.
"""

from __future__ import annotations

import gc
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import ReproError
from repro.workloads.valsort import validate_pairs

from benchlib import host, stats
from benchlib.service import Daemon, closed_loop
from benchlib.workloads import (
    Inputs,
    Workload,
    generate,
    make_job,
    make_options,
    make_runtime,
    pairs_digest,
    reference_pairs,
    service_spec,
)

#: Set-up repetitions per run; the quietest is reported.
SETUP_REPEATS = 5
#: A run never reports fewer timed jobs than this, however short.
MIN_TIMED_JOBS = 5
#: Batch wall and CPU, and set-up time, are reported as this percentile
#: (nearest rank) of their samples, not the median.  The host gives this VM less than
#: its vCPUs when neighbours are busy, in episodes that last minutes, and
#: that only ever adds time: over two sets of ten identical
#: ``wc_process`` runs the median wall spread 17 % and 17 %, the 10th
#: percentile 7.4 % and 9.6 %, the 5th 5.9 % and 7.7 %
#: (``bench/README.md`` has the table).  With 20-45 jobs in a run it is
#: the second or third fastest job, so one lucky sample does not decide it.
QUIET_PERCENTILE = 5
#: The service workload's run is this many closed loops, back to back on
#: one daemon; 3 s loops hold six or seven jobs per client.
SERVICE_ROUNDS = 5
_MB = 1e6


@dataclass
class RunContext:
    """Everything one ``--workload`` invocation is given."""

    workload: Workload
    seed: int
    seconds: float
    scale: float
    workers: int
    src_dir: Path
    workdir: Path
    import_s: float


@dataclass
class Prepared:
    """What set-up leaves for the timed part."""

    inputs: Inputs
    job: Any = None
    runtime: Any = None
    daemon: Daemon | None = None


def set_up(ctx: RunContext) -> Prepared:
    """Generate the input, start what must run, do one warm-up job."""
    inputs = generate(ctx.workload, ctx.workdir / "inputs", ctx.seed,
                      ctx.scale)
    if ctx.workload.service:
        daemon = Daemon(ctx.workdir / "state", ctx.src_dir, ctx.workers)
        try:
            daemon.client().submit_and_wait(
                service_spec(inputs, ctx.workers, "warmup")
            )
        except BaseException:
            daemon.shutdown()
            raise
        return Prepared(inputs, daemon=daemon)
    job = make_job(ctx.workload, inputs)
    runtime = make_runtime(make_options(ctx.workload, inputs, ctx.workers))
    runtime.run(job)
    return Prepared(inputs, job=job, runtime=runtime)


def repeated_set_up(ctx: RunContext) -> tuple[Prepared, list[float]]:
    """Set up ``SETUP_REPEATS`` times; keep the last one standing."""
    times = []
    prepared = None
    for _ in range(SETUP_REPEATS):
        if prepared is not None and prepared.daemon is not None:
            prepared.daemon.shutdown()
        started = time.perf_counter()
        prepared = set_up(ctx)
        times.append(time.perf_counter() - started)
    return prepared, times


def _quietest(values: list[float]) -> float:
    """The ``QUIET_PERCENTILE`` of time-like samples."""
    return stats.percentile(values, QUIET_PERCENTILE)


def _timed_batch(ctx: RunContext, prepared: Prepared) -> dict:
    """Jobs back to back through the library API the CLI uses."""
    walls, cpus, digests, failures = [], [], [], []
    last_output = None
    deadline = time.perf_counter() + ctx.seconds
    attempted = 0
    while attempted < MIN_TIMED_JOBS or time.perf_counter() < deadline:
        attempted += 1
        gc.collect()  # every job starts from the same heap state
        cpu0 = host.tree_cpu_s()
        t0 = time.perf_counter()
        try:
            result = prepared.runtime.run(prepared.job)
        except ReproError as exc:
            failures.append(
                f"job {attempted} raised {type(exc).__name__}: {exc}"
            )
            continue
        walls.append(time.perf_counter() - t0)
        cpus.append(host.tree_cpu_s() - cpu0)
        digests.append(result.output_digest())
        last_output = result.output
    peak_rss = host.peak_rss_mb()  # before the reference inflates it
    expected = reference_pairs(ctx.workload, prepared.inputs)
    want = pairs_digest(expected)
    for index, got in enumerate(digests, 1):
        if got != want:
            failures.append(f"job {index} output differs from the reference")
    if ctx.workload.app == "sort" and last_output is not None:
        report = validate_pairs(last_output)
        if not report.sorted_ok or report.records != len(expected):
            failures.append(
                f"valsort: sorted_ok={report.sorted_ok} "
                f"records={report.records} expected={len(expected)}"
            )
    if not walls:
        raise RuntimeError("no job completed: " + "; ".join(failures))
    job_s = _quietest(walls)
    return {
        "attempted": attempted,
        "failures": failures,
        "peak_rss_mb": peak_rss,
        "sampled": {
            "job_s": walls,
            "cpu_s": cpus,
        },
        "values": {
            "job_s": job_s,
            "throughput_mb_s": prepared.inputs.nbytes / _MB / job_s,
            "cpu_s": _quietest(cpus),
            # one caller, no queue: a batch job has no latency
            # distribution of its own, and the tail of back-to-back
            # walls is the neighbours' (see QUIET_PERCENTILE)
            "latency_p80_s": job_s,
            "jobs_per_s": 1.0 / job_s,
        },
    }


def _timed_service(ctx: RunContext, prepared: Prepared) -> dict:
    """``SERVICE_ROUNDS`` closed loops against the daemon, ``--seconds``
    in all.  ``job_s`` follows the batch rule over all latencies.  A
    closed loop without think time completes ``clients / latency`` jobs
    a second (Little's law), so the rates follow from ``job_s`` as they
    do for a batch caller.  CPU per job and the latency tail exist only
    over a whole loop: each is computed per loop and the quietest loop's
    value reported."""
    daemon = prepared.daemon
    want = pairs_digest(reference_pairs(ctx.workload, prepared.inputs))
    mb = prepared.inputs.nbytes / _MB
    trips, latencies = [], []
    rounds: dict[str, list[float]] = {"cpu_s": [], "latency_p80_s": []}
    for index in range(SERVICE_ROUNDS):
        cpu0 = host.tree_cpu_s() + host.proc_tree_cpu_s(daemon.pid)
        deadline = time.perf_counter() + ctx.seconds / SERVICE_ROUNDS
        loop = closed_loop(
            daemon, prepared.inputs, ctx.workers, want,
            f"s{ctx.seed}r{index}",
            lambda done: done < 1 or time.perf_counter() < deadline,
        )
        cpu = host.tree_cpu_s() + host.proc_tree_cpu_s(daemon.pid) - cpu0
        trips.extend(loop.trips)
        good = [t.latency_s for t in loop.trips if t.ok]
        if not good:
            continue
        latencies.extend(good)
        rounds["latency_p80_s"].append(stats.percentile(good, 80))
        rounds["cpu_s"].append(cpu / len(good))
    failures = [
        f"job {index} (client {t.client}) {t.detail}"
        for index, t in enumerate(trips, 1) if not t.ok
    ]
    if not latencies:
        raise RuntimeError("no job completed: " + "; ".join(failures))
    job_s = _quietest(latencies)
    return {
        "attempted": len(trips),
        "failures": failures,
        "sampled": {"job_s": latencies, **rounds},
        "values": {
            "job_s": job_s,
            "throughput_mb_s": ctx.workers * mb / job_s,
            "cpu_s": _quietest(rounds["cpu_s"]),
            "latency_p80_s": _quietest(rounds["latency_p80_s"]),
            "jobs_per_s": ctx.workers / job_s,
        },
    }


def run_timed(ctx: RunContext) -> dict:
    """One workload, untraced: every end-to-end metric, failures named."""
    shm_before = host.shm_segments()
    prepared, setup_times = repeated_set_up(ctx)
    try:
        if prepared.daemon is not None:
            measured = _timed_service(ctx, prepared)
        else:
            measured = _timed_batch(ctx, prepared)
    finally:
        if prepared.daemon is not None:
            code = prepared.daemon.shutdown()
    failures = measured["failures"]
    if prepared.daemon is not None:
        if code != 0:
            failures.append(f"daemon exited {code} on shutdown")
        # the daemon and its runners are reaped only now
        measured["peak_rss_mb"] = host.peak_rss_mb()
    shutil.rmtree(ctx.workdir / "inputs", ignore_errors=True)
    shutil.rmtree(ctx.workdir / "state", ignore_errors=True)
    failures.extend(
        f"left behind: {what}" for what in host.leaks(ctx.workdir, shm_before)
    )
    values = measured["values"]
    values["peak_rss_mb"] = measured["peak_rss_mb"]
    values["setup_s"] = ctx.import_s + _quietest(setup_times)
    sampled = measured["sampled"]
    sampled["setup_s"] = [ctx.import_s + t for t in setup_times]
    jobs = len(sampled["job_s"])
    return {
        "attempted": measured["attempted"],
        "failed": min(measured["attempted"], len(failures)),
        "failures": failures,
        "input_bytes": prepared.inputs.nbytes,
        "timed_jobs": jobs,
        "supported_percentile": stats.supported_percentile(jobs),
        "values": values,
        "sampled": sampled,
    }
