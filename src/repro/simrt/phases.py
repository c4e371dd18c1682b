"""Simulated phase building blocks shared by the simulated runtimes.

Each phase is a generator process over a :class:`ScaleUpMachine`:

* :func:`ingest` — one thread blocks on the ingest source (iowait);
* :func:`map_wave` — spawn a wave of contexts-wide map threads;
* :func:`reduce_phase` — all contexts busy for the modelled duration;
* :func:`merge_pairwise` — initial parallel block sorts, then 2-way merge
  rounds with halving worker counts (the Fig. 1 step-down);
* :func:`merge_pway` — the same block sorts, then one p-way pass;
* :func:`spill_write` / :func:`spill_read` / :func:`spill_rewrite` —
  out-of-core spill traffic: sort + run write when the memory budget is
  hit, streaming read-back before the external merge, and fan-in-bounded
  consolidation passes between the two.

:class:`PhaseLog` records wall-clock spans; :class:`SimJobResult` bundles
Table II-style timings with the collectl trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.core.result import PhaseTimings
from repro.simhw.machine import ScaleUpMachine
from repro.simhw.monitor import UtilizationSample
from repro.simhw.process import AllOf
from repro.simrt.costmodel import AppCostProfile
from repro.sortlib.merge_sort import merge_rounds_schedule


@dataclass(frozen=True)
class PhaseSpan:
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class PhaseLog:
    """Ordered record of phase spans for one simulated job."""

    def __init__(self, machine: ScaleUpMachine) -> None:
        self.machine = machine
        self.spans: list[PhaseSpan] = []

    def record(self, name: str, start: float) -> None:
        """Close a span named ``name`` that began at ``start``."""
        self.spans.append(PhaseSpan(name, start, self.machine.sim.now))

    def duration(self, name: str) -> float:
        """Total duration across all spans with this name."""
        return sum(s.duration for s in self.spans if s.name == name)


@dataclass
class SimJobResult:
    """Simulated-job outcome: Table II timings plus the collectl trace."""

    app: str
    runtime: str
    input_bytes: float
    chunk_bytes: float | None
    timings: PhaseTimings
    samples: list[UtilizationSample]
    spans: list[PhaseSpan]
    extras: dict[str, Any] = field(default_factory=dict)


# -- phase processes (generators; spawn with sim.process or yield from) -----


def ingest(machine: ScaleUpMachine, nbytes: float, profile: AppCostProfile,
           source: Any = None) -> Iterator:
    """One ingest thread pulls ``nbytes`` at the app's effective rate.

    ``source`` defaults to the machine's RAID-0; the transfer is capped at
    ``profile.ingest_bw`` (an app never exceeds its measured effective
    ingest rate, even on an idle array).
    """
    machine.cpu.io_blocked += 1
    try:
        if source is not None:
            yield source.read(nbytes)
        else:
            yield machine.disk._read_chan.transfer(
                nbytes, cap=profile.ingest_bw, tag="ingest"
            )
    finally:
        machine.cpu.io_blocked -= 1


def map_wave(machine: ScaleUpMachine, nbytes: float,
             profile: AppCostProfile, straggler_s: float = 0.0) -> Iterator:
    """Spawn a contexts-wide wave of mapper threads over ``nbytes``.

    ``straggler_s`` extends one thread of the wave by that many seconds —
    the fault-injected slow task; the wave (and so the round) completes
    when the straggler (or its speculative copy) does.
    """
    n = machine.spec.contexts
    yield from machine.spawn_wave(n)
    per_thread_s = profile.map_wall_s(nbytes, n)
    durations = [per_thread_s] * n
    durations[0] += max(0.0, straggler_s)
    workers = [
        machine.sim.process(machine.compute(dur), name=f"map{i}")
        for i, dur in enumerate(durations)
    ]
    yield AllOf(machine.sim, workers)
    yield from machine.join_wave(n)


def spill_write(machine: ScaleUpMachine, live_bytes: float,
                profile: AppCostProfile) -> Iterator:
    """One spill: sort the live container, then write the run to disk.

    The sort is a single-threaded in-memory scan at the app's block-sort
    rate (the spill runs inline on the inserting thread while the wave
    stalls); the write is charged to the machine's disk write channel as
    iowait, shrunk by the app's combine-on-spill ratio.
    """
    if live_bytes <= 0:
        return
    yield from machine.scan_memory(live_bytes, profile.sort_block_bw)
    machine.cpu.io_blocked += 1
    try:
        yield machine.disk.write(live_bytes * profile.spill_combine_ratio)
    finally:
        machine.cpu.io_blocked -= 1


def spill_read(machine: ScaleUpMachine, nbytes: float) -> Iterator:
    """Stream spilled run bytes back off the disk (iowait)."""
    if nbytes <= 0:
        return
    machine.cpu.io_blocked += 1
    try:
        yield machine.disk.read(nbytes)
    finally:
        machine.cpu.io_blocked -= 1


def spill_rewrite(machine: ScaleUpMachine, nbytes: float) -> Iterator:
    """One external-merge consolidation pass over ``nbytes`` of runs.

    Streams the source runs off the disk and writes the single merged
    run back; both directions are charged as iowait (the heap scan at
    memory rates is negligible next to the disk).
    """
    if nbytes <= 0:
        return
    machine.cpu.io_blocked += 1
    try:
        yield machine.disk.read(nbytes)
        yield machine.disk.write(nbytes)
    finally:
        machine.cpu.io_blocked -= 1


def reduce_phase(machine: ScaleUpMachine, input_bytes: float,
                 profile: AppCostProfile, map_rounds: int,
                 chunk_bytes: float | None = None) -> Iterator:
    """All contexts busy for the modelled reduce duration."""
    n = machine.spec.contexts
    wall_s = profile.reduce_wall_s(input_bytes, map_rounds, chunk_bytes)
    if wall_s <= 0:
        return
    workers = [
        machine.sim.process(machine.compute(wall_s), name=f"reduce{i}")
        for i in range(n)
    ]
    yield AllOf(machine.sim, workers)


def _block_sorts(machine: ScaleUpMachine, inter_bytes: float,
                 profile: AppCostProfile, n_runs: int) -> Iterator:
    """Initial parallel small-list sorts (start of either merge)."""
    per_run = inter_bytes / n_runs
    workers = [
        machine.sim.process(
            machine.scan_memory(per_run, profile.sort_block_bw),
            name=f"blocksort{i}",
        )
        for i in range(n_runs)
    ]
    yield AllOf(machine.sim, workers)


def merge_pairwise(machine: ScaleUpMachine, inter_bytes: float,
                   profile: AppCostProfile, n_runs: int | None = None) -> Iterator:
    """Phoenix merge: block sorts, then 2-way rounds with halving workers."""
    n_runs = n_runs or machine.spec.contexts
    if inter_bytes <= 0:
        return
    yield from _block_sorts(machine, inter_bytes, profile, n_runs)
    run_len = max(1, int(inter_bytes // n_runs))
    for rnd in merge_rounds_schedule([run_len] * n_runs):
        per_worker_bytes = inter_bytes * (rnd.items_scanned / (run_len * n_runs))
        per_worker_bytes /= rnd.merges
        workers = [
            machine.sim.process(
                machine.scan_memory(per_worker_bytes, profile.merge_scan_bw),
                name=f"merge-r{rnd.index}w{i}",
            )
            for i in range(rnd.merges)
        ]
        yield AllOf(machine.sim, workers)


def merge_pway(machine: ScaleUpMachine, inter_bytes: float,
               profile: AppCostProfile, n_runs: int | None = None) -> Iterator:
    """SupMR merge: block sorts, then one p-way pass with all contexts."""
    n_runs = n_runs or machine.spec.contexts
    if inter_bytes <= 0:
        return
    yield from _block_sorts(machine, inter_bytes, profile, n_runs)
    p = machine.spec.contexts
    per_worker = inter_bytes / p
    bw = profile.pway_scan_bw(n_runs)
    workers = [
        machine.sim.process(
            machine.scan_memory(per_worker, bw), name=f"pway{i}"
        )
        for i in range(p)
    ]
    yield AllOf(machine.sim, workers)
