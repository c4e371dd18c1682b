"""Job results and phase timing breakdowns.

:class:`PhaseTimings` carries the same columns as the paper's Table II —
total / read / map / reduce / merge — plus the per-round detail SupMR's
pipeline produces (:class:`~repro.pipeline.prefetch.RoundTiming`, the
pipeline's own record, re-exported here).  When the ingest pipeline is
active, read and map overlap; ``read_map_combined`` marks that, and
reports print the combined figure across both columns exactly as the
paper's table does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable

from repro.containers.base import ContainerStats
from repro.faults.log import FaultLog
from repro.pipeline.prefetch import RoundTiming
from repro.spill.stats import SpillStats


@dataclass(frozen=True)
class PhaseTimings:
    """Wall-clock seconds per job phase (Table II columns)."""

    read_s: float
    map_s: float
    reduce_s: float
    merge_s: float
    total_s: float
    read_map_combined: bool = False
    rounds: tuple[RoundTiming, ...] = ()
    #: Wall-clock spent writing spill runs (0 for in-memory execution).
    spill_s: float = 0.0

    @property
    def read_map_s(self) -> float:
        """Combined ingest+map wall-clock (the merged Table II cell)."""
        return self.read_s + self.map_s

    @property
    def compute_s(self) -> float:
        """Everything after ingest: map + reduce + merge."""
        return self.map_s + self.reduce_s + self.merge_s

    def speedup_vs(self, baseline: "PhaseTimings") -> dict[str, float]:
        """Per-phase speedup factors of ``baseline`` over self."""

        def ratio(b: float, s: float) -> float:
            return b / s if s > 0 else float("inf")

        return {
            "total": ratio(baseline.total_s, self.total_s),
            "read_map": ratio(baseline.read_map_s, self.read_map_s),
            "reduce": ratio(baseline.reduce_s, self.reduce_s),
            "merge": ratio(baseline.merge_s, self.merge_s),
        }


@dataclass
class JobResult:
    """Everything a finished job reports."""

    job_name: str
    runtime: str  # "phoenix" | "supmr"
    output: list[tuple[Hashable, Any]]
    timings: PhaseTimings
    container_stats: ContainerStats
    input_bytes: int
    n_chunks: int = 1
    counters: dict[str, Any] = field(default_factory=dict)
    #: Out-of-core counters; None when no memory budget was set.
    spill_stats: SpillStats | None = None
    #: Injection/recovery audit trail; None when no fault plan was armed.
    fault_log: FaultLog | None = None

    @property
    def n_output_pairs(self) -> int:
        return len(self.output)

    def output_keys(self) -> list[Hashable]:
        """The output keys, in output order."""
        return [k for k, _v in self.output]

    def output_digest(self) -> str:
        """A sha256 digest of the ordered output pairs.

        Two runs produced byte-identical output iff their digests match;
        the crash/resume tests and the CI soak legs diff this instead of
        shipping full outputs around.
        """
        import hashlib

        h = hashlib.sha256()
        for key, value in self.output:
            h.update(repr((key, value)).encode())
        return h.hexdigest()
