"""The executable MapReduce runtimes: Phoenix baseline and SupMR.

:class:`repro.core.phoenix.PhoenixRuntime` reproduces the traditional
scale-up flow (ingest everything, then map, reduce, 2-way merge rounds);
:class:`repro.core.supmr.SupMRRuntime` adds the paper's contributions —
the ingest chunk pipeline, the persistent intermediate container, and the
single-pass p-way merge — behind the ``run_ingestMR()``-style entry point
:func:`repro.core.supmr.run_ingest_mr`.
"""

from repro.core.job import JobSpec, MapContext
from repro.core.options import ChunkStrategy, MergeAlgorithm, RuntimeOptions
from repro.core.phoenix import PhoenixRuntime
from repro.core.result import JobResult, PhaseTimings, RoundTiming
from repro.core.supmr import SupMRRuntime, run_ingest_mr, run_job
from repro.core.timers import PhaseTimer

__all__ = [
    "JobSpec",
    "MapContext",
    "RuntimeOptions",
    "ChunkStrategy",
    "MergeAlgorithm",
    "PhoenixRuntime",
    "SupMRRuntime",
    "run_ingest_mr",
    "run_job",
    "JobResult",
    "PhaseTimings",
    "RoundTiming",
    "PhaseTimer",
]
