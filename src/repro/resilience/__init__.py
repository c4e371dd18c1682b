"""Supervision and durability for long scale-up jobs (``repro.resilience``).

PR 2 made *records* survivable (retry, quarantine) and PR 3 made the
runtime *parallel* (forked workers); this package makes the job itself
survive the failures those two create room for:

* :mod:`~repro.resilience.supervisor` — forked waves under per-task
  leases: dead workers are respawned, orphaned tasks re-dispatched,
  hung tasks killed at lease expiry, and poison tasks quarantined
  through the existing skip budget;
* :mod:`~repro.resilience.journal` — a crash-safe
  :class:`~repro.resilience.journal.JobJournal` (atomic rename + CRC)
  checkpointing completed ingest rounds, sealed spill runs, and reduced
  partitions, so ``--resume`` after a ``kill -9`` skips finished work
  and produces byte-identical output;
* :mod:`~repro.resilience.degrade` — the graceful-degradation ladder
  (process → thread → serial on unrecoverable pool failure) and the
  whole-job :class:`~repro.resilience.degrade.Deadline`;
* :mod:`~repro.resilience.gates` — the per-task ``worker.crash`` /
  ``task.hang`` schedule, stepped in place by the serial / thread wave
  before it dispatches and per observed death by the supervisor, so it
  is identical across backends.
"""

from repro.resilience.degrade import (
    Deadline,
    next_backend,
    run_with_degradation,
)
from repro.resilience.gates import gate_worker_sites, worker_sites_armed
from repro.resilience.journal import JobJournal, job_fingerprint
from repro.resilience.supervisor import SupervisionResult, Supervisor

__all__ = [
    "Deadline",
    "JobJournal",
    "SupervisionResult",
    "Supervisor",
    "gate_worker_sites",
    "job_fingerprint",
    "next_backend",
    "run_with_degradation",
    "worker_sites_armed",
]
