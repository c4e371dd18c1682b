"""Out-of-core intermediate store: memory budget, spill runs, external merge.

The paper's 384 GB testbed never leaves the everything-fits-in-RAM
regime; production scale-up deployments do.  This package closes that
gap with a bounded-memory execution mode both runtimes share:

* :class:`~repro.spill.accountant.MemoryAccountant` charges container
  inserts against a configurable budget;
* :class:`~repro.spill.container.SpillableContainer` wraps any
  intermediate container, draining it into checksummed, key-sorted
  **run files** (:mod:`repro.spill.runfile`) whenever the next insert
  would cross the budget — applying the job's combiner on the way out
  (combine-on-spill, as in Hadoop-style in-node combining);
* :class:`~repro.spill.external_merge.ExternalPwayMerge` streams all
  runs plus the resident container back a block at a time in bounded
  memory, consolidating with ``fan_in``-way passes when needed;
* :class:`~repro.spill.stats.SpillStats` reports runs, bytes, combine
  reduction and merge fan-in on every job result.

Activate it with ``RuntimeOptions(memory_budget="64MB")`` — both the
Phoenix baseline and the SupMR runtime honour it.
"""

from repro.spill.accountant import (
    MemoryAccountant,
    estimate_pair_bytes,
    estimate_value_bytes,
)
from repro.spill.container import SpillableContainer
from repro.spill.external_merge import ExternalPwayMerge, merge_spilled
from repro.spill.manager import (
    DEFAULT_MERGE_FAN_IN,
    RunInfo,
    SpillManager,
    group_sorted_pairs,
)
from repro.spill.runfile import RunReader, RunWriter
from repro.spill.stats import SpillStats

__all__ = [
    "MemoryAccountant",
    "estimate_pair_bytes",
    "estimate_value_bytes",
    "SpillableContainer",
    "ExternalPwayMerge",
    "merge_spilled",
    "SpillManager",
    "RunInfo",
    "group_sorted_pairs",
    "DEFAULT_MERGE_FAN_IN",
    "RunReader",
    "RunWriter",
    "SpillStats",
]
