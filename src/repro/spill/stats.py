"""Spill counters reported on job results.

The runtime surfaces these so out-of-core runs can be audited: how many
runs were written, how many bytes, how much combine-on-spill saved, and
what the external merge looked like (fan-in, passes).  The
``peak_accounted_bytes <= budget_bytes`` pair is the bounded-memory
proof carried on every result.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class SpillStats:
    """Counters for one memory-budgeted job."""

    #: Configured memory budget in bytes.
    budget_bytes: int = 0
    #: High-water mark of accounted container memory (never > budget).
    peak_accounted_bytes: int = 0
    #: Spill runs written while mapping.
    runs: int = 0
    #: Payload bytes across all spill runs.
    spilled_bytes: int = 0
    #: ``(key, value)`` records across all spill runs — one per value.
    spilled_records: int = 0
    #: Records drained into spills (before combine-on-spill).
    combine_pairs_in: int = 0
    #: Records written to the runs (after combine-on-spill).
    combine_pairs_out: int = 0
    #: Streams merged per external-merge pass.
    merge_fan_in: int = 0
    #: External merge passes (1 = single pass; >1 = intermediate runs).
    merge_passes: int = 0
    #: Extra bytes rewritten by intermediate merge passes.
    merge_rewritten_bytes: int = 0
    #: Wall-clock seconds spent writing spill runs.
    spill_write_s: float = 0.0

    @property
    def combine_reduction(self) -> float:
        """Records drained per record written: what combine-on-spill
        folded away (1.0 when nothing was; a run stores a key's values
        side by side, so grouping alone removes no record)."""
        if self.combine_pairs_out <= 0:
            return 1.0
        return self.combine_pairs_in / self.combine_pairs_out

    @property
    def within_budget(self) -> bool:
        """True iff accounted memory never crossed the budget."""
        return self.peak_accounted_bytes <= self.budget_bytes
