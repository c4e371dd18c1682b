"""Spillable container: budget enforcement, equivalence, transparency."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.containers.array_container import ArrayContainer
from repro.containers.combiners import SumCombiner
from repro.containers.hash_container import HashContainer
from repro.errors import SpillError
from repro.spill.container import SpillableContainer
from repro.spill.manager import SpillManager

WORDS = [f"word{i:03d}".encode() for i in range(40)]


def fill(container, words, task_id=0):
    container.begin_round()
    emitter = container.emitter(task_id)
    for word in words:
        emitter.emit(word, 1)
    container.seal()


def totals(container, n_parts=4):
    out: dict[bytes, int] = {}
    for part in container.partitions(n_parts):
        for key, values in part:
            out[key] = out.get(key, 0) + sum(values)
    return out


class TestZeroSpillTransparency:
    def test_partitions_bit_identical_under_large_budget(self):
        mgr = SpillManager(64 * 1024 * 1024)
        try:
            spillable = SpillableContainer(
                lambda: HashContainer(SumCombiner()), mgr
            )
            plain = HashContainer(SumCombiner())
            fill(spillable, WORDS * 5)
            fill(plain, WORDS * 5)
            assert spillable.partitions(4) == plain.partitions(4)
            assert mgr.stats().runs == 0
        finally:
            mgr.cleanup()

    def test_adopts_inner_combiner(self):
        mgr = SpillManager(1 << 20)
        try:
            SpillableContainer(lambda: HashContainer(SumCombiner()), mgr)
            assert isinstance(mgr.combiner, SumCombiner)
        finally:
            mgr.cleanup()


class TestSpilledEquivalence:
    def test_tiny_budget_forces_runs_and_preserves_totals(self):
        words = [WORDS[i % len(WORDS)] for i in range(600)]
        budget = 2048
        mgr = SpillManager(budget)
        try:
            spillable = SpillableContainer(
                lambda: HashContainer(SumCombiner()), mgr
            )
            plain = HashContainer(SumCombiner())
            fill(spillable, words)
            fill(plain, words)
            assert totals(spillable) == totals(plain)
            stats = mgr.stats()
            assert stats.runs >= 3
            assert stats.peak_accounted_bytes <= budget
            assert stats.within_budget
        finally:
            mgr.cleanup()

    def test_array_container_combines_on_spill(self):
        words = [WORDS[i % 4] for i in range(400)]  # heavy duplication
        mgr = SpillManager(2048, combiner=SumCombiner())
        try:
            spillable = SpillableContainer(ArrayContainer, mgr)
            plain = ArrayContainer()
            fill(spillable, words)
            fill(plain, words)
            assert totals(spillable) == totals(plain)
            stats = mgr.stats()
            assert stats.runs >= 3
            # 4 distinct keys: the combiner must shrink every run to at
            # most one record per key.
            assert stats.combine_pairs_out < stats.combine_pairs_in
            assert stats.combine_pairs_out <= stats.runs * 4
            assert stats.combine_reduction > 2
        finally:
            mgr.cleanup()

    def test_stats_count_every_emit(self):
        mgr = SpillManager(2048)
        try:
            spillable = SpillableContainer(
                lambda: HashContainer(SumCombiner()), mgr
            )
            fill(spillable, WORDS * 20)
            spillable.partitions(2)  # distinct keys are exact post-merge
            stats = spillable.stats()
            assert stats.emits == len(WORDS) * 20
            assert stats.distinct_keys == len(WORDS)
        finally:
            mgr.cleanup()

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.sampled_from(WORDS), max_size=300))
    def test_property_totals_match_in_memory(self, words):
        budget = 2048
        mgr = SpillManager(budget)
        try:
            spillable = SpillableContainer(
                lambda: HashContainer(SumCombiner()), mgr
            )
            plain = HashContainer(SumCombiner())
            fill(spillable, words)
            fill(plain, words)
            assert totals(spillable) == totals(plain)
            assert mgr.stats().peak_accounted_bytes <= budget
        finally:
            mgr.cleanup()


class TestBudgetEnforcement:
    def test_pair_larger_than_budget_is_a_config_error(self):
        mgr = SpillManager(16)
        try:
            spillable = SpillableContainer(
                lambda: HashContainer(SumCombiner()), mgr
            )
            spillable.begin_round()
            with pytest.raises(SpillError, match="budget too small"):
                spillable.emitter(0).emit(b"some-word", 1)
        finally:
            mgr.cleanup()

    def test_accounted_memory_released_after_partitions(self):
        mgr = SpillManager(2048)
        try:
            spillable = SpillableContainer(
                lambda: HashContainer(SumCombiner()), mgr
            )
            fill(spillable, WORDS * 10)
            spillable.partitions(2)
            assert mgr.accountant.current == 0
        finally:
            mgr.cleanup()


def _drive_gate(inner_factory, batches, budget, combined, bulk):
    """Push ``batches`` (one map task each) through a fresh spillable
    container, a batch or a pair at a time; report everything the gate
    decides."""
    mgr = SpillManager(budget)
    try:
        container = SpillableContainer(inner_factory, mgr)
        container.begin_round()
        error = None
        try:
            for task_id, batch in enumerate(batches):
                emitter = container.emitter(task_id)
                if combined:
                    states = dict(batch)
                    if bulk:
                        emitter.emit_combined(states, len(states))
                    else:
                        for key, state in states.items():
                            emitter.emit_combined({key: state}, 1)
                elif bulk:
                    emitter.emit_many(batch)
                else:
                    for key, value in batch:
                        emitter.emit(key, value)
        except SpillError as exc:
            error = str(exc)
        stats = mgr.stats()
        return {
            "runs": [list(mgr.open_run(info)) for info in mgr.runs],
            "run_count": stats.runs,
            "spilled_records": stats.spilled_records,
            "peak": stats.peak_accounted_bytes,
            "accounted": mgr.accountant.current,
            "charges": mgr.accountant.charges,
            "container": container.stats(),
            "error": error,
        }
    finally:
        mgr.cleanup()


_PAIR = st.tuples(
    st.sampled_from(WORDS[:12]) | st.binary(max_size=30),
    st.integers(0, 1 << 70),
)
_BATCHES = st.lists(st.lists(_PAIR, max_size=40), min_size=1, max_size=4)
# From "no pair fits" through "spills every few pairs" to "never spills".
_BUDGET = st.integers(60, 6000)


class TestBulkGateParity:
    """A batch through the gate == the same pairs one ``emit`` at a time:
    run files cut at the same pair, same accounting, same errors."""

    @settings(max_examples=120, deadline=None)
    @given(_BATCHES, _BUDGET)
    def test_array_inner(self, batches, budget):
        bulk = _drive_gate(ArrayContainer, batches, budget, False, True)
        single = _drive_gate(ArrayContainer, batches, budget, False, False)
        assert bulk == single

    @settings(max_examples=120, deadline=None)
    @given(_BATCHES, _BUDGET)
    def test_hash_inner(self, batches, budget):
        def inner():
            return HashContainer(SumCombiner())

        bulk = _drive_gate(inner, batches, budget, False, True)
        single = _drive_gate(inner, batches, budget, False, False)
        assert bulk == single

    @settings(max_examples=120, deadline=None)
    @given(_BATCHES, _BUDGET)
    def test_folded_states(self, batches, budget):
        def inner():
            return HashContainer(SumCombiner())

        bulk = _drive_gate(inner, batches, budget, True, True)
        single = _drive_gate(inner, batches, budget, True, False)
        assert bulk == single

    def test_matrix_is_not_vacuous(self):
        batches = [[(w, i) for i, w in enumerate(WORDS)] * 3]
        spilled = _drive_gate(ArrayContainer, batches, 1500, False, True)
        assert spilled["run_count"] >= 3 and spilled["error"] is None
        assert spilled["peak"] <= 1500
        too_small = _drive_gate(ArrayContainer, batches, 60, False, True)
        assert "budget too small" in too_small["error"]
        big_second = _drive_gate(
            ArrayContainer, [[(b"a", 1), (b"x" * 5000, 1)]], 1500, False, True
        )
        assert "would exceed" in big_second["error"]
        assert big_second["run_count"] == 1
