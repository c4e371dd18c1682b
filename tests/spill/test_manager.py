"""Spill manager: run inventory, combine-on-spill, stats, cleanup."""

from __future__ import annotations

import pytest

from repro.containers.combiners import SumCombiner
from repro.errors import SpillError
from repro.exitcodes import EXIT_FAILURE, classify_exception
from repro.spill.manager import (
    SpillManager,
    group_sorted_block,
    group_sorted_pairs,
)
from tests.spill.damage import DAMAGE, rewrite_as_v1, rewrite_as_v2


class TestGroupSortedPairs:
    def test_adjacent_keys_collapse(self):
        pairs = [(b"a", [1]), (b"a", [2, 3]), (b"b", [4])]
        assert list(group_sorted_pairs(pairs)) == [
            (b"a", (1, 2, 3)), (b"b", (4,)),
        ]

    def test_empty(self):
        assert list(group_sorted_pairs([])) == []

    def test_value_order_preserved(self):
        pairs = [(b"k", [3]), (b"k", [1]), (b"k", [2])]
        assert list(group_sorted_pairs(pairs)) == [(b"k", (3, 1, 2))]


def wrapped(block):
    """Flat records as the 1-value entries ``group_sorted_pairs`` takes."""
    return [(key, (value,)) for key, value in block]


class TestGroupSortedBlock:
    def test_equals_the_streaming_grouping(self):
        block = [(b"a", 1), (b"a", 2), (b"a", 3), (b"b", 4), (b"c", 5)]
        groups, count = group_sorted_block(block)
        assert list(groups) == list(group_sorted_pairs(wrapped(block)))
        assert count == 3

    def test_distinct_keys_only_freeze_the_values(self):
        groups, count = group_sorted_block([(b"a", 1), (b"b", [2])])
        assert list(groups) == [(b"a", (1,)), (b"b", ([2],))]
        assert count == 2

    def test_distinct_keys_never_reach_the_streaming_grouping(
        self, monkeypatch
    ):
        def refuse(pairs):
            raise AssertionError("group_sorted_pairs on a unique-key block")

        monkeypatch.setattr("repro.spill.manager.group_sorted_pairs", refuse)
        groups, _count = group_sorted_block([(b"a", 1), (b"b", 2)])
        assert list(groups) == [(b"a", (1,)), (b"b", (2,))]

    def test_empty(self):
        groups, count = group_sorted_block([])
        assert (list(groups), count) == ([], 0)


class TestSpillPairs:
    def test_run_is_key_sorted(self, tmp_path):
        mgr = SpillManager(1024, spill_dir=tmp_path)
        info = mgr.spill_pairs([(b"c", [1]), (b"a", [1]), (b"b", [1])], raw=True)
        assert list(mgr.open_run(info)) == [(b"a", 1), (b"b", 1), (b"c", 1)]

    def test_combine_on_spill_folds_raw_drains(self, tmp_path):
        mgr = SpillManager(1024, spill_dir=tmp_path, combiner=SumCombiner())
        info = mgr.spill_pairs(
            [(b"a", [1]), (b"b", [1]), (b"a", [1]), (b"a", [1])], raw=True
        )
        assert list(mgr.open_run(info)) == [(b"a", 3), (b"b", 1)]
        stats = mgr.stats()
        assert stats.combine_pairs_in == 4
        assert stats.combine_pairs_out == 2
        assert stats.combine_reduction == pytest.approx(2.0)

    def test_aggregate_drains_are_not_refolded(self, tmp_path):
        # Pairs drained from a combining container are per-key aggregates;
        # folding them again through SumCombiner would be fine for sums
        # but wrong in general, so non-raw drains pass through as they are.
        mgr = SpillManager(1024, spill_dir=tmp_path, combiner=SumCombiner())
        info = mgr.spill_pairs(
            [(b"a", [5]), (b"b", [2]), (b"a", [4])], raw=False
        )
        assert list(mgr.open_run(info)) == [(b"a", 5), (b"a", 4), (b"b", 2)]

    def test_no_combiner_groups_only(self, tmp_path):
        # Nothing is folded and nothing is wrapped: a key's values sit
        # side by side, in arrival order, and count as records.
        mgr = SpillManager(1024, spill_dir=tmp_path)
        info = mgr.spill_pairs(
            [(b"b", [0]), (b"a", [1]), (b"a", [2, 3])], raw=True
        )
        assert list(mgr.open_run(info)) == [
            (b"a", 1), (b"a", 2), (b"a", 3), (b"b", 0),
        ]
        stats = mgr.stats()
        assert info.records == stats.spilled_records == 4
        assert (stats.combine_pairs_in, stats.combine_pairs_out) == (4, 4)
        assert stats.combine_reduction == 1.0  # grouping is not a reduction

    def test_spill_records_is_the_same_path(self, tmp_path):
        # spill_pairs only flattens; the container's drain goes straight
        # to spill_records and writes the same file.
        entries = [(b"c", [1]), (b"a", [2, 3]), (b"c", [4])]
        one = SpillManager(1024, spill_dir=tmp_path / "one").spill_pairs(
            entries, raw=True
        )
        two = SpillManager(1024, spill_dir=tmp_path / "two").spill_records(
            [(b"c", 1), (b"a", 2), (b"a", 3), (b"c", 4)], raw=True
        )
        assert one.path.read_bytes() == two.path.read_bytes()

    def test_empty_spill_rejected(self, tmp_path):
        mgr = SpillManager(1024, spill_dir=tmp_path)
        with pytest.raises(SpillError, match="empty"):
            mgr.spill_pairs([], raw=True)

    def test_stats_accumulate_across_runs(self, tmp_path):
        mgr = SpillManager(1024, spill_dir=tmp_path)
        mgr.spill_pairs([(b"a", [1])], raw=True)
        mgr.spill_pairs([(b"b", [1]), (b"c", [1])], raw=True)
        stats = mgr.stats()
        assert stats.runs == 2
        assert stats.spilled_records == 3
        assert stats.spilled_bytes > 0
        assert stats.spill_write_s >= 0


class TestLifecycle:
    def test_fan_in_validated(self, tmp_path):
        with pytest.raises(SpillError):
            SpillManager(1024, spill_dir=tmp_path, merge_fan_in=1)

    def test_cleanup_removes_run_files(self, tmp_path):
        mgr = SpillManager(1024, spill_dir=tmp_path)
        info = mgr.spill_pairs([(b"a", [1])], raw=True)
        assert info.path.exists()
        mgr.cleanup()
        assert not info.path.exists()
        assert not mgr.runs

    def test_cleanup_removes_owned_tempdir(self):
        mgr = SpillManager(1024)
        mgr.spill_pairs([(b"a", [1])], raw=True)
        spill_dir = mgr.spill_dir
        assert spill_dir.exists()
        mgr.cleanup()
        assert not spill_dir.exists()


class TestAdoptRuns:
    def _sealed_run(self, tmp_path):
        old = SpillManager(1024, spill_dir=tmp_path)
        return old.spill_pairs([(b"a", [1]), (b"b", [2])], raw=True)

    def test_sealed_run_is_adopted_and_counted(self, tmp_path):
        info = self._sealed_run(tmp_path)
        mgr = SpillManager(1024, spill_dir=tmp_path)
        mgr.adopt_runs([info])
        assert list(mgr.open_run(mgr.runs[0])) == [(b"a", 1), (b"b", 2)]
        assert mgr.stats().spilled_records == 2

    @pytest.mark.parametrize("kind", sorted(DAMAGE))
    def test_damaged_run_is_refused_with_the_typed_error(self, tmp_path, kind):
        info = self._sealed_run(tmp_path)
        DAMAGE[kind](info.path)
        mgr = SpillManager(1024, spill_dir=tmp_path)
        with pytest.raises(SpillError):
            mgr.adopt_runs([info])
        assert not mgr.runs

    def test_format_1_run_from_an_older_checkpoint(self, tmp_path):
        info = self._sealed_run(tmp_path)
        rewrite_as_v1(info.path)
        mgr = SpillManager(1024, spill_dir=tmp_path)
        with pytest.raises(SpillError, match="version 1") as exc:
            mgr.adopt_runs([info])
        assert classify_exception(exc.value) == EXIT_FAILURE

    def test_format_2_run_from_an_older_checkpoint(self, tmp_path):
        # A grouped-block run is intact by every checksum; adopting it
        # would merge (key, values_tuple) groups as if they were records.
        info = self._sealed_run(tmp_path)
        rewrite_as_v2(info.path)
        mgr = SpillManager(1024, spill_dir=tmp_path)
        with pytest.raises(SpillError, match="version 2") as exc:
            mgr.adopt_runs([info])
        assert classify_exception(exc.value) == EXIT_FAILURE
        assert not mgr.runs
