"""Multisequence selection invariants."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sortlib.kway import kway_merge
from repro.sortlib.multiway_partition import multiway_partition, multiway_select

sorted_runs = st.lists(
    st.lists(st.integers(min_value=-50, max_value=50)).map(sorted),
    min_size=1,
    max_size=6,
)


class TestMultiwaySelect:
    def test_rank_zero_is_all_zeros(self):
        runs = [[1, 2], [3, 4]]
        assert multiway_select(runs, 0) == [0, 0]

    def test_rank_total_is_all_lengths(self):
        runs = [[1, 2], [3, 4, 5]]
        assert multiway_select(runs, 5) == [2, 3]

    def test_out_of_range_rank_raises(self):
        with pytest.raises(ValueError):
            multiway_select([[1]], 2)
        with pytest.raises(ValueError):
            multiway_select([[1]], -1)

    def test_simple_median(self):
        runs = [[1, 3, 5], [2, 4, 6]]
        cuts = multiway_select(runs, 3)
        left = runs[0][: cuts[0]] + runs[1][: cuts[1]]
        assert sorted(left) == [1, 2, 3]

    def test_ties_go_to_lower_runs_first(self):
        runs = [[5, 5], [5, 5], [5, 5]]
        cuts = multiway_select(runs, 3)
        assert cuts == [2, 1, 0]

    def test_empty_runs_handled(self):
        runs = [[], [1, 2, 3], []]
        cuts = multiway_select(runs, 2)
        assert cuts == [0, 2, 0]

    @given(sorted_runs, st.data())
    def test_property_cut_invariants(self, runs, data):
        total = sum(len(r) for r in runs)
        rank = data.draw(st.integers(min_value=0, max_value=total))
        cuts = multiway_select(runs, rank)
        # sizes match the rank
        assert sum(cuts) == rank
        assert all(0 <= c <= len(r) for c, r in zip(cuts, runs))
        # every left element <= every right element
        left = [x for r, c in zip(runs, cuts) for x in r[:c]]
        right = [x for r, c in zip(runs, cuts) for x in r[c:]]
        if left and right:
            assert max(left) <= min(right)


class TestMultiwayPartition:
    def test_single_part_is_whole_range(self):
        runs = [[1, 2], [3]]
        bounds = multiway_partition(runs, 1)
        assert bounds == [[0, 0], [2, 1]]

    def test_invalid_parts(self):
        with pytest.raises(ValueError):
            multiway_partition([[1]], 0)

    def test_parts_are_balanced(self):
        runs = [list(range(0, 100, 2)), list(range(1, 100, 2))]
        bounds = multiway_partition(runs, 4)
        sizes = [
            sum(b1 - b0 for b0, b1 in zip(bounds[t], bounds[t + 1]))
            for t in range(4)
        ]
        assert sizes == [25, 25, 25, 25]

    def test_key_column_is_computed_once_for_all_cuts(self):
        runs = [list(range(0, 100, 2)), list(range(1, 100, 2))]
        calls = []

        def key(x):
            calls.append(x)
            return x

        assert multiway_partition(runs, 8, key) == multiway_partition(runs, 8)
        assert len(calls) == 100  # not 7 cuts x 100

    @given(sorted_runs, st.integers(min_value=1, max_value=8))
    def test_property_partition_reconstructs_merge(self, runs, parts):
        bounds = multiway_partition(runs, parts)
        out = []
        for t in range(parts):
            slices = [r[bounds[t][j]: bounds[t + 1][j]]
                      for j, r in enumerate(runs)]
            out.extend(kway_merge(slices))
        assert out == kway_merge(runs)

    @given(sorted_runs, st.integers(min_value=1, max_value=8))
    def test_property_boundaries_monotone(self, runs, parts):
        bounds = multiway_partition(runs, parts)
        for t in range(parts):
            assert all(a <= b for a, b in zip(bounds[t], bounds[t + 1]))

    @given(sorted_runs, st.integers(min_value=1, max_value=8))
    def test_property_part_sizes_differ_by_at_most_one(self, runs, parts):
        total = sum(len(r) for r in runs)
        bounds = multiway_partition(runs, parts)
        sizes = [
            sum(b1 - b0 for b0, b1 in zip(bounds[t], bounds[t + 1]))
            for t in range(parts)
        ]
        assert sum(sizes) == total
        if sizes:
            assert max(sizes) - min(sizes) <= 1
