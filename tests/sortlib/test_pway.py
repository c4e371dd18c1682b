"""Parallel p-way merge (the SupMR merge)."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sortlib.kway import kway_merge
from repro.sortlib.pway import pway_merge

sorted_runs = st.lists(
    st.lists(st.integers(min_value=-20, max_value=20)).map(sorted),
    max_size=8,
)


class TestPwayMerge:
    def test_empty(self):
        assert pway_merge([], 4) == []

    def test_invalid_parallelism(self):
        with pytest.raises(ValueError):
            pway_merge([[1]], 0)

    def test_single_worker_degenerates_to_kway(self):
        runs = [[1, 4], [2, 3]]
        assert pway_merge(runs, 1) == [1, 2, 3, 4]

    def test_parallelism_exceeding_items_is_clamped(self):
        assert pway_merge([[1], [2]], 100) == [1, 2]

    def test_tie_order_matches_kway(self):
        runs = [[(2, "a")], [(2, "b")], [(1, "c"), (2, "d")]]
        key = lambda kv: kv[0]  # noqa: E731
        assert pway_merge(runs, 3, key) == kway_merge(runs, key)

    def test_with_real_executor(self):
        runs = [sorted(range(i, 100, 7)) for i in range(7)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            merged = pway_merge(runs, 4, executor=pool)
        assert merged == sorted(x for r in runs for x in r)

    @given(sorted_runs, st.integers(min_value=1, max_value=6))
    def test_property_equals_sorted_union(self, runs, p):
        assert pway_merge(runs, p) == sorted(x for r in runs for x in r)

    @given(sorted_runs, st.integers(min_value=1, max_value=6))
    def test_property_identical_to_sequential_kway(self, runs, p):
        # including tie order: tag elements to make ties observable
        tagged = [
            [(x, idx, pos) for pos, x in enumerate(run)]
            for idx, run in enumerate(runs)
        ]
        key = lambda t: t[0]  # noqa: E731
        assert pway_merge(tagged, p, key) == kway_merge(tagged, key)

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=8))
    def test_property_parallelism_never_changes_output(self, k, p):
        runs = [sorted(range(i, 40, k)) for i in range(k)]
        assert pway_merge(runs, p) == pway_merge(runs, 1)

    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=2), max_size=30)
            .map(sorted),
            max_size=8,
        ),
        st.sampled_from([1, 2, 3, 8]),
    )
    def test_property_heavy_ties_keep_kway_order(self, runs, p):
        # Three distinct keys over up to 240 items: nearly every cut
        # lands inside a tie group, and the sort-based range merge must
        # still emit ties run by run, in run order.
        tagged = [
            [(x, idx, pos) for pos, x in enumerate(run)]
            for idx, run in enumerate(runs)
        ]
        key = lambda t: t[0]  # noqa: E731
        assert pway_merge(tagged, p, key) == kway_merge(tagged, key)
