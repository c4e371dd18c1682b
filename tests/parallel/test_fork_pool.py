"""fork_map: forked fan-out with COW inheritance."""

from __future__ import annotations

import os

import pytest

from repro.errors import ParallelError
from repro.parallel.backends import fork_available
from repro.parallel.fork_pool import fork_map

pytestmark = pytest.mark.skipif(not fork_available(), reason="needs os.fork")


class TestForkMap:
    def test_results_in_item_order(self):
        assert fork_map(lambda x: x * x, range(17), 4) == [
            i * i for i in range(17)
        ]

    def test_empty_items(self):
        assert fork_map(lambda x: x, [], 4) == []

    def test_closure_state_is_inherited(self):
        # The whole point of fork-at-call-time: closures (and whatever
        # they capture) need not be picklable.
        captured = {"base": 100, "fn": lambda v: v + 1}  # lambda: unpicklable

        def task(x):
            return captured["fn"](captured["base"] + x)

        assert fork_map(task, [1, 2], 2) == [102, 103]

    def test_worker_mutations_stay_in_worker(self):
        state = []

        def task(x):
            state.append(x)
            return len(state)

        assert fork_map(task, [1, 2, 3], 3) == [1, 1, 1]
        assert state == []  # parent copy untouched

    def test_exception_propagates(self):
        def task(x):
            if x == 2:
                raise ValueError("boom on 2")
            return x

        with pytest.raises(ValueError, match="boom on 2"):
            fork_map(task, range(5), 2)

    def test_lowest_index_failure_wins(self):
        # Matches the thread path's first-future-wins semantics.
        def task(x):
            if x in (1, 3):
                raise ValueError(f"boom on {x}")
            return x

        with pytest.raises(ValueError, match="boom on 1"):
            fork_map(task, range(5), 4)

    def test_unpicklable_result_becomes_parallel_error(self):
        with pytest.raises(ParallelError, match="could not be pickled"):
            fork_map(lambda x: (lambda: x), [0], 1)

    def test_dead_worker_detected(self):
        def task(x):
            if x == 1:
                os._exit(13)
            return x

        with pytest.raises(ParallelError, match="killed its worker"):
            fork_map(task, range(3), 2)

    def test_dead_worker_error_names_the_worker_and_exit_code(self):
        def task(x):
            if x == 1:
                os._exit(13)
            return x

        with pytest.raises(ParallelError, match=r"repro-pool-\d+ exited with code 13"):
            fork_map(task, range(3), 2)
