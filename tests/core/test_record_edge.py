"""How many groups a sort job builds: none.

Sort's reducer is the identity, and every partition it can be handed is
stored as flat ``(key, value)`` records — the array container's
segments in memory, the merged run blocks under a budget, the merged
exchange blocks of a sharded run.  ``reduce_partition`` takes those
records as they are; the two functions that dress a record as
``(key, (value,))`` refuse to be called here, in whichever process the
reduce runs (shard workers are forked, so they inherit the refusal).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.apps.sortapp import make_sort_job, reference_sort
from repro.core.options import RuntimeOptions
from repro.core.supmr import SupMRRuntime
from repro.parallel.backends import fork_available
from repro.shard import run_sharded

needs_fork = pytest.mark.skipif(not fork_available(), reason="needs os.fork")

OPTIONS = RuntimeOptions.supmr_interfile("32KB", num_mappers=2, num_reducers=3)


@pytest.fixture
def no_groups(monkeypatch):
    def refuse(block):
        raise AssertionError("a group was built for the identity reducer")

    monkeypatch.setattr("repro.spill.manager.group_sorted_block", refuse)
    monkeypatch.setattr(
        "repro.containers.array_container._cells_as_groups", refuse
    )


@pytest.mark.parametrize("backend", [
    "serial", pytest.param("process", marks=needs_fork),
])
def test_in_memory_sort_builds_no_group(terasort_file, no_groups, backend):
    result = SupMRRuntime(OPTIONS.with_(executor_backend=backend)).run(
        make_sort_job([terasort_file])
    )
    assert result.output == reference_sort([terasort_file])


def test_budgeted_sort_builds_no_group(terasort_file, no_groups):
    result = SupMRRuntime(OPTIONS.with_(memory_budget="40KB")).run(
        make_sort_job([terasort_file])
    )
    assert result.spill_stats.runs >= 9
    assert result.output == reference_sort([terasort_file])
    assert result.container_stats.distinct_keys == len(result.output)


@needs_fork
def test_two_shard_sort_builds_no_group(terasort_file, no_groups):
    result = run_sharded(
        make_sort_job([terasort_file]), OPTIONS.with_(num_shards=2)
    )
    assert result.output == reference_sort([terasort_file])


@pytest.mark.parametrize("budget", [None, "40KB"])
def test_any_other_reducer_is_still_handed_groups(
    terasort_file, no_groups, budget
):
    # The control: the refusal is on the path of a reducer that is not
    # the identity, in memory and out of core.
    job = replace(
        make_sort_job([terasort_file]),
        reduce_fn=lambda key, values: [(key, len(values))],
    )
    options = OPTIONS.with_(executor_backend="serial", memory_budget=budget)
    with pytest.raises(AssertionError, match="a group was built"):
        SupMRRuntime(options).run(job)
