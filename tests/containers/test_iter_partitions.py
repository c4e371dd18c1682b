"""``iter_partitions(n)``: the lazy reducer input equals ``partitions(n)``.

``run_reducers`` consumes the lazy form; ``partitions(n)`` keeps its
contract (picklable lists of ``(key, values)``) for the spill path, the
shard exchange and the benchmark's replay.  Whatever a container does
to avoid building the wrappers, a reducer must see the same groups in
the same order — compared here with each ``values`` as a list, because
the lazy form may hand out any sequence.
"""

from __future__ import annotations

import pickle

import pytest

from repro.containers.array_container import ArrayContainer
from repro.containers.combiners import SumCombiner
from repro.containers.fixed_array import FixedArrayContainer
from repro.containers.hash_container import HashContainer
from repro.errors import ContainerError
from repro.spill.container import SpillableContainer
from repro.spill.manager import SpillManager

KEYS = [f"k{i % 23:02d}".encode() for i in range(200)]


def _filled(container, keyed=True):
    """Seven tasks over two rounds, so segments outnumber partitions."""
    for round_tasks in (range(4), range(4, 7)):
        container.begin_round()
        for task_id in round_tasks:
            emitter = container.emitter(task_id)
            for i, key in enumerate(KEYS[task_id::7]):
                emitter.emit(key if keyed else (task_id + i) % 16, i + 1)
    container.seal()
    return container


def _materialized(lazy):
    return [[(key, list(values)) for key, values in part] for part in lazy]


_IN_MEMORY = {
    "array": lambda: _filled(ArrayContainer()),
    "hash": lambda: _filled(HashContainer(SumCombiner())),
    "fixed": lambda: _filled(FixedArrayContainer(16), keyed=False),
}


@pytest.mark.parametrize("n", [1, 2, 3, 8])
class TestLazyEqualsMaterialized:
    @pytest.mark.parametrize("family", sorted(_IN_MEMORY))
    def test_in_memory_containers(self, family, n):
        container = _IN_MEMORY[family]()
        assert _materialized(container.iter_partitions(n)) == (
            container.partitions(n)
        )

    def test_spillable_container_that_spilled(self, n):
        def spilled():
            manager = SpillManager(2048)
            return manager, _filled(SpillableContainer(ArrayContainer, manager))

        lazy_mgr, lazy = spilled()
        eager_mgr, eager = spilled()
        try:
            got = _materialized(lazy.iter_partitions(n))
            assert lazy_mgr.stats().runs > 0, "budget never spilled"
            assert got == eager.partitions(n)
        finally:
            lazy_mgr.cleanup()
            eager_mgr.cleanup()


class TestArrayLazyForm:
    def test_no_group_is_built_before_it_is_asked_for(self):
        container = _filled(ArrayContainer())
        parts = container.iter_partitions(2)
        assert not any(isinstance(part, list) for part in parts)
        assert next(parts[0]) == (KEYS[0], (1,))

    def test_same_preconditions_as_partitions(self):
        container = ArrayContainer()
        container.begin_round()
        with pytest.raises(ContainerError):
            container.iter_partitions(2)
        container.seal()
        with pytest.raises(ContainerError):
            container.iter_partitions(0)

    def test_partitions_stays_a_picklable_list_of_lists(self):
        # bench/benchlib/replay.py pickles a partition through the
        # transport itself; the spill path indexes partitions(1)[0].
        parts = _filled(ArrayContainer()).partitions(3)
        assert all(type(part) is list for part in parts)
        assert pickle.loads(pickle.dumps(parts)) == parts
