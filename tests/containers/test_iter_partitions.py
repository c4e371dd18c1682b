"""``iter_partitions(n)``: the lazy reducer input equals ``partitions(n)``.

``run_reducers`` consumes the lazy form; ``partitions(n)`` keeps its
contract (picklable lists of ``(key, values)``) for the spill path, the
shard exchange and the benchmark's replay.  Whatever a container does
to avoid building the wrappers, a reducer must see the same groups in
the same order — compared here with each ``values`` as a list, because
the lazy form may hand out any sequence.  A partition stored as records
is a ``RecordPartition``; the records it gives the identity reducer
must be those same groups, flattened.
"""

from __future__ import annotations

import pickle

import pytest

from repro.containers.array_container import ArrayContainer
from repro.containers.combiners import ListCombiner, SumCombiner
from repro.containers.fixed_array import FixedArrayContainer
from repro.containers.hash_container import HashContainer
from repro.core.job import JobSpec, identity_reduce
from repro.errors import ContainerError
from repro.shard.exchange import reduce_partition
from repro.spill.container import SpillableContainer
from repro.spill.manager import SpillManager

KEYS = [f"k{i % 23:02d}".encode() for i in range(200)]
UNIQUE_KEYS = [f"u{(i * 37) % 200:03d}".encode() for i in range(200)]


def _filled(container, keyed=True, keys=KEYS):
    """Seven tasks over two rounds, so segments outnumber partitions."""
    for round_tasks in (range(4), range(4, 7)):
        container.begin_round()
        for task_id in round_tasks:
            emitter = container.emitter(task_id)
            for i, key in enumerate(keys[task_id::7]):
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


def _identity_records(partition):
    """What the identity reducer's task makes of one partition, before
    any sort: the records it was handed."""
    job = JobSpec(
        name="identity", inputs=(__file__,), map_fn=None,
        container_factory=ArrayContainer, sorted_output=False,
    )
    assert job.reduce_fn is identity_reduce
    return reduce_partition(job, partition)


def _flattened(partition):
    return [(key, value) for key, values in partition for value in values]


#: A pair of ``KEYS``/``UNIQUE_KEYS`` costs 128 B at the gate, 200 of
#: them 25 600 B: never, once (125 pairs, then 75 resident) and a dozen
#: times over.
_BUDGETS = {"no spill": 1 << 20, "one spill": 16_000, "many spills": 2048}
_SPILLS = {"no spill": (0, 0), "one spill": (1, 1), "many spills": (9, 99)}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("keys", [KEYS, UNIQUE_KEYS], ids=["repeated", "unique"])
class TestRecordsEqualFlattenedGroups:
    """The identity reducer is handed a partition's records, every
    other reducer its groups: the first must be the flattening of the
    second, in order, whatever the container keeps underneath."""

    @pytest.mark.parametrize("family", ["array", "hash-list", "hash-sum"])
    def test_in_memory_containers(self, family, keys, n):
        def build():
            return _filled({
                "array": ArrayContainer,
                "hash-list": lambda: HashContainer(ListCombiner()),
                "hash-sum": lambda: HashContainer(SumCombiner()),
            }[family](), keys=keys)

        records = [_identity_records(p) for p in build().iter_partitions(n)]
        assert records == [_flattened(p) for p in build().iter_partitions(n)]
        expected = 200 if family != "hash-sum" else len(set(keys))
        assert sum(map(len, records)) == expected

    def test_fixed_array(self, keys, n):
        def build():
            return _filled(FixedArrayContainer(16), keyed=False)

        assert [_identity_records(p) for p in build().iter_partitions(n)] == [
            _flattened(p) for p in build().iter_partitions(n)
        ]

    @pytest.mark.parametrize("spills", sorted(_BUDGETS))
    @pytest.mark.parametrize("inner", ["array", "hash-list"])
    def test_spillable_container(self, inner, spills, keys, n):
        factory = {
            "array": ArrayContainer,
            "hash-list": lambda: HashContainer(ListCombiner()),
        }[inner]
        managers = [SpillManager(_BUDGETS[spills]) for _ in range(2)]
        try:
            one, two = (
                _filled(SpillableContainer(factory, manager), keys=keys)
                for manager in managers
            )
            records = [_identity_records(p) for p in one.iter_partitions(n)]
            low, high = _SPILLS[spills]
            assert low <= managers[0].stats().runs <= high
            assert records == [_flattened(p) for p in two.iter_partitions(n)]
            assert sum(map(len, records)) == 200
            if low:
                # Taking the records skipped the grouping, not the count
                # (unspilled, the inner container reports its own: the
                # array container counts cells).
                assert one.stats().distinct_keys == len(set(keys))
                assert two.stats().distinct_keys == len(set(keys))
        finally:
            for manager in managers:
                manager.cleanup()


class TestArrayLazyForm:
    def test_no_group_is_built_before_it_is_asked_for(self):
        container = _filled(ArrayContainer())
        parts = container.iter_partitions(2)
        assert not any(isinstance(part, list) for part in parts)
        assert next(iter(parts[0])) == (KEYS[0], (1,))

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
