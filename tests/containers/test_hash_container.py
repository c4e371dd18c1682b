"""Hash container with on-insert combining."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.containers.base import ContainerDelta
from repro.containers.combiners import ListCombiner, SumCombiner
from repro.containers.hash_container import HashContainer
from repro.errors import ContainerError
from repro.util.hashing import stable_hash


def fill(container, pairs, task_id=0):
    emitter = container.emitter(task_id)
    for k, v in pairs:
        emitter.emit(k, v)


class TestLifecycle:
    def test_emit_before_round_raises(self):
        c = HashContainer(SumCombiner())
        with pytest.raises(ContainerError):
            c.emitter(0).emit(b"k", 1)

    def test_emit_after_seal_raises(self):
        c = HashContainer(SumCombiner())
        c.begin_round()
        c.seal()
        with pytest.raises(ContainerError):
            c.emitter(0).emit(b"k", 1)

    def test_begin_round_after_seal_raises(self):
        c = HashContainer(SumCombiner())
        c.begin_round()
        c.seal()
        with pytest.raises(ContainerError):
            c.begin_round()

    def test_partitions_before_seal_raises(self):
        c = HashContainer(SumCombiner())
        c.begin_round()
        with pytest.raises(ContainerError):
            c.partitions(2)

    def test_persistence_across_rounds(self):
        # SupMR's core container requirement (section III.C)
        c = HashContainer(SumCombiner())
        c.begin_round()
        fill(c, [(b"w", 1)])
        c.begin_round()
        fill(c, [(b"w", 2)])
        c.seal()
        all_pairs = [p for part in c.partitions(1) for p in part]
        assert all_pairs == [(b"w", [3])]
        assert c.rounds == 2

    def test_invalid_shards(self):
        with pytest.raises(ContainerError):
            HashContainer(shards=0)


class TestCombiningAndPartitions:
    def test_combines_on_insert(self):
        c = HashContainer(SumCombiner())
        c.begin_round()
        fill(c, [(b"a", 1), (b"a", 2), (b"b", 5)])
        c.seal()
        merged = dict(
            (k, v) for part in c.partitions(4) for k, v in part
        )
        assert merged == {b"a": [3], b"b": [5]}

    def test_list_combiner_keeps_all_values(self):
        c = HashContainer(ListCombiner())
        c.begin_round()
        fill(c, [(b"k", 1), (b"k", 2)])
        c.seal()
        (part,) = [p for p in c.partitions(1) if p]
        assert part == [(b"k", [1, 2])]

    def test_partition_count(self):
        c = HashContainer(SumCombiner())
        c.begin_round()
        fill(c, [(bytes([i]), 1) for i in range(50)])
        c.seal()
        parts = c.partitions(4)
        assert len(parts) == 4
        assert sum(len(p) for p in parts) == 50

    def test_partitioning_is_stable_across_instances(self):
        # stable_hash: the same keys land in the same partitions every time
        def build():
            c = HashContainer(SumCombiner())
            c.begin_round()
            fill(c, [(f"key{i}".encode(), 1) for i in range(30)])
            c.seal()
            return [sorted(k for k, _v in p) for p in c.partitions(3)]

        assert build() == build()

    def test_zero_partitions_raises(self):
        c = HashContainer(SumCombiner())
        c.begin_round()
        c.seal()
        with pytest.raises(ContainerError):
            c.partitions(0)

    def test_stats(self):
        c = HashContainer(SumCombiner())
        c.begin_round()
        fill(c, [(b"a", 1), (b"a", 1), (b"b", 1)])
        stats = c.stats()
        assert stats.emits == 3
        assert stats.distinct_keys == 2
        assert stats.rounds == 1
        assert len(c) == 2

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=20),
                              st.integers(min_value=-5, max_value=5))))
    def test_property_sums_match_naive(self, pairs):
        c = HashContainer(SumCombiner(), shards=4)
        c.begin_round()
        fill(c, pairs)
        c.seal()
        got = {k: v[0] for part in c.partitions(3) for k, v in part}
        expected: dict[int, int] = {}
        for k, v in pairs:
            expected[k] = expected.get(k, 0) + v
        assert got == expected


def _per_key_absorb(container, delta):
    """``absorb`` as the per-key loop it replaced: one ``stable_hash``
    and one hold of the shard lock per key."""
    for key, state in delta.items:
        idx = stable_hash(key) % len(container._shards)
        shard = container._shards[idx]
        with container._locks[idx]:
            if key in shard:
                shard[key] = container.combiner.merge(shard[key], state)
            else:
                shard[key] = state
    container._batch_emits += delta.emits


def _per_key_partitions(container, n):
    parts = [[] for _ in range(n)]
    for shard in container._shards:
        for key, state in shard.items():
            parts[stable_hash(key) % n].append(
                (key, container.combiner.finish(state))
            )
    return parts


_KEY_KINDS = {
    "bytes": st.binary(max_size=12),
    "str": st.text(max_size=8),
    "mixed": st.one_of(st.binary(max_size=6), st.text(max_size=4)),
    "non-string": st.one_of(
        st.integers(-50, 50), st.booleans(), st.none(),
        st.tuples(st.integers(0, 3), st.binary(max_size=2)),
    ),
}


class TestColumnHashParity:
    """``absorb`` / ``emit_combined`` / ``partitions`` hash a key column
    (``stable_hash_many``) and take each shard lock once per batch; shard
    membership, in-shard order, partition membership and ``stats()`` must
    be what the per-key loop gives."""

    @pytest.mark.parametrize("kind", sorted(_KEY_KINDS))
    @given(data=st.data())
    def test_matches_the_per_key_loop(self, kind, data):
        pair = st.tuples(_KEY_KINDS[kind], st.integers(-9, 9))
        deltas = data.draw(st.lists(st.lists(pair, max_size=40), max_size=4))
        bulk = HashContainer(SumCombiner(), shards=5)
        loop = HashContainer(SumCombiner(), shards=5)
        for container in (bulk, loop):
            container.begin_round()
        for i, items in enumerate(deltas):
            emits = len(items)
            if i % 2:
                # A folded window: unique keys, handed over as a view.
                states = dict(items)
                bulk.emitter(i).emit_combined(states, emits)
                items = list(states.items())
            else:
                bulk.absorb(ContainerDelta("hash", emits, items))
            _per_key_absorb(loop, ContainerDelta("hash", emits, items))
        assert [list(s.items()) for s in bulk._shards] == [
            list(s.items()) for s in loop._shards
        ]
        assert bulk.stats() == loop.stats()
        bulk.seal()
        for n in (1, 3, 7):
            assert bulk.partitions(n) == _per_key_partitions(loop, n)
