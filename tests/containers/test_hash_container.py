"""Hash container with on-insert combining."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.containers.base import ContainerDelta
from repro.containers.combiners import ListCombiner, SumCombiner
from repro.containers import hash_container
from repro.containers.hash_container import HashContainer
from repro.errors import ContainerError
from repro.util import hashing
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
        c = HashContainer(SumCombiner())
        c.begin_round()
        fill(c, pairs)
        c.seal()
        got = {k: v[0] for part in c.partitions(3) for k, v in part}
        expected: dict[int, int] = {}
        for k, v in pairs:
            expected[k] = expected.get(k, 0) + v
        assert got == expected


_KEY_KINDS = {
    "bytes": st.binary(max_size=12),
    "str": st.text(max_size=8),
    "mixed": st.one_of(st.binary(max_size=6), st.text(max_size=4)),
    "non-string": st.one_of(
        st.integers(-50, 50), st.booleans(), st.none(),
        st.tuples(st.integers(0, 3), st.binary(max_size=2)),
    ),
}


def _fold(combiner, pairs):
    """A window folded the way a map task folds it: per-key states,
    first emit first."""
    states = {}
    for key, value in pairs:
        if key in states:
            states[key] = combiner.update(states[key], value)
        else:
            states[key] = combiner.initial(value)
    return states


def _run(container, ops):
    """Drive ``ops`` through every way into a hash container."""
    combiner = container.combiner
    container.begin_round()
    for i, (how, pairs) in enumerate(ops):
        emitter = container.emitter(i)
        if how == "emit":
            for key, value in pairs:
                emitter.emit(key, value)
        elif how == "emit_many":
            emitter.emit_many(pairs)
        elif how == "emit_combined":
            emitter.emit_combined(_fold(combiner, pairs), len(pairs))
        else:
            container.absorb(ContainerDelta(
                "hash", len(pairs), list(_fold(combiner, pairs).items())
            ))
    container.seal()
    return container


def _reference(combiner, ops):
    """The same ops into a plain dict: raw emits through
    ``initial``/``update``, folded states through ``merge``."""
    cells = {}
    for how, pairs in ops:
        if how in ("emit", "emit_many"):
            for key, value in pairs:
                if key in cells:
                    cells[key] = combiner.update(cells[key], value)
                else:
                    cells[key] = combiner.initial(value)
            continue
        for key, state in _fold(combiner, pairs).items():
            if key in cells:
                cells[key] = combiner.merge(cells[key], state)
            else:
                cells[key] = state
    return cells


_HOW = st.sampled_from(["emit", "emit_many", "emit_combined", "absorb"])


class TestDictReferenceParity:
    """However pairs arrive (``emit``, ``emit_many``, ``emit_combined``,
    ``absorb``), the container holds what a plain ``dict`` folded with
    the same combiner holds, in the same first-emit order; partition
    ``i`` of ``n`` is the keys with ``stable_hash(key) % n == i``."""

    @pytest.mark.parametrize("kind", sorted(_KEY_KINDS))
    @given(data=st.data())
    def test_matches_a_plain_dict(self, kind, data):
        pair = st.tuples(_KEY_KINDS[kind], st.integers(-9, 9))
        ops = data.draw(st.lists(
            st.tuples(_HOW, st.lists(pair, max_size=30)), max_size=6
        ))
        for combiner_type in (SumCombiner, ListCombiner):
            container = _run(HashContainer(combiner_type()), ops)
            combiner = combiner_type()
            cells = _reference(combiner, ops)
            assert container.stats().emits == sum(len(p) for _, p in ops)
            assert container.stats().distinct_keys == len(cells) == len(container)
            finished = [(key, combiner.finish(state)) for key, state in cells.items()]
            assert container.partitions(1) == [finished]
            assert container.pairs() == [
                (key, value) for key, values in finished for value in values
            ]
            for n in (2, 3, 7):
                parts = [[] for _ in range(n)]
                for key, values in finished:
                    parts[stable_hash(key) % n].append((key, values))
                assert container.partitions(n) == parts


class TestNothingHashedOnTheWayIn:
    """The one hash a key gets is the one that cuts partitions."""

    def test_emit_paths_never_hash(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("hashed a key outside partitions(n > 1)")

        for name in ("stable_hash", "stable_hash_many"):
            monkeypatch.setattr(hashing, name, refuse)
            monkeypatch.setattr(hash_container, name, refuse, raising=False)
        container = HashContainer(ListCombiner())
        container.begin_round()
        emitter = container.emitter(0)
        emitter.emit(b"a", 1)
        emitter.emit_many([(b"b", 2), (b"a", 3)])
        emitter.emit_combined({b"c": [4, 5], b"a": [6]}, 3)
        container.absorb(ContainerDelta("hash", 2, [(b"b", [7]), (b"d", [8])]))
        assert container.drain().emits == 8
        container.seal()
        assert container.partitions(1) == [[
            (b"a", [1, 3, 6]), (b"b", [2, 7]), (b"c", [4, 5]), (b"d", [8]),
        ]]
        assert len(container.pairs()) == 8
        with pytest.raises(AssertionError, match="hashed a key"):
            container.partitions(2)
