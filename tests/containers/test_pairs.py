"""``Container.pairs()``: a sealed container's records, flat.

What leaves memory — a spill run, a shard's exchange runs — leaves it as
``(key, value)`` records in ``partitions(1)`` order, one per value, with
no per-key wrapper built on the way.  The order is part of the contract:
it decides the value order of equal keys in every run, and with it the
output digest.
"""

from __future__ import annotations

import random
from itertools import chain

import pytest

from repro.containers.array_container import ArrayContainer
from repro.containers.combiners import ListCombiner, SumCombiner
from repro.containers.fixed_array import FixedArrayContainer
from repro.containers.hash_container import HashContainer
from repro.errors import ContainerError
from repro.spill.container import SpillableContainer
from repro.spill.manager import SpillManager
from tests.containers.test_iter_partitions import _filled

def _flattened(container):
    (groups,) = container.partitions(1)
    return [(key, value) for key, values in groups for value in values]


_FAMILIES = {
    "array": lambda: _filled(ArrayContainer()),
    "hash-sum": lambda: _filled(HashContainer(SumCombiner())),
    "hash-list": lambda: _filled(HashContainer(ListCombiner())),
    "fixed": lambda: _filled(FixedArrayContainer(16), keyed=False),
}


class TestPairsEqualsFlattenedPartitions:
    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    def test_in_memory_containers(self, family):
        container = _FAMILIES[family]()
        assert container.pairs() == _flattened(container)

    def test_spillable_container_that_spilled(self):
        # No override: the protocol default flattens the merged groups.
        def spilled():
            manager = SpillManager(2048)
            return manager, _filled(SpillableContainer(ArrayContainer, manager))

        one_mgr, one = spilled()
        two_mgr, two = spilled()
        try:
            got = one.pairs()
            assert one_mgr.stats().runs > 0, "budget never spilled"
            assert got == _flattened(two)
        finally:
            one_mgr.cleanup()
            two_mgr.cleanup()

    @pytest.mark.parametrize("family", ["array", "hash-sum"])
    def test_needs_a_sealed_container(self, family):
        container = {"array": ArrayContainer, "hash-sum": HashContainer}[family]()
        container.begin_round()
        with pytest.raises(ContainerError, match="seal"):
            container.pairs()

    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    def test_the_caller_owns_the_list(self, family):
        container = _FAMILIES[family]()
        before = container.pairs()
        mine = container.pairs()
        mine.sort(reverse=True)
        del mine[::2]
        assert container.pairs() == before


class TestArrayPairs:
    def test_hands_out_the_emitted_tuples_themselves(self):
        container = _filled(ArrayContainer())
        emitted = list(chain.from_iterable(container._segments))
        got = container.pairs()
        assert len(got) == len(emitted) == 200
        assert all(a is b for a, b in zip(got, emitted))


def _first_emit_order(emits):
    """Distinct keys as the hash container holds them: first emit first."""
    return list(dict.fromkeys(key for key, _value in emits))


def _word_count_emits(seed):
    rng = random.Random(seed)
    vocab = [f"word{i:03d}".encode() for i in range(120)]
    return [(rng.choice(vocab), 1) for _ in range(3000)]


def _inverted_index_emits(seed):
    rng = random.Random(seed)
    vocab = [f"w{i:02d}" for i in range(50)]
    return [
        (word, f"doc{doc:03d}")
        for doc in range(80)
        for word in rng.choices(vocab, k=12)
    ]


class TestHashOnePartition:
    """``partitions(1)`` and ``pairs()`` hash nothing, and keep the
    container's first-emit order: every spill drain and exchange write
    of a hash-container job goes through one of the two."""

    @pytest.fixture
    def no_hashing(self, monkeypatch):
        def refuse(keys):
            raise AssertionError("hashed keys for a single partition")

        monkeypatch.setattr(
            "repro.containers.hash_container.stable_hash_many", refuse
        )

    def _container(self, combiner, emits):
        container = HashContainer(combiner)
        container.begin_round()
        emitter = container.emitter(0)
        for key, value in emits:
            emitter.emit(key, value)
        container.seal()
        return container

    def test_seeded_word_count(self, no_hashing):
        emits = _word_count_emits(seed=7)
        container = self._container(SumCombiner(), emits)
        (groups,) = container.partitions(1)
        assert [key for key, _values in groups] == _first_emit_order(emits)
        totals = {}
        for key, value in emits:
            totals[key] = totals.get(key, 0) + value
        assert groups == [(key, [totals[key]]) for key in _first_emit_order(emits)]
        assert container.pairs() == [
            (key, totals[key]) for key in _first_emit_order(emits)
        ]

    def test_seeded_inverted_index(self, no_hashing):
        emits = _inverted_index_emits(seed=8)
        container = self._container(ListCombiner(), emits)
        postings = {}
        for word, doc in emits:
            postings.setdefault(word, []).append(doc)
        order = _first_emit_order(emits)
        assert container.partitions(1) == [
            [(word, postings[word]) for word in order]
        ]
        # One record per value: a posting list is not one record.
        assert container.pairs() == [
            (word, doc) for word in order for doc in postings[word]
        ]

    def test_equals_the_hashing_path(self):
        # The n > 1 path still hashes; regrouping its partitions by the
        # container's first-emit order gives back partitions(1).
        emits = _word_count_emits(seed=9)
        container = self._container(SumCombiner(), emits)
        (one,) = container.partitions(1)
        many = dict(chain.from_iterable(container.partitions(5)))
        assert one == [(key, many[key]) for key in _first_emit_order(emits)]
