"""drain()/absorb(): the container transport protocol the process backend uses.

Core invariant: for any sequence of emits split across worker-local
containers, ``drain`` in the workers + ``absorb`` in task order in the
parent must leave the parent container indistinguishable (partitions and
stats) from having run every emit directly.

The bulk emit surface (``emit_many`` / ``emit_combined``) is the same
path driven from inside a map task, so it is held to the same
invariant here: however a pair sequence is cut into ``emit``,
``emit_many`` and ``emit_combined`` batches, the container ends up as
if every pair had been emitted one by one.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.containers.array_container import ArrayContainer
from repro.containers.base import Container, ContainerDelta, ContainerStats
from repro.containers.combiners import (
    Combiner,
    CountCombiner,
    FirstCombiner,
    ListCombiner,
    MaxCombiner,
    MinCombiner,
    SumCombiner,
)
from repro.containers.fixed_array import FixedArrayContainer
from repro.containers.hash_container import HashContainer
from repro.errors import ContainerError
from repro.spill.container import SpillableContainer
from repro.spill.manager import SpillManager


def _direct(factory, emits):
    container = factory()
    container.begin_round()
    for task_id, key, value in emits:
        container.emitter(task_id).emit(key, value)
    container.seal()
    return container


def _via_transport(factory, emits, tasks):
    """Emit through per-task worker containers, then drain+absorb."""
    parent = factory()
    parent.begin_round()
    for task_id in tasks:
        worker = factory()
        worker.begin_round()
        for tid, key, value in emits:
            if tid == task_id:
                worker.emitter(tid).emit(key, value)
        worker.seal()
        parent.absorb(worker.drain())
    parent.seal()
    return parent


_EMITS = [
    (0, b"a", 1), (0, b"b", 2), (1, b"a", 3), (1, b"c", 4), (2, b"b", 5),
]


class TestCombinerMerge:
    def test_merges_match_folds(self):
        cases = [
            (SumCombiner(), [3, 1, 4, 1, 5]),
            (CountCombiner(), [7, 7, 7]),
            (MinCombiner(), [4, 2, 9]),
            (MaxCombiner(), [4, 2, 9]),
            (FirstCombiner(), [5, 6, 7]),
            (ListCombiner(), [1, 2, 3, 4]),
        ]
        for combiner, values in cases:
            whole = combiner.initial(values[0])
            for v in values[1:]:
                whole = combiner.update(whole, v)
            left = combiner.initial(values[0])
            for v in values[1:2]:
                left = combiner.update(left, v)
            right = combiner.initial(values[2])
            for v in values[3:]:
                right = combiner.update(right, v)
            assert combiner.merge(left, right) == whole, type(combiner).__name__

    def test_default_merge_refuses(self):
        class Opaque(Combiner):
            def initial(self, value):
                """First value."""
                return value

            def update(self, state, value):
                """Keep state."""
                return state

        with pytest.raises(NotImplementedError, match="cannot merge"):
            Opaque().merge(1, 2)


class TestHashTransport:
    def test_round_trip_matches_direct(self):
        factory = lambda: HashContainer(SumCombiner(), shards=4)  # noqa: E731
        direct = _direct(factory, _EMITS)
        via = _via_transport(factory, _EMITS, tasks=[0, 1, 2])
        assert sorted(via.partitions(3), key=str) == sorted(
            direct.partitions(3), key=str
        )
        assert via.stats() == direct.stats()

    def test_emits_counter_preserves_precombine_count(self):
        factory = lambda: HashContainer(SumCombiner())  # noqa: E731
        via = _via_transport(factory, _EMITS, tasks=[0, 1, 2])
        assert via.stats().emits == len(_EMITS)

    def test_first_combiner_respects_task_order(self):
        factory = lambda: HashContainer(FirstCombiner())  # noqa: E731
        emits = [(0, b"k", "task0"), (1, b"k", "task1")]
        via = _via_transport(factory, emits, tasks=[0, 1])
        [[(_, values)]] = [p for p in via.partitions(1) if p]
        assert values == ["task0"]

    def test_kind_mismatch_raises(self):
        container = HashContainer(SumCombiner())
        container.begin_round()
        with pytest.raises(ContainerError, match="absorb"):
            container.absorb(ContainerDelta(kind="array", emits=0, items=[]))


class TestArrayTransport:
    def test_segment_structure_matches_direct(self):
        direct = _direct(ArrayContainer, _EMITS)
        via = _via_transport(ArrayContainer, _EMITS, tasks=[0, 1, 2])
        assert via.partitions(3) == direct.partitions(3)
        assert via.stats() == direct.stats()

    def test_empty_worker_segments_are_dropped(self):
        worker = ArrayContainer()
        worker.begin_round()
        worker.emitter(0)  # registered but never emits
        worker.emitter(1).emit(b"k", 1)
        worker.seal()
        delta = worker.drain()
        assert delta.items == [[(b"k", 1)]]


class TestFixedTransport:
    def test_round_trip_matches_direct(self):
        factory = lambda: FixedArrayContainer(8)  # noqa: E731
        emits = [(0, 1, 2), (0, 3, 1), (1, 1, 1), (1, 7, 4)]
        direct = _direct(factory, emits)
        via = _via_transport(factory, emits, tasks=[0, 1])
        assert via.partitions(2) == direct.partitions(2)
        assert np.array_equal(via.combined(), direct.combined())
        assert via.stats() == direct.stats()

    def test_cell_count_mismatch_raises(self):
        container = FixedArrayContainer(4)
        container.begin_round()
        bad = ContainerDelta(kind="fixed", emits=1, items=np.zeros(9))
        with pytest.raises(ContainerError, match="cells"):
            container.absorb(bad)


class TestSpillableAbsorb:
    def _spillable(self, inner_factory, budget):
        manager = SpillManager(budget_bytes=budget)
        return SpillableContainer(inner_factory, manager), manager

    def test_absorb_without_spill_matches_direct(self):
        factory = lambda: HashContainer(SumCombiner())  # noqa: E731
        container, manager = self._spillable(factory, budget=1 << 20)
        container.begin_round()
        worker = factory()
        worker.begin_round()
        for _tid, key, value in _EMITS:
            worker.emitter(0).emit(key, value)
        worker.seal()
        container.absorb(worker.drain())
        container.seal()
        parts = container.partitions(1)
        flat = sorted(kv for part in parts for kv in part)
        assert flat == [(b"a", [4]), (b"b", [7]), (b"c", [4])]
        assert manager.stats().runs == 0
        manager.cleanup()

    def test_absorb_past_budget_spills(self):
        factory = lambda: HashContainer(SumCombiner())  # noqa: E731
        container, manager = self._spillable(factory, budget=600)
        container.begin_round()
        worker = factory()
        worker.begin_round()
        for i in range(100):
            worker.emitter(0).emit(b"key-%03d" % i, i)
        worker.seal()
        container.absorb(worker.drain())
        container.seal()
        assert manager.stats().runs > 0
        parts = container.partitions(2)
        merged = dict(kv for part in parts for kv in part)
        assert len(merged) == 100
        assert merged[b"key-042"] == [42]
        manager.cleanup()

    def test_absorb_array_delta_recreates_segments(self):
        container, manager = self._spillable(ArrayContainer, budget=1 << 20)
        container.begin_round()
        worker = ArrayContainer()
        worker.begin_round()
        worker.emitter(0).emit(b"x", 1)
        worker.emitter(1).emit(b"y", 2)
        worker.seal()
        container.absorb(worker.drain())
        container.seal()
        # Two worker segments -> two inner segments -> round-robin parts.
        assert container.partitions(2) == [[(b"x", [1])], [(b"y", [2])]]
        manager.cleanup()

    def test_unknown_kind_raises(self):
        container, manager = self._spillable(ArrayContainer, budget=1 << 20)
        container.begin_round()
        with pytest.raises(ContainerError, match="cannot absorb"):
            container.absorb(ContainerDelta(kind="mystery", emits=0, items=()))
        manager.cleanup()


class TestBaseDefaults:
    def test_unported_container_refuses_transport(self):
        class Plain(Container):
            def emitter(self, task_id):
                """Unused."""
                raise NotImplementedError

            def partitions(self, n):
                """Unused."""
                return []

            def stats(self):
                """Unused."""
                return ContainerStats()

        plain = Plain()
        with pytest.raises(NotImplementedError, match="drain"):
            plain.drain()
        with pytest.raises(NotImplementedError, match="absorb"):
            plain.absorb(ContainerDelta(kind="hash", emits=0, items=[]))


# -- the bulk emit surface ---------------------------------------------------

_N_KEYS = 6
_MODES = ("emit", "many", "combined")

#: (pairs, batches): keys are small ints (so the fixed array can take
#: them), values positive (so a fixed cell is nonzero iff it was hit);
#: each batch is (length, mode), the last one takes the rest.
_pairs = st.lists(
    st.tuples(st.integers(0, _N_KEYS - 1), st.integers(1, 9)), max_size=40
)
_batches = st.lists(
    st.tuples(st.integers(1, 8), st.sampled_from(_MODES)), max_size=12
)


def _fold(combiner, batch):
    """Per-key combiner states of ``batch``, keys in first-emit order."""
    states = {}
    for key, value in batch:
        if key in states:
            states[key] = combiner.update(states[key], value)
        else:
            states[key] = combiner.initial(value)
    return states


def _emit_in_batches(container, pairs, batches, combiner=None):
    """Emit ``pairs`` from one task, cut and routed as ``batches`` says.

    Without a ``combiner`` the container cannot take folded states, so
    "combined" batches go through ``emit_many``.
    """
    container.begin_round()
    emitter = container.emitter(0)
    start = 0
    for length, mode in [*batches, (len(pairs), "emit")]:
        batch = pairs[start:start + length]
        start += length
        if mode == "emit":
            for key, value in batch:
                emitter.emit(key, value)
        elif mode == "many" or combiner is None:
            emitter.emit_many(batch)
        else:
            emitter.emit_combined(_fold(combiner, batch), len(batch))
    container.seal()
    return container


def _reduced(container, n):
    """Partitions with each key's values summed: what survives a spill
    (a key's partial sums come back one per run, not pre-added)."""
    return [
        sorted((key, sum(values)) for key, values in part)
        for part in container.partitions(n)
    ]


class TestBulkEmitEquivalence:
    @pytest.mark.parametrize("combiner_type", [SumCombiner, ListCombiner])
    @given(pairs=_pairs, batches=_batches)
    @settings(max_examples=60, deadline=None)
    def test_hash(self, combiner_type, pairs, batches):
        factory = lambda: HashContainer(combiner_type(), shards=4)  # noqa: E731
        direct = _emit_in_batches(factory(), pairs, [])
        bulk = _emit_in_batches(factory(), pairs, batches, combiner_type())
        assert bulk.partitions(3) == direct.partitions(3)
        assert bulk.stats() == direct.stats()

    @given(pairs=_pairs, batches=_batches)
    @settings(max_examples=60, deadline=None)
    def test_array(self, pairs, batches):
        direct = _emit_in_batches(ArrayContainer(), pairs, [])
        bulk = _emit_in_batches(ArrayContainer(), pairs, batches)
        assert bulk.partitions(3) == direct.partitions(3)
        assert bulk.stats() == direct.stats()

    @given(pairs=_pairs, batches=_batches)
    @settings(max_examples=60, deadline=None)
    def test_fixed_array(self, pairs, batches):
        factory = lambda: FixedArrayContainer(_N_KEYS)  # noqa: E731
        direct = _emit_in_batches(factory(), pairs, [])
        bulk = _emit_in_batches(factory(), pairs, batches, SumCombiner())
        assert bulk.partitions(3) == direct.partitions(3)
        assert bulk.stats() == direct.stats()

    @pytest.mark.parametrize("budget", [1 << 20, 700])
    @given(pairs=_pairs, batches=_batches)
    @settings(max_examples=40, deadline=None)
    def test_spillable_hash(self, budget, pairs, batches):
        factory = lambda: HashContainer(SumCombiner(), shards=4)  # noqa: E731
        managers = [SpillManager(budget_bytes=budget) for _ in range(2)]
        try:
            direct = _emit_in_batches(
                SpillableContainer(factory, managers[0]), pairs, []
            )
            bulk = _emit_in_batches(
                SpillableContainer(factory, managers[1]), pairs, batches,
                SumCombiner(),
            )
            assert _reduced(bulk, 3) == _reduced(direct, 3)
            assert bulk.stats() == direct.stats()
            if not managers[0].runs and not managers[1].runs:
                # never spilled: not merely the same sums, the same cells
                assert bulk._inner.partitions(3) == direct._inner.partitions(3)
        finally:
            for manager in managers:
                manager.cleanup()

    @pytest.mark.parametrize(
        "inner", [ArrayContainer, lambda: HashContainer(SumCombiner())],
        ids=["array", "hash"],
    )
    @given(pairs=_pairs, batches=_batches)
    @settings(max_examples=40, deadline=None)
    def test_raw_pairs_under_a_budget_cut_the_same_runs(
        self, inner, pairs, batches
    ):
        """``emit_many`` keeps the per-pair gate: a loop of ``emit`` and
        any batching of it spill the same run files."""
        managers = [SpillManager(budget_bytes=700) for _ in range(2)]
        try:
            direct = _emit_in_batches(
                SpillableContainer(inner, managers[0]), pairs, []
            )
            bulk = _emit_in_batches(
                SpillableContainer(inner, managers[1]), pairs, batches
            )
            inventories = [
                [(r.index, r.records, r.payload_bytes, r.path.read_bytes())
                 for r in manager.runs]
                for manager in managers
            ]
            assert inventories[1] == inventories[0]
            assert bulk.partitions(3) == direct.partitions(3)
            assert bulk.stats() == direct.stats()
        finally:
            for manager in managers:
                manager.cleanup()


class TestBulkEmitContract:
    def test_emits_stay_the_precombine_count(self):
        container = HashContainer(SumCombiner())
        container.begin_round()
        container.emitter(0).emit_combined({b"a": 5, b"b": 2}, 7)
        container.emitter(1).emit(b"a", 1)
        assert container.stats().emits == 8
        assert container.stats().distinct_keys == 2
        container.seal()
        assert container.drain().emits == 8

    def test_array_container_stores_one_cell_per_state(self):
        # no combiner to merge with: the state is the key's one value,
        # which is what a sum-shaped reduce would have been handed
        container = ArrayContainer()
        container.begin_round()
        container.emitter(0).emit_combined({b"a": 5, b"b": 2}, 7)
        container.seal()
        assert container.partitions(1) == [[(b"a", [5]), (b"b", [2])]]
        assert container.stats().emits == 2

    def test_emitter_without_a_combined_path_refuses(self):
        from repro.containers.base import Emitter

        class PerRecordOnly(Emitter):
            def __init__(self):
                super().__init__(ArrayContainer(), 0)
                self.seen = []

            def emit(self, key, value):
                """Record the pair."""
                self.seen.append((key, value))

        emitter = PerRecordOnly()
        emitter.emit_many([(1, 2), (3, 4)])  # the base class is the loop
        assert emitter.seen == [(1, 2), (3, 4)]
        with pytest.raises(ContainerError, match="pre-combined"):
            emitter.emit_combined({1: 2}, 1)

    def test_fixed_array_rejects_out_of_range_state(self):
        container = FixedArrayContainer(4)
        container.begin_round()
        with pytest.raises(ContainerError, match="outside the fixed key range"):
            container.emitter(0).emit_combined({9: 1}, 1)

    def test_spillable_rejects_states_for_a_non_combining_inner_delta(self):
        manager = SpillManager(budget_bytes=1 << 20)
        container = SpillableContainer(ArrayContainer, manager)
        container.begin_round()
        try:
            with pytest.raises(ContainerError, match="cannot absorb"):
                container.absorb(
                    ContainerDelta(kind="hash", emits=1, items=[(b"a", 1)])
                )
        finally:
            manager.cleanup()

    @pytest.mark.parametrize("call", [
        lambda e: e.emit_many([(1, 1)]),
        lambda e: e.emit_combined({1: 1}, 1),
    ], ids=["emit_many", "emit_combined"])
    @pytest.mark.parametrize("factory", [
        lambda: HashContainer(SumCombiner()),
        ArrayContainer,
        lambda: FixedArrayContainer(4),
    ], ids=["hash", "array", "fixed"])
    def test_sealed_container_rejects_a_batch(self, factory, call):
        container = factory()
        container.begin_round()
        emitter = container.emitter(0)
        container.seal()
        with pytest.raises(ContainerError, match="sealed"):
            call(emitter)

    def test_sealed_spillable_rejects_a_batch(self):
        manager = SpillManager(budget_bytes=1 << 20)
        container = SpillableContainer(
            lambda: HashContainer(SumCombiner()), manager
        )
        container.begin_round()
        emitter = container.emitter(0)
        container.seal()
        try:
            with pytest.raises(ContainerError, match="sealed"):
                emitter.emit_many([(1, 1)])
            with pytest.raises(ContainerError, match="sealed"):
                emitter.emit_combined({1: 1}, 1)
        finally:
            manager.cleanup()


class TestHashEmitCounter:
    def test_threads_on_different_shards_lose_no_counts(self):
        """Per-record emits, batches and absorbs from many threads at
        once: every emit is counted (the old single ``_emits`` was
        bumped under a per-shard lock, and by ``absorb`` under none)."""
        import sys
        import threading

        container = HashContainer(SumCombiner(), shards=16)
        container.begin_round()
        threads_n, rounds, per_round = 8, 200, 10
        keys = [b"key-%d" % i for i in range(64)]

        def work(task_id):
            emitter = container.emitter(task_id)
            for r in range(rounds):
                for k in range(per_round):
                    emitter.emit(keys[(task_id * 7 + r + k) % len(keys)], 1)
                emitter.emit_combined({keys[r % len(keys)]: per_round}, per_round)
                container.absorb(ContainerDelta(
                    kind="hash", emits=per_round,
                    items=[(keys[(r + 1) % len(keys)], per_round)],
                ))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(i,))
                for i in range(threads_n)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        expected = threads_n * rounds * per_round * 3
        assert container.stats().emits == expected
        container.seal()
        assert sum(v for part in container.partitions(1) for _, [v] in part) \
            == expected


class TestHashAbsorbOrder:
    def test_concurrent_deltas_land_whole_in_one_order(self):
        """Deltas absorbed from many threads at once are applied one
        whole delta at a time: every key sees them in the same order
        (numpy drops the GIL mid-hash, so without the batch lock two
        deltas interleave shard by shard)."""
        import sys
        import threading

        container = HashContainer(ListCombiner(), shards=8)
        container.begin_round()
        keys = [b"key-%d" % i for i in range(600)]

        def work(task_id):
            for r in range(20):
                container.absorb(ContainerDelta(
                    kind="hash", emits=len(keys),
                    items=[(key, [(task_id, r)]) for key in keys],
                ))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(i,)) for i in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        container.seal()
        orders = {
            tuple(values) for part in container.partitions(1)
            for _key, values in part
        }
        assert len(orders) == 1
        assert len(orders.pop()) == 6 * 20
