"""Consistent-hash shard map: determinism, balance, minimal disturbance."""

from __future__ import annotations

from itertools import combinations

import pytest

from repro.errors import ConfigError
from repro.shard.hashring import DEFAULT_REPLICAS, ShardMap


class TestConstruction:
    def test_needs_at_least_one_shard(self):
        with pytest.raises(ConfigError):
            ShardMap([])

    def test_needs_positive_replicas(self):
        with pytest.raises(ConfigError):
            ShardMap([0, 1], replicas=0)

    def test_duplicate_and_unordered_ids_normalize(self):
        ring = ShardMap([2, 0, 1, 2, 0])
        assert ring.shard_ids == (0, 1, 2)
        assert len(ring) == 3


class TestOwnership:
    def test_owner_deterministic_across_instances(self):
        a = ShardMap(range(4))
        b = ShardMap([3, 2, 1, 0])
        assert [a.owner(p) for p in range(64)] == [
            b.owner(p) for p in range(64)
        ]

    def test_assign_covers_every_partition_exactly_once(self):
        table = ShardMap(range(3)).assign(32)
        flat = sorted(p for ps in table.values() for p in ps)
        assert flat == list(range(32))
        assert set(table) == {0, 1, 2}

    def test_assign_roughly_balanced(self):
        table = ShardMap(range(4), replicas=DEFAULT_REPLICAS).assign(256)
        sizes = sorted(len(ps) for ps in table.values())
        # Consistent hashing is only statistically balanced; with 64
        # virtual nodes per shard no shard should starve or hog.
        assert sizes[0] >= 16
        assert sizes[-1] <= 160


class TestBalancedByConstruction:
    """Partitions are dealt to their home shards round-robin; the ring
    alone put every partition of a small job on shard 0."""

    def test_two_shards_two_partitions_one_each(self):
        # On the bare ring partitions 0-9 hash into one arc: shard 0
        # owned both, and shard 1 sat out the whole reduce phase.
        assert ShardMap(range(2)).assign(2) == {0: [0], 1: [1]}

    @pytest.mark.parametrize("shards", range(1, 9))
    def test_sizes_differ_by_at_most_one(self, shards):
        for n in range(65):
            sizes = [len(ps) for ps in ShardMap(range(shards)).assign(n).values()]
            assert sum(sizes) == n
            assert max(sizes) - min(sizes) <= 1, (shards, n, sizes)

    def test_every_shard_reduces_when_partitions_cover_the_shards(self):
        for shards in range(1, 9):
            for n in range(shards, 17):
                assert all(ShardMap(range(shards)).assign(n).values())


class TestFailover:
    @pytest.mark.parametrize("shards", range(2, 7))
    def test_survivors_keep_what_they_owned_through_two_losses(self, shards):
        ring = ShardMap(range(shards))
        before = {p: ring.owner(p) for p in range(64)}
        views = [((sid,), ring.without(sid)) for sid in range(shards)]
        if shards > 2:
            for a, b in combinations(range(shards), 2):
                views.append(((a, b), ring.without([a, b])))
                # One at a time, in either order, ends in the same map.
                for first, second in ((a, b), (b, a)):
                    step = ring.without(first).without(second)
                    assert [step.owner(p) for p in before] == [
                        views[-1][1].owner(p) for p in before
                    ]
        for dead, after in views:
            for p, owner in before.items():
                if owner in dead:
                    assert after.owner(p) not in dead
                else:
                    assert after.owner(p) == owner

    def test_second_loss_moves_only_the_second_shards_partitions(self):
        first = ShardMap(range(4)).without(1)
        second = first.without(3)
        for p in range(128):
            if first.owner(p) != 3:
                assert second.owner(p) == first.owner(p)

    def test_without_moves_only_the_dead_shards_partitions(self):
        ring = ShardMap(range(4))
        before = {p: ring.owner(p) for p in range(128)}
        after = ring.without(2)
        for p, owner in before.items():
            if owner != 2:
                assert after.owner(p) == owner
            else:
                assert after.owner(p) != 2

    def test_without_accepts_a_sequence(self):
        ring = ShardMap(range(4)).without([1, 3])
        assert ring.shard_ids == (0, 2)

    def test_cannot_remove_the_last_shard(self):
        with pytest.raises(ConfigError):
            ShardMap([0]).without(0)
