"""Shard map: reducer partitions -> shard owners, home first, then ring.

Every reducer partition has a **home** shard, dealt round-robin over the
shard ids the map was built with (``home_ids[p % len(home_ids)]``), so
ownership is deterministic across runs and machines and *balanced by
construction*: shard sizes differ by at most one for any partition
count.  (A hash ring alone is only statistically balanced, and not even
that for a handful of partitions: FNV-1a's tuple fold barely moves the
high bits, so partitions 0-9 all hash into one arc and a 2-4 shard job
reduced everything on shard 0.)

The consistent-hash ring (virtual nodes per shard, positions from the
same process-stable FNV hash the partitioner uses) decides only where a
partition goes once its home has died, which is the property the
failover path relies on — ownership is *minimally disturbed*: removing
a shard moves only the partitions it owned, each to its ring successor
among the survivors, while every other partition keeps its owner.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Sequence

from repro.errors import ConfigError
from repro.util.hashing import stable_hash

#: Ring positions per shard.  Enough that a handful of shards spread
#: partitions evenly; cheap enough that building a ring is trivial.
DEFAULT_REPLICAS = 64


class ShardMap:
    """An immutable partition -> shard map over integer shard ids.

    ``owner(partition)`` is a pure function of the shard id set, the
    ids the map started from (``home_ids``; the shard ids themselves
    unless this is a :meth:`without` view), the replica count, and the
    partition index — independent of insertion order, process, and
    ``PYTHONHASHSEED``.
    """

    def __init__(
        self,
        shard_ids: Iterable[int],
        replicas: int = DEFAULT_REPLICAS,
        home_ids: "Sequence[int] | None" = None,
    ) -> None:
        ids = sorted(set(int(s) for s in shard_ids))
        if not ids:
            raise ConfigError("ShardMap needs at least one shard id")
        if replicas < 1:
            raise ConfigError("ShardMap needs replicas >= 1")
        self.shard_ids: tuple[int, ...] = tuple(ids)
        self.home_ids: tuple[int, ...] = (
            self.shard_ids if home_ids is None else tuple(home_ids)
        )
        self.replicas = replicas
        points: list[tuple[int, int]] = []
        for sid in ids:
            for replica in range(replicas):
                points.append((stable_hash(("shard", sid, replica)), sid))
        # Ties (astronomically unlikely) resolve to the lower shard id,
        # deterministically, via the tuple sort.
        points.sort()
        self._hashes = [h for h, _sid in points]
        self._owners = [sid for _h, sid in points]

    def owner(self, partition: int) -> int:
        """The shard owning ``partition``: its home while that shard is
        in the map, else the ring successor of its hash."""
        home = self.home_ids[int(partition) % len(self.home_ids)]
        if home in self.shard_ids:
            return home
        h = stable_hash(("partition", int(partition)))
        i = bisect.bisect_right(self._hashes, h)
        if i == len(self._hashes):
            i = 0
        return self._owners[i]

    def assign(self, num_partitions: int) -> dict[int, list[int]]:
        """Partition indices grouped by owning shard, in index order.

        Every shard id appears in the result, possibly with an empty
        list — the coordinator dispatches to each shard either way so
        the reduce barrier stays uniform.
        """
        table: dict[int, list[int]] = {sid: [] for sid in self.shard_ids}
        for p in range(num_partitions):
            table[self.owner(p)].append(p)
        return table

    def without(self, dead: "int | Sequence[int]") -> "ShardMap":
        """A new map with ``dead`` shard(s) removed (failover view)."""
        gone = {dead} if isinstance(dead, int) else set(dead)
        survivors = [sid for sid in self.shard_ids if sid not in gone]
        if not survivors:
            raise ConfigError("cannot remove the last shard from the map")
        return ShardMap(
            survivors, replicas=self.replicas, home_ids=self.home_ids
        )

    def __len__(self) -> int:
        return len(self.shard_ids)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ShardMap shards={self.shard_ids} replicas={self.replicas}>"
