"""Shard planning: contiguous chunk blocks + partition ownership.

A :class:`ShardPlan` splits one job across ``num_shards`` independent
worker processes:

* **map side** — the ingest chunk plan is cut into *contiguous* blocks,
  one block per shard.  Contiguity is what makes the sharded output
  deterministic in the shard count: merging the shards' per-partition
  exchange runs in shard-id order reproduces the global chunk order of
  every key's values, so ``--shards 1/2/4`` produce byte-identical
  digests.
* **reduce side** — each of the job's ``num_reducers`` partitions is
  owned by the shard the consistent-hash :class:`~repro.shard.hashring.
  ShardMap` assigns it; on shard loss ownership of only that shard's
  partitions moves (to ring successors among the survivors).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chunking.chunk import Chunk, ChunkPlan
from repro.errors import ConfigError
from repro.shard.hashring import ShardMap


def chunk_blocks(n_chunks: int, num_shards: int) -> list[tuple[int, int]]:
    """``[start, end)`` chunk-index ranges, one contiguous block per shard.

    Blocks differ in size by at most one chunk; shards past the chunk
    count get empty ranges (they still participate in the reduce phase).
    """
    if num_shards < 1:
        raise ConfigError("num_shards must be >= 1")
    if n_chunks < 0:
        raise ConfigError("n_chunks must be >= 0")
    return [
        (n_chunks * i // num_shards, n_chunks * (i + 1) // num_shards)
        for i in range(num_shards)
    ]


@dataclass(frozen=True)
class ShardSpec:
    """One shard's share of the job: its chunk block and its partitions."""

    shard_id: int
    #: ``[start, end)`` indices into the chunk plan (contiguous block).
    chunk_start: int
    chunk_end: int
    #: Reducer partitions this shard owns, in index order.
    partitions: tuple[int, ...]

    @property
    def n_chunks(self) -> int:
        return self.chunk_end - self.chunk_start


class ShardPlan:
    """The full sharding of one job: specs, ring, and chunk plan."""

    def __init__(
        self,
        chunk_plan: ChunkPlan,
        num_shards: int,
        num_partitions: int,
    ) -> None:
        if num_shards < 1:
            raise ConfigError("num_shards must be >= 1")
        if num_partitions < 1:
            raise ConfigError("num_partitions must be >= 1")
        self.chunk_plan = chunk_plan
        self.num_shards = num_shards
        self.num_partitions = num_partitions
        self.ring = ShardMap(range(num_shards))
        ownership = self.ring.assign(num_partitions)
        blocks = chunk_blocks(chunk_plan.n_chunks, num_shards)
        self.shards: tuple[ShardSpec, ...] = tuple(
            ShardSpec(
                shard_id=sid,
                chunk_start=blocks[sid][0],
                chunk_end=blocks[sid][1],
                partitions=tuple(ownership[sid]),
            )
            for sid in range(num_shards)
        )

    def chunks_for(self, shard_id: int) -> list[Chunk]:
        """The shard's contiguous chunk block, in global chunk order."""
        spec = self.shards[shard_id]
        return list(self.chunk_plan.chunks[spec.chunk_start:spec.chunk_end])
