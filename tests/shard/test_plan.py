"""Shard planning: contiguous chunk blocks and partition ownership."""

from __future__ import annotations

import pytest

from repro.apps.wordcount import make_wordcount_job
from repro.chunking.planner import plan_chunks
from repro.core.options import RuntimeOptions
from repro.errors import ConfigError
from repro.shard.plan import ShardPlan, chunk_blocks


class TestChunkBlocks:
    def test_blocks_are_contiguous_and_cover_all_chunks(self):
        blocks = chunk_blocks(10, 3)
        assert blocks[0][0] == 0
        assert blocks[-1][1] == 10
        for (_, end), (start, _) in zip(blocks, blocks[1:]):
            assert end == start

    def test_block_sizes_differ_by_at_most_one(self):
        sizes = [e - s for s, e in chunk_blocks(11, 4)]
        assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_chunks_leaves_empty_blocks(self):
        blocks = chunk_blocks(2, 5)
        assert sum(e - s for s, e in blocks) == 2
        assert any(e == s for s, e in blocks)

    def test_validation(self):
        with pytest.raises(ConfigError):
            chunk_blocks(4, 0)
        with pytest.raises(ConfigError):
            chunk_blocks(-1, 2)


class TestShardPlan:
    @pytest.fixture
    def chunk_plan(self, text_file):
        job = make_wordcount_job([text_file])
        options = RuntimeOptions.supmr_interfile("32KB", 2, 4)
        return plan_chunks(job.inputs, job.codec, options)

    def test_every_chunk_assigned_once_in_order(self, chunk_plan):
        plan = ShardPlan(chunk_plan, num_shards=3, num_partitions=4)
        seen = [
            c.index for sid in range(3) for c in plan.chunks_for(sid)
        ]
        assert seen == list(range(chunk_plan.n_chunks))

    def test_every_partition_owned_once(self, chunk_plan):
        plan = ShardPlan(chunk_plan, num_shards=3, num_partitions=8)
        owned = sorted(
            p for spec in plan.shards for p in spec.partitions
        )
        assert owned == list(range(8))

    def test_validation(self, chunk_plan):
        with pytest.raises(ConfigError):
            ShardPlan(chunk_plan, num_shards=0, num_partitions=4)
        with pytest.raises(ConfigError):
            ShardPlan(chunk_plan, num_shards=2, num_partitions=0)
