"""Runtime options validation and constructors."""

from __future__ import annotations

import pytest

from repro.core.options import ChunkStrategy, MergeAlgorithm, RuntimeOptions
from repro.errors import ConfigError


class TestValidation:
    def test_defaults_are_baseline(self):
        opts = RuntimeOptions()
        assert opts.chunk_strategy is ChunkStrategy.NONE
        assert opts.merge_algorithm is MergeAlgorithm.PAIRWISE

    def test_thread_counts_validated(self):
        with pytest.raises(ConfigError):
            RuntimeOptions(num_mappers=0)
        with pytest.raises(ConfigError):
            RuntimeOptions(num_reducers=0)

    def test_interfile_requires_chunk_bytes(self):
        with pytest.raises(ConfigError):
            RuntimeOptions(chunk_strategy=ChunkStrategy.INTER_FILE)

    def test_intrafile_requires_files_per_chunk(self):
        with pytest.raises(ConfigError):
            RuntimeOptions(chunk_strategy=ChunkStrategy.INTRA_FILE)


class TestConstructors:
    def test_baseline(self):
        opts = RuntimeOptions.baseline(8, 2)
        assert opts.num_mappers == 8
        assert opts.num_reducers == 2
        assert opts.chunk_strategy is ChunkStrategy.NONE

    def test_supmr_interfile_parses_sizes(self):
        opts = RuntimeOptions.supmr_interfile("1MB")
        assert opts.chunk_bytes == 1024 * 1024
        assert opts.chunk_strategy is ChunkStrategy.INTER_FILE
        assert opts.merge_algorithm is MergeAlgorithm.PWAY

    def test_supmr_intrafile(self):
        opts = RuntimeOptions.supmr_intrafile(4)
        assert opts.files_per_chunk == 4
        assert opts.chunk_strategy is ChunkStrategy.INTRA_FILE

    def test_with_copies(self):
        opts = RuntimeOptions.baseline()
        changed = opts.with_(num_mappers=16)
        assert changed.num_mappers == 16
        assert opts.num_mappers == 4  # original untouched

    def test_frozen(self):
        with pytest.raises(AttributeError):
            RuntimeOptions().num_mappers = 7  # type: ignore[misc]

    def test_pipelined_flag_passthrough(self):
        opts = RuntimeOptions.supmr_interfile("1MB", pipelined_ingest=False)
        assert opts.pipelined_ingest is False


class TestMemoryBudget:
    def test_default_is_unbudgeted(self):
        assert RuntimeOptions().memory_budget is None

    def test_size_strings_parse(self):
        opts = RuntimeOptions(memory_budget="64KB")
        assert opts.memory_budget == 64 * 1024

    def test_int_budget_passthrough(self):
        assert RuntimeOptions(memory_budget=4096).memory_budget == 4096

    def test_budget_must_be_positive(self):
        with pytest.raises(ConfigError):
            RuntimeOptions(memory_budget=0)

    def test_budget_must_exceed_one_chunk(self):
        with pytest.raises(ConfigError, match="ingest chunk"):
            RuntimeOptions.supmr_interfile("1MB").with_(memory_budget="64KB")

    def test_budget_above_chunk_accepted(self):
        opts = RuntimeOptions.supmr_interfile("16KB").with_(
            memory_budget="64KB"
        )
        assert opts.memory_budget == 64 * 1024
