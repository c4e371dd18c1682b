"""External p-way merge: bounded fan-in, multi-pass consolidation."""

from __future__ import annotations

from contextlib import contextmanager
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spill.external_merge import (
    ExternalPwayMerge,
    merge_sorted_blocks,
    merge_spilled,
)
from repro.spill.manager import (
    SpillManager,
    entry_sort_key,
    group_sorted_pairs,
)
from repro.spill.runfile import RunReader
from tests.spill.damage import ends_inside_a_key


def spill_many(mgr: SpillManager, n_runs: int, keys_per_run: int = 4):
    for r in range(n_runs):
        pairs = [
            (f"k{r:02d}-{i:02d}".encode(), [r * 100 + i])
            for i in range(keys_per_run)
        ]
        mgr.spill_pairs(pairs, raw=True)


class TestExternalPwayMerge:
    def test_single_pass_when_under_fan_in(self, tmp_path):
        mgr = SpillManager(1024, spill_dir=tmp_path, merge_fan_in=8)
        spill_many(mgr, 3)
        merger = ExternalPwayMerge(mgr)
        groups = list(merger.merge([mgr.open_run(i) for i in mgr.runs]))
        assert merger.passes == 1
        assert [k for k, _ in groups] == sorted(k for k, _ in groups)
        assert len(groups) == 12

    def test_consolidation_passes_when_over_fan_in(self, tmp_path):
        mgr = SpillManager(1024, spill_dir=tmp_path, merge_fan_in=2)
        spill_many(mgr, 5)
        sources = [mgr.open_run(i) for i in mgr.runs]
        merger = ExternalPwayMerge(mgr)
        groups = list(merger.merge(sources))
        assert merger.passes > 1
        assert len(groups) == 20
        assert [k for k, _ in groups] == sorted(k for k, _ in groups)
        stats = mgr.stats()
        assert stats.merge_rewritten_bytes > 0
        assert stats.merge_passes == merger.passes

    def test_duplicate_keys_concatenate_oldest_first(self, tmp_path):
        mgr = SpillManager(1024, spill_dir=tmp_path, merge_fan_in=2)
        mgr.spill_pairs([(b"k", [1])], raw=True)
        mgr.spill_pairs([(b"k", [2])], raw=True)
        mgr.spill_pairs([(b"k", [3])], raw=True)
        merged = list(merge_spilled(mgr, iter([(b"k", 4)])))
        assert merged == [(b"k", (1, 2, 3, 4))]

    def test_empty_sources(self, tmp_path):
        mgr = SpillManager(1024, spill_dir=tmp_path)
        merger = ExternalPwayMerge(mgr)
        assert list(merger.merge([])) == []
        assert merger.passes == 0

    def test_merge_is_lazy(self, tmp_path):
        mgr = SpillManager(1024, spill_dir=tmp_path, merge_fan_in=8)
        spill_many(mgr, 2)
        stream = merge_spilled(mgr, iter(()))
        first = next(stream)
        assert first[0] == b"k00-00"

    def test_inverted_index_under_budget_keeps_posting_order(self, tmp_path):
        # End to end: posting lists gathered across many spill runs come
        # back in emit order (oldest run first), so the digest matches
        # the unbudgeted run even for a reducer that keeps that order.
        import random
        from dataclasses import replace

        from repro.apps.inverted_index import (
            make_inverted_index_job,
            write_index_corpus,
        )
        from repro.core.options import RuntimeOptions
        from repro.core.supmr import SupMRRuntime

        rng = random.Random(15)
        vocab = [f"w{i:02d}" for i in range(50)]
        docs = {
            f"doc{d:03d}": "\n".join(
                " ".join(rng.choices(vocab, k=12)) for _ in range(6)
            )
            for d in range(60)
        }
        paths = write_index_corpus(tmp_path / "corpus", docs)
        options = RuntimeOptions.supmr_intrafile(4, 2, 2)
        for job in (
            make_inverted_index_job(paths),
            replace(
                make_inverted_index_job(paths),
                reduce_fn=lambda key, values: [(key, tuple(values))],
            ),
        ):
            plain = SupMRRuntime(options).run(job)
            spilled = SupMRRuntime(
                options.with_(memory_budget="32KB")
            ).run(job)
            assert spilled.spill_stats.runs >= 3, "never spilled; vacuous"
            assert spilled.output_digest() == plain.output_digest()


class Blocked:
    """A key-sorted record source that hands out blocks of a chosen
    size, each extended to the next key change (as a run file's are)."""

    def __init__(self, records, size):
        self.records, self.size = records, size

    def __iter__(self):
        return iter(self.records)

    def blocks(self):
        records, start = self.records, 0
        while start < len(records):
            stop = min(start + self.size, len(records))
            while stop < len(records) and records[stop][0] == records[stop - 1][0]:
                stop += 1
            yield records[start:stop]
            start = stop


def grouped(blocks):
    """Flat blocks as the groups a reducer would be handed."""
    return list(group_sorted_pairs(
        (k, (v,)) for k, v in chain.from_iterable(blocks)
    ))


def reference_groups(sources, sort_key):
    """Stable-sort-then-group of the concatenation: values of a key in
    source order, within a source in its own order."""
    return grouped([sorted(
        chain.from_iterable(sources), key=lambda record: sort_key(record[0])
    )])


@st.composite
def record_sources(draw, sort_key, max_sources=6):
    """Sorted multisets of (key, value) over a small key space — ties
    within a source and across sources are the norm — some empty."""
    sources = []
    for s in range(draw(st.integers(0, max_sources))):
        keys = sorted(
            draw(st.lists(st.integers(0, 12), max_size=40)), key=sort_key
        )
        sources.append([(k, (s, i)) for i, k in enumerate(keys)])
    return sources


@st.composite
def blocked_sources(draw, sort_key):
    """``record_sources``, each with its own block size."""
    return [
        Blocked(records, draw(st.integers(1, max(1, len(records)))))
        for records in draw(record_sources(sort_key))
    ]


class TestBlockMergeProperty:
    """Block merge == stable sort of the concatenation, for any blocking,
    and its blocks hold whole keys."""

    @settings(max_examples=150, deadline=None)
    @given(blocked_sources(sort_key=lambda k: k))
    def test_identity_sort_key(self, sources):
        blocks = list(merge_sorted_blocks(sources, entry_sort_key(None)))
        assert grouped(blocks) == reference_groups(sources, lambda k: k)
        assert all(blocks) and not ends_inside_a_key(blocks)

    @settings(max_examples=100, deadline=None)
    @given(blocked_sources(sort_key=lambda k: -k))
    def test_non_identity_sort_key(self, sources):
        def descending(key):
            return -key

        blocks = list(
            merge_sorted_blocks(sources, entry_sort_key(descending))
        )
        assert grouped(blocks) == reference_groups(sources, descending)
        assert all(blocks) and not ends_inside_a_key(blocks)

    @settings(max_examples=40, deadline=None)
    @given(blocked_sources(sort_key=lambda k: k), st.integers(2, 3))
    def test_more_sources_than_fan_in(self, tmp_path_factory, sources, fan_in):
        mgr = SpillManager(
            1024, spill_dir=tmp_path_factory.mktemp("merge"),
            merge_fan_in=fan_in,
        )
        try:
            merger = ExternalPwayMerge(mgr)
            got = list(merger.merge(list(sources)))
            assert got == reference_groups(sources, lambda k: k)
            if len(sources) > fan_in:
                assert merger.passes > 1
        finally:
            mgr.cleanup()

    def test_single_source_passes_blocks_through(self):
        records = [(k, k) for k in range(10)]
        blocks = list(
            merge_sorted_blocks([Blocked(records, 4)], entry_sort_key(None))
        )
        assert [len(b) for b in blocks] == [4, 4, 2]
        assert list(chain.from_iterable(blocks)) == records

    def test_in_memory_sources_are_cut_at_key_changes(self, monkeypatch):
        monkeypatch.setattr("repro.spill.external_merge.BLOCK_RECORDS", 4)
        records = [(0, i) for i in range(3)] + [(1, i) for i in range(7)] + [
            (2, 0), (3, 0),
        ]
        blocks = list(
            merge_sorted_blocks([iter(records)], entry_sort_key(None))
        )
        assert [len(b) for b in blocks] == [10, 2]
        assert list(chain.from_iterable(blocks)) == records


@contextmanager
def block_limit(n):
    """Set the block limit of the run writer and of the merge's
    in-memory slicing for the duration."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.spill.runfile.BLOCK_RECORDS", n)
        patch.setattr("repro.spill.external_merge.BLOCK_RECORDS", n)
        yield


class TestRunsOfRecords:
    """The whole out-of-core path on multisets with heavy key ties:
    1-12 spilled runs plus a resident leg, through consolidation."""

    @staticmethod
    def check(tmp_path_factory, sources, resident, fan_in, sort_key):
        mgr = SpillManager(
            1 << 20, spill_dir=tmp_path_factory.mktemp("runs"),
            merge_fan_in=fan_in, sort_key=sort_key,
        )
        key = sort_key or (lambda k: k)
        try:
            for records in sources:
                mgr.spill_records(list(records), raw=True)
            got = list(merge_spilled(
                mgr, sorted(resident, key=lambda r: key(r[0]))
            ))
            assert got == reference_groups(sources + [resident], key)
            # Every file the merge left behind — spilled and
            # consolidated alike — holds whole keys per block.
            for path in mgr.spill_dir.glob("*.spl"):
                assert not ends_inside_a_key(list(RunReader(path).blocks()))
        finally:
            mgr.cleanup()

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.tuples(st.integers(0, 6), st.integers()),
                min_size=1, max_size=30,
            ),
            min_size=1, max_size=12,
        ),
        st.lists(st.tuples(st.integers(0, 6), st.integers()), max_size=30),
        st.integers(2, 9),
        st.sampled_from([None, lambda k: -k]),
        st.integers(1, 8),
    )
    def test_grouped_output_is_the_stable_sort_of_everything(
        self, tmp_path_factory, sources, resident, fan_in, sort_key,
        block_records,
    ):
        with block_limit(block_records):
            self.check(tmp_path_factory, sources, resident, fan_in, sort_key)

    def test_one_key_with_5000_values_and_a_block_limit_of_1(
        self, tmp_path_factory
    ):
        big = [(5, ("run", i)) for i in range(5000)]
        sources = [
            [(1, "a"), (5, "early"), (9, "z")],
            big,
            [(5, "late"), (7, "x")],
        ]
        with block_limit(1):
            self.check(
                tmp_path_factory, sources, [(5, "resident")], fan_in=2,
                sort_key=None,
            )


def passes_and_rewrites(n, fan_in, first):
    """Pass count and spilled runs' worth of data rewritten when the
    first consolidation takes ``first`` sources and later ones
    ``fan_in`` (``first == fan_in``: the policy this one replaced)."""
    sizes = [1] * n
    passes, rewritten, take = 1, 0, first
    while len(sizes) > fan_in:
        batch, sizes = sizes[:take], sizes[take:]
        rewritten += sum(batch)
        sizes.insert(0, sum(batch))
        passes += 1
        take = fan_in
    return passes, rewritten


class TestConsolidationMergesOnlyWhatItMust:
    """The first pass takes what leaves whole batches behind it."""

    @pytest.mark.parametrize("fan_in", range(2, 10))
    def test_same_passes_never_more_rewritten_bytes(self, tmp_path, fan_in):
        for n in range(1, 41):
            mgr = SpillManager(
                1 << 20, spill_dir=tmp_path / f"n{n}", merge_fan_in=fan_in
            )
            for r in range(n):
                mgr.spill_records([(f"k{r:02d}", r)], raw=True)
            merger = ExternalPwayMerge(mgr)
            groups = list(merger.merge([mgr.open_run(i) for i in mgr.runs]))
            assert groups == [(f"k{r:02d}", (r,)) for r in range(n)]
            old_passes, old_rewritten = passes_and_rewrites(n, fan_in, fan_in)
            assert merger.passes == old_passes, (n, fan_in)
            # One record per spilled run, so a consolidated run's record
            # count is the number of spilled runs' worth it rewrote.
            consolidated = [i for i in mgr.runs if i.index >= n]
            assert sum(i.records for i in consolidated) <= old_rewritten
            assert mgr.stats().merge_rewritten_bytes == sum(
                i.payload_bytes for i in consolidated
            )
            mgr.cleanup()

    def test_nine_sources_at_fan_in_eight_rewrite_two(self, tmp_path):
        mgr = SpillManager(1 << 20, spill_dir=tmp_path, merge_fan_in=8)
        for r in range(9):
            mgr.spill_records([(r, r)], raw=True)
        merger = ExternalPwayMerge(mgr)
        assert len(list(merger.merge([mgr.open_run(i) for i in mgr.runs]))) == 9
        assert merger.passes == 2
        merged = [i for i in mgr.runs if i.index >= 9]
        assert [i.records for i in merged] == [2]
