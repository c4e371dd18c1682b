"""External p-way merge: bounded fan-in, multi-pass consolidation."""

from __future__ import annotations

import heapq
from itertools import chain

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
        merged = list(merge_spilled(mgr, iter([(b"k", (4,))])))
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
    """A key-sorted source that hands out blocks of a chosen size."""

    def __init__(self, groups, size):
        self.groups, self.size = groups, size

    def __iter__(self):
        return iter(self.groups)

    def blocks(self):
        for i in range(0, len(self.groups), self.size):
            yield self.groups[i:i + self.size]


def reference_merge(sources, sort_key):
    merged = heapq.merge(
        *(iter(s) for s in sources), key=lambda g: sort_key(g[0])
    )
    return list(group_sorted_pairs(merged))


@st.composite
def blocked_sources(draw, sort_key):
    """Key-unique sorted sources over a small key space (so ties across
    sources are the norm), each with its own block size; some empty."""
    sources = []
    for s in range(draw(st.integers(0, 6))):
        keys = sorted(
            draw(st.sets(st.integers(0, 40), max_size=30)), key=sort_key
        )
        groups = [(k, (f"s{s}k{k}", s)) for k in keys]
        size = draw(st.integers(1, max(1, len(groups))))
        sources.append(Blocked(groups, size))
    return sources


class TestBlockMergeProperty:
    """Block merge == heapq.merge + group_sorted_pairs, for any blocking."""

    @settings(max_examples=150, deadline=None)
    @given(blocked_sources(sort_key=lambda k: k))
    def test_identity_sort_key(self, sources):
        got = list(chain.from_iterable(
            merge_sorted_blocks(sources, entry_sort_key(None))
        ))
        assert got == reference_merge(sources, lambda k: k)

    @settings(max_examples=100, deadline=None)
    @given(blocked_sources(sort_key=lambda k: -k))
    def test_non_identity_sort_key(self, sources):
        def descending(key):
            return -key

        got = list(chain.from_iterable(
            merge_sorted_blocks(sources, entry_sort_key(descending))
        ))
        assert got == reference_merge(sources, descending)

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
            assert got == reference_merge(sources, lambda k: k)
            if len(sources) > fan_in:
                assert merger.passes > 1
        finally:
            mgr.cleanup()

    def test_single_source_passes_blocks_through(self):
        groups = [(k, (k,)) for k in range(10)]
        blocks = list(
            merge_sorted_blocks([Blocked(groups, 4)], entry_sort_key(None))
        )
        assert [len(b) for b in blocks] == [4, 4, 2]
        assert list(chain.from_iterable(blocks)) == groups
