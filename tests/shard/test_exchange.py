"""Integrity-verified run exchange: bucketing, CRC refetch, merging."""

from __future__ import annotations

import pytest

from repro.apps.sortapp import make_sort_job
from repro.apps.wordcount import make_wordcount_job
from repro.containers.array_container import ArrayContainer
from repro.containers.hash_container import HashContainer
from repro.containers.combiners import SumCombiner
from repro.errors import RetryExhausted
from repro.faults.log import ACTION_REFETCHED
from repro.shard.exchange import (
    fetch_run,
    merged_partition_groups,
    reduce_partition,
    run_name,
    write_partition_runs,
)
from repro.spill.manager import _flip_byte
from repro.spill.runfile import HEADER_BYTES
from repro.util.hashing import stable_hash
from tests.spill.damage import DAMAGE


def _container(pairs):
    container = HashContainer(combiner=SumCombiner())
    container.begin_round()
    emitter = container.emitter(0)
    for key, value in pairs:
        emitter.emit(key, value)
    return container


class TestWritePartitionRuns:
    def test_buckets_by_stable_hash(self, tmp_path):
        keys = [f"k{i}".encode() for i in range(40)]
        manifest = write_partition_runs(
            _container((k, 1) for k in keys), 4, tmp_path
        )
        assert [run.partition for run in manifest] == [0, 1, 2, 3]
        for run in manifest:
            reader, _ = fetch_run(
                tmp_path / run.name, tmp_path / f"copy-{run.name}"
            )
            for key, _values in reader:
                assert stable_hash(key) % 4 == run.partition

    def test_empty_partitions_still_get_runs(self, tmp_path):
        manifest = write_partition_runs(_container([(b"solo", 1)]), 8, tmp_path)
        assert len(manifest) == 8
        assert sum(run.records for run in manifest) == 1
        for run in manifest:
            assert (tmp_path / run.name).exists()

    def test_run_names_are_canonical(self, tmp_path):
        manifest = write_partition_runs(_container([(b"a", 1)]), 2, tmp_path)
        assert [run.name for run in manifest] == [run_name(0), run_name(1)]


class TestRunsOfRecords:
    """An exchange run stores the container's records, not groups."""

    def _array(self, segments):
        container = ArrayContainer()
        container.begin_round()
        for task_id, pairs in enumerate(segments):
            container.emitter(task_id).emit_many(pairs)
        return container

    def test_one_record_per_value_in_emit_order(self, tmp_path):
        container = self._array([
            [(b"k", b"first"), (b"a", b"x")],
            [(b"k", b"second"), (b"k", b"third")],
        ])
        manifest = write_partition_runs(container, 1, tmp_path)
        assert manifest[0].records == 4
        reader, _ = fetch_run(tmp_path / manifest[0].name, tmp_path / "c.spl")
        assert list(reader) == [
            (b"a", b"x"), (b"k", b"first"), (b"k", b"second"),
            (b"k", b"third"),
        ]
        assert list(merged_partition_groups([reader])) == [
            (b"a", (b"x",)), (b"k", (b"first", b"second", b"third")),
        ]

    def test_unique_keys_never_reach_the_streaming_grouping(
        self, tmp_path, monkeypatch
    ):
        def refuse(pairs):
            raise AssertionError("a unique-key exchange built a group")

        monkeypatch.setattr("repro.spill.manager.group_sorted_pairs", refuse)
        readers = []
        for shard in range(3):
            container = self._array([
                [(b"s%dk%03d" % (shard, i), b"v") for i in range(700)]
            ])
            manifest = write_partition_runs(
                container, 1, tmp_path / f"out{shard}"
            )
            readers.append(fetch_run(
                tmp_path / f"out{shard}" / manifest[0].name,
                tmp_path / f"in{shard}.spl",
            )[0])
        groups = list(merged_partition_groups(readers))
        assert len(groups) == 2100
        assert groups[0] == (b"s0k000", (b"v",))

    @pytest.mark.parametrize("repeated", [False, True])
    def test_merged_partition_records_are_its_groups_flattened(
        self, tmp_path, terasort_file, repeated
    ):
        # Three shards, two partitions; with ``repeated`` every shard
        # emits the same keys, so a group gathers values across shards.
        def merged(p, tag):
            readers = []
            for shard in range(3):
                prefix = b"k" if repeated else b"s%d" % shard
                container = self._array([[
                    (prefix + b"%03d" % (i % 300), b"v%d.%d" % (shard, i))
                    for i in range(700)
                ]])
                outbox = tmp_path / f"{tag}-out{shard}"
                write_partition_runs(container, 2, outbox)
                readers.append(fetch_run(
                    outbox / run_name(p), tmp_path / f"{tag}-in{shard}.{p}.spl"
                )[0])
            return merged_partition_groups(readers)

        job = make_sort_job([terasort_file])
        job.sorted_output = False
        total = 0
        for p in range(2):
            records = reduce_partition(job, merged(p, "records"))
            assert records == [
                (key, value)
                for key, values in merged(p, "groups") for value in values
            ]
            assert all(stable_hash(key) % 2 == p for key, _value in records)
            total += len(records)
        assert total == 2100

    def test_hash_container_posting_lists_are_flattened(self, tmp_path):
        from repro.containers.combiners import ListCombiner

        container = HashContainer(ListCombiner())
        container.begin_round()
        for word, doc in [(b"w", b"d1"), (b"v", b"d1"), (b"w", b"d2")]:
            container.emitter(0).emit(word, doc)
        manifest = write_partition_runs(container, 1, tmp_path)
        reader, _ = fetch_run(tmp_path / manifest[0].name, tmp_path / "c.spl")
        assert list(reader) == [(b"v", b"d1"), (b"w", b"d1"), (b"w", b"d2")]


class TestFetchRun:
    def _one_run(self, tmp_path):
        manifest = write_partition_runs(
            _container((f"w{i}".encode(), 1) for i in range(50)),
            1, tmp_path / "outbox",
        )
        return tmp_path / "outbox" / manifest[0].name

    def test_clean_fetch_verifies_first_try(self, tmp_path):
        src = self._one_run(tmp_path)
        reader, attempt = fetch_run(src, tmp_path / "copy.spl")
        assert attempt == 0
        assert sum(1 for _ in reader) == 50

    def test_corrupt_copy_detected_and_refetched(self, tmp_path):
        src = self._one_run(tmp_path)
        events = []
        reader, attempt = fetch_run(
            src, tmp_path / "copy.spl",
            corrupt_attempts=[0, 1], events=events, scope="(0, 0)",
        )
        # Two damaged copies rejected, third adopted; the original run
        # was never merged in its corrupted form.
        assert attempt == 2
        assert sum(1 for _ in reader) == 50
        assert [e[1] for e in events] == [ACTION_REFETCHED] * 2

    @pytest.mark.parametrize("kind", sorted(DAMAGE))
    def test_damage_matrix_every_kind_is_refetched(
        self, tmp_path, monkeypatch, kind
    ):
        src = self._one_run(tmp_path)
        monkeypatch.setattr(
            "repro.shard.exchange._flip_byte",
            lambda path, _offset: DAMAGE[kind](path),
        )
        events = []
        reader, attempt = fetch_run(
            src, tmp_path / "copy.spl", corrupt_attempts=[0], events=events,
        )
        assert attempt == 1
        assert sum(1 for _ in reader) == 50
        assert [e[1] for e in events] == [ACTION_REFETCHED]

    def test_corrupted_source_never_silently_merged(self, tmp_path):
        src = self._one_run(tmp_path)
        _flip_byte(src, HEADER_BYTES + 4)
        with pytest.raises(RetryExhausted, match="exchange_corrupt"):
            fetch_run(src, tmp_path / "copy.spl", max_retries=2)
        assert not (tmp_path / "copy.spl").exists()

    def test_retry_budget_exhaustion_raises(self, tmp_path):
        src = self._one_run(tmp_path)
        with pytest.raises(RetryExhausted):
            fetch_run(
                src, tmp_path / "copy.spl",
                corrupt_attempts=[0, 1, 2], max_retries=2,
            )


class TestMergeAndReduce:
    def test_equal_keys_fold_in_reader_order(self, tmp_path):
        a = write_partition_runs(
            _container([(b"x", 1), (b"y", 2)]), 1, tmp_path / "a"
        )
        b = write_partition_runs(
            _container([(b"x", 10), (b"z", 3)]), 1, tmp_path / "b"
        )
        readers = [
            fetch_run(tmp_path / "a" / a[0].name, tmp_path / "ca.spl")[0],
            fetch_run(tmp_path / "b" / b[0].name, tmp_path / "cb.spl")[0],
        ]
        groups = dict(merged_partition_groups(readers))
        assert groups[b"x"] == (1, 10)
        assert groups[b"y"] == (2,)
        assert groups[b"z"] == (3,)

    def test_reduce_partition_runs_the_jobs_reducer(self, tmp_path, text_file):
        job = make_wordcount_job([text_file])
        manifest = write_partition_runs(
            _container([(b"b", 2), (b"a", 1), (b"a", 4)]), 1, tmp_path
        )
        reader, _ = fetch_run(
            tmp_path / manifest[0].name, tmp_path / "copy.spl"
        )
        out = reduce_partition(job, merged_partition_groups([reader]))
        assert dict(out) == {b"a": 5, b"b": 2}


def _per_key_loop(job, groups):
    """The reducer-task body as it was before the bulk identity path."""
    out = []
    for key, values in groups:
        out.extend(job.reduce_fn(key, values))
    if job.sorted_output:
        out.sort(key=job.output_key)
    return out


class TestIdentityReduce:
    """``reduce_partition`` flattens the identity reducer in bulk; the
    result must be what one ``identity_reduce`` generator per key gives."""

    #: Unsorted keys, a repeated key, single- and multi-value groups in
    #: tuple (merged spill/exchange blocks) and list (container) form.
    GROUPS = [
        (b"m", (b"1",)),
        (b"c", [b"2", b"3", b"4"]),
        (b"x", (b"5", b"6")),
        (b"c", [b"7"]),
        (b"a", ()),
    ]

    @pytest.mark.parametrize("sorted_output", [True, False])
    def test_equals_the_per_key_generator_loop(
        self, terasort_file, sorted_output
    ):
        job = make_sort_job([terasort_file])
        job.sorted_output = sorted_output
        out = reduce_partition(job, iter(self.GROUPS))
        assert out == _per_key_loop(job, self.GROUPS)
        assert len(out) == 7
        if not sorted_output:
            assert [value for _key, value in out] == [
                b"1", b"2", b"3", b"4", b"5", b"6", b"7",
            ]

    def test_multi_value_groups_from_a_merged_partition(
        self, tmp_path, terasort_file
    ):
        # Two shards emitted the same keys: the exchange merge hands the
        # reducer multi-value groups, values in shard order.
        job = make_sort_job([terasort_file])
        readers = []
        for shard, values in enumerate(((b"a0", b"b0"), (b"a1", b"b1"))):
            container = job.container_factory()
            container.begin_round()
            container.emitter(0).emit_many(
                [(b"dup", values[0]), (b"k%d" % shard, values[1])]
            )
            manifest = write_partition_runs(
                container, 1, tmp_path / f"out{shard}"
            )
            readers.append(fetch_run(
                tmp_path / f"out{shard}" / manifest[0].name,
                tmp_path / f"in{shard}.spl",
            )[0])
        groups = list(merged_partition_groups(readers))
        assert (b"dup", (b"a0", b"a1")) in groups
        assert reduce_partition(job, groups) == _per_key_loop(job, groups) == [
            (b"dup", b"a0"), (b"dup", b"a1"), (b"k0", b"b0"), (b"k1", b"b1"),
        ]
