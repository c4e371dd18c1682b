"""Terasort application."""

from __future__ import annotations

from repro.apps.sortapp import make_sort_job, reference_sort
from repro.core.job import identity_reduce
from repro.core.options import RuntimeOptions
from repro.core.phoenix import PhoenixRuntime
from repro.core.supmr import run_ingest_mr
from repro.io.records import TeraRecordCodec


class TestSortApp:
    def test_reduce_is_identity(self, terasort_file):
        reduce_fn = make_sort_job([terasort_file]).reduce_fn
        assert reduce_fn is identity_reduce
        assert list(reduce_fn(b"k", [b"v1", b"v2"])) == [
            (b"k", b"v1"), (b"k", b"v2"),
        ]

    def test_sorted_output(self, terasort_file):
        result = PhoenixRuntime().run(make_sort_job([terasort_file]))
        keys = result.output_keys()
        assert keys == sorted(keys)

    def test_no_records_lost(self, terasort_file):
        result = PhoenixRuntime().run(make_sort_job([terasort_file]))
        assert result.n_output_pairs == 3000

    def test_matches_reference(self, terasort_file):
        result = PhoenixRuntime().run(make_sort_job([terasort_file]))
        assert result.output == reference_sort([terasort_file])

    def test_supmr_matches_reference(self, terasort_file):
        result = run_ingest_mr(
            make_sort_job([terasort_file]),
            RuntimeOptions.supmr_interfile("20KB"),
        )
        assert result.output == reference_sort([terasort_file])

    def test_duplicate_keys_preserved(self, tmp_path):
        codec = TeraRecordCodec()
        record = b"SAMEKEY000" + b" " + b"p" * 87 + b"\r\n"
        f = tmp_path / "dups.dat"
        f.write_bytes(record * 10)
        result = PhoenixRuntime().run(make_sort_job([f]))
        assert result.n_output_pairs == 10
        assert all(k == b"SAMEKEY000" for k, _v in result.output)

    def test_custom_codec(self, tmp_path):
        codec = TeraRecordCodec(key_len=4, record_len=12)
        f = tmp_path / "small.dat"
        f.write_bytes(b"keyB val1\r\nkeyA val2\r\n")
        result = PhoenixRuntime().run(make_sort_job([f], codec=codec))
        assert result.output_keys() == [b"keyA", b"keyB"]

    def test_array_container_no_combining(self, terasort_file):
        result = PhoenixRuntime().run(make_sort_job([terasort_file]))
        stats = result.container_stats
        assert stats.emits == stats.distinct_keys == 3000
