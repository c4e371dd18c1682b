"""ByteSpan: the zero-copy window every ingest path speaks."""

from __future__ import annotations

import pickle

import pytest

from repro.io.records import RecordCodec, TeraRecordCodec
from repro.io.span import ByteSpan, as_span, materialize
from repro.parallel.splits import SplitRef


class TestConstruction:
    def test_whole_buffer_by_default(self):
        span = ByteSpan(b"hello")
        assert len(span) == 5
        assert bytes(span) == b"hello"

    def test_window(self):
        span = ByteSpan(b"hello world", 6, 11)
        assert bytes(span) == b"world"

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            ByteSpan(b"abc", 0, 4)
        with pytest.raises(ValueError):
            ByteSpan(b"abc", -1, 2)
        with pytest.raises(ValueError):
            ByteSpan(b"abc", 2, 1)

    def test_empty_span_is_falsy(self):
        assert not ByteSpan(b"abc", 1, 1)
        assert ByteSpan(b"abc", 1, 2)


class TestSearch:
    def test_find_is_relative_to_window(self):
        span = ByteSpan(b"xx\nyy\nzz", 3)  # window: "yy\nzz"
        assert span.find(b"\n") == 2
        assert span.find(b"zz") == 3
        assert span.find(b"xx") == -1

    def test_find_with_bounds(self):
        span = ByteSpan(b"a.b.c")
        assert span.find(b".", 2) == 3
        assert span.find(b".", 2, 3) == -1

    def test_find_never_sees_outside_the_window(self):
        span = ByteSpan(b"abcabc", 1, 4)  # "bca"
        assert span.find(b"abc") == -1

    def test_endswith_startswith(self):
        span = ByteSpan(b"..record\n..", 2, 9)
        assert span.endswith(b"\n")
        assert span.startswith(b"rec")
        assert not span.endswith(b"record")
        assert not ByteSpan(b"ab").endswith(b"abc")


class TestMaterialize:
    def test_slice_returns_bytes(self):
        span = ByteSpan(b"0123456789", 2, 8)  # "234567"
        assert span[1:3] == b"34"
        assert span[:] == b"234567"
        assert span[4:] == b"67"

    def test_index_returns_int(self):
        span = ByteSpan(b"abc", 1)
        assert span[0] == ord("b")
        assert span[-1] == ord("c")
        with pytest.raises(IndexError):
            span[2]

    def test_strided_slice_rejected(self):
        with pytest.raises(ValueError):
            ByteSpan(b"abcdef")[::2]

    def test_split(self):
        assert ByteSpan(b" a b  c ").split() == [b"a", b"b", b"c"]

    def test_equality_and_hash(self):
        assert ByteSpan(b"xabcx", 1, 4) == b"abc"
        assert ByteSpan(b"xabcx", 1, 4) == ByteSpan(b"abc")
        assert hash(ByteSpan(b"xabcx", 1, 4)) == hash(b"abc")

    def test_helpers(self):
        span = as_span(b"data")
        assert as_span(span) is span
        assert materialize(span) == b"data"
        assert materialize(b"data") == b"data"
        assert materialize(bytearray(b"data")) == b"data"


class TestNarrowing:
    def test_span_offsets_are_relative(self):
        outer = ByteSpan(b"0123456789", 2, 9)  # "2345678"
        inner = outer.span(1, 4)
        assert bytes(inner) == b"345"
        assert inner.base is outer.base

    def test_bad_subspan_raises(self):
        with pytest.raises(ValueError):
            ByteSpan(b"abcd").span(1, 9)


class TestPickling:
    """A span crosses a pickle as its window, never as its base."""

    def test_pickles_only_the_window(self):
        span = ByteSpan(b"x" * 2_000_000, 5_000, 6_000)
        blob = pickle.dumps(span, protocol=5)
        assert len(blob) < 1_100
        clone = pickle.loads(blob)
        assert isinstance(clone, ByteSpan)
        assert bytes(clone) == bytes(span)

    def test_mmap_backed_span_round_trips(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_bytes(b"0123456789")
        span = SplitRef(str(path), 3, 4).resolve()
        clone = pickle.loads(pickle.dumps(span, protocol=5))
        assert bytes(clone) == b"3456"
        assert clone.find(b"5") == 2


class TestCodecCompatibility:
    """The full codec surface works identically on spans and bytes."""

    def test_iter_records_matches_bytes(self):
        data = b"one\ntwo\nthree\nfour"
        span = ByteSpan(b"??" + data + b"??", 2, 2 + len(data))
        codec = RecordCodec()
        assert list(codec.iter_records(span)) == list(codec.iter_records(data))

    def test_record_end_matches_bytes(self):
        data = b"aa\nbb\ncc"
        span = ByteSpan(data)
        codec = RecordCodec()
        for pos in range(len(data) + 1):
            assert codec.record_end(span, pos) == codec.record_end(data, pos)

    def test_tera_pairs_match_bytes(self):
        codec = TeraRecordCodec(key_len=4)
        data = b"kkkk payload\r\nqqqq payztwo\r\n"
        assert list(codec.iter_pairs(ByteSpan(data))) == list(
            codec.iter_pairs(data)
        )
