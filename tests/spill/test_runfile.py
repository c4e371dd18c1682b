"""Run-file format: round-trip, truncation and corruption rejection."""

from __future__ import annotations

import hashlib
import pickle

import pytest

from repro.errors import SpillError
from repro.spill.runfile import (
    BLOCK_BYTES,
    BLOCK_RECORDS,
    HEADER_BYTES,
    RunReader,
    RunWriter,
)
from tests.spill.damage import (
    DAMAGE,
    ends_inside_a_key,
    split_a_key_across_blocks,
)

GROUPS = [
    (b"apple", (3,)),
    (b"banana", (1, 1)),
    (b"cherry", (7,)),
]


def flat(groups):
    """The records a run stores for ``groups``: one per value."""
    return [(key, value) for key, values in groups for value in values]


def write_run(path, groups=GROUPS):
    with RunWriter(path) as writer:
        for key, values in groups:
            writer.write_group(key, values)
    return path


class TestRoundTrip:
    def test_groups_survive(self, tmp_path):
        path = write_run(tmp_path / "run.spl")
        reader = RunReader(path)
        assert list(reader) == flat(GROUPS)

    def test_header_counts(self, tmp_path):
        path = write_run(tmp_path / "run.spl")
        reader = RunReader(path)
        assert reader.records == len(flat(GROUPS))  # one per value
        assert len(reader) == len(flat(GROUPS))
        assert reader.payload_bytes == path.stat().st_size - HEADER_BYTES

    def test_empty_run(self, tmp_path):
        path = write_run(tmp_path / "empty.spl", groups=[])
        assert list(RunReader(path)) == []

    def test_rereadable(self, tmp_path):
        path = write_run(tmp_path / "run.spl")
        reader = RunReader(path)
        assert list(reader) == list(reader)  # streaming, not one-shot

    def test_arbitrary_picklable_keys(self, tmp_path):
        groups = [((1, "a"), (None,)), ((2, "b"), ({"x": 1},))]
        path = write_run(tmp_path / "odd.spl", groups=groups)
        assert list(RunReader(path)) == flat(groups)


class TestValidation:
    def test_truncated_payload_rejected_on_open(self, tmp_path):
        path = write_run(tmp_path / "run.spl")
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(SpillError, match="truncated"):
            RunReader(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "short.spl"
        path.write_bytes(b"\0" * (HEADER_BYTES - 1))
        with pytest.raises(SpillError, match="too short"):
            RunReader(path)

    def test_crash_mid_spill_leaves_invalid_file(self, tmp_path):
        # An unclosed writer never finalizes the header: the placeholder
        # zeros fail the magic check, exactly the crash-recovery story.
        path = tmp_path / "crashed.spl"
        writer = RunWriter(path)
        writer.write_group(b"k", (1,))
        writer._framer.flush()
        writer._fh.close()  # simulate dying before close()
        writer._fh = None
        with pytest.raises(SpillError, match="not a spill run file"):
            RunReader(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = write_run(tmp_path / "run.spl")
        data = bytearray(path.read_bytes())
        data[:4] = b"JUNK"
        path.write_bytes(bytes(data))
        with pytest.raises(SpillError, match="not a spill run file"):
            RunReader(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = write_run(tmp_path / "run.spl")
        data = bytearray(path.read_bytes())
        data[4:6] = (99).to_bytes(2, "big")
        path.write_bytes(bytes(data))
        with pytest.raises(SpillError, match="version"):
            RunReader(path)

    def test_corrupted_payload_fails_checksum(self, tmp_path):
        path = write_run(tmp_path / "run.spl")
        data = bytearray(path.read_bytes())
        # Flip a bit deep in the payload without changing the length.
        data[-3] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(SpillError):
            list(RunReader(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpillError, match="cannot open"):
            RunReader(tmp_path / "nope.spl")

    def test_write_after_close_rejected(self, tmp_path):
        writer = RunWriter(tmp_path / "run.spl")
        writer.close()
        with pytest.raises(SpillError, match="closed"):
            writer.write_group(b"k", (1,))


def many_groups(n):
    return [(f"key-{i:06d}".encode(), (i,)) for i in range(n)]


class TestBlocks:
    def test_multi_block_round_trip(self, tmp_path):
        groups = many_groups(2 * BLOCK_RECORDS + 17)
        path = write_run(tmp_path / "run.spl", groups)
        reader = RunReader(path)
        blocks = list(reader.blocks())
        assert [len(b) for b in blocks] == [BLOCK_RECORDS, BLOCK_RECORDS, 17]
        assert [r for block in blocks for r in block] == flat(groups)
        assert list(reader) == flat(groups)
        assert reader.records == len(groups)
        assert reader.verify()

    def test_write_groups_writes_the_same_file(self, tmp_path):
        # Per-group calls, bulk record calls and any mix of the two
        # write byte-identical files.
        groups = many_groups(BLOCK_RECORDS + 5)
        one = write_run(tmp_path / "one.spl", groups)
        with RunWriter(tmp_path / "bulk.spl") as writer:
            writer.write_records(iter(flat(groups[:3])))
            writer.write_group(*groups[3])
            writer.write_records(flat(groups[4:]))
        assert (tmp_path / "bulk.spl").read_bytes() == one.read_bytes()

    def test_fat_groups_shrink_the_blocks_that_follow(self, tmp_path):
        fat = [(i, (bytes([i % 251]) * 4096,)) for i in range(2 * BLOCK_RECORDS)]
        path = write_run(tmp_path / "fat.spl", fat)
        sizes = [len(block) for block in RunReader(path).blocks()]
        # The first block is cut by count alone and overshoots; every
        # later one is sized from its predecessor's bytes.
        assert sizes[0] == BLOCK_RECORDS
        assert max(sizes[1:]) <= BLOCK_BYTES // 4096
        assert sum(sizes) == len(fat)
        assert list(RunReader(path)) == flat(fat)

    def test_counters_exact_mid_run_and_after_close(self, tmp_path):
        groups = many_groups(BLOCK_RECORDS + 40)
        path = tmp_path / "run.spl"
        with RunWriter(path) as writer:
            for n, (key, values) in enumerate(groups, start=1):
                writer.write_group(key, values)
                if n in (1, 40, BLOCK_RECORDS, BLOCK_RECORDS + 1):
                    assert writer.records == n
            # An open block is pending here; the byte count covers it
            # as if the run closed now, without sealing it.
            mid_run = writer.payload_bytes
            writer._framer.flush()
            writer._fh.flush()
            assert mid_run > path.stat().st_size - HEADER_BYTES
            assert writer.records == len(groups)
        assert writer.records == len(groups)
        assert writer.payload_bytes == mid_run
        assert writer.payload_bytes == path.stat().st_size - HEADER_BYTES
        reader = RunReader(path)
        assert (reader.records, reader.payload_bytes) == (
            writer.records, writer.payload_bytes
        )
        assert list(reader) == flat(groups)

    def test_reading_payload_bytes_never_seals_a_block(self, tmp_path):
        # One key, read after every value: a read that sealed would end
        # a block inside the key.
        path = tmp_path / "run.spl"
        with RunWriter(path) as writer:
            for value in range(40):
                writer.write_group(b"k", (value,))
                assert writer.payload_bytes > 0
            writer.write_group(b"l", (0,))
        assert [len(b) for b in RunReader(path).blocks()] == [41]


class TestBytesOnDisk:
    def test_format_3_bytes_are_pinned(self, tmp_path):
        # A run of three blocks and an empty run, hashed: any change to
        # the header, the frame prefix, the CRC or the block cut shows.
        full = tmp_path / "full.spl"
        with RunWriter(full) as writer:
            writer.write_records(
                (i // 3, i * 7) for i in range(2 * BLOCK_RECORDS + 100)
            )
        empty = write_run(tmp_path / "empty.spl", groups=[])
        assert len(list(RunReader(full).blocks())) == 3
        assert hashlib.sha256(full.read_bytes()).hexdigest() == (
            "f6b874f8ce4e095fa8037e317ffda8141a48d040297613cd61ca70274892cb1c"
        )
        assert hashlib.sha256(empty.read_bytes()).hexdigest() == (
            "cc8e3597cd7e0e06adaf3e4b546e2af1a75476604a3a186d04f79a017f06b24e"
        )


class TestNoBlockEndsInsideAKey:
    """The writer's one invariant, on every way in."""

    def test_full_block_extends_to_the_next_key_change(self, tmp_path):
        records = (
            [(b"a", i) for i in range(BLOCK_RECORDS - 2)]
            + [(b"b", i) for i in range(10)]
            + [(b"c", 0)]
        )
        with RunWriter(tmp_path / "run.spl") as writer:
            writer.write_records(records)
        blocks = list(RunReader(tmp_path / "run.spl").blocks())
        assert [len(b) for b in blocks] == [BLOCK_RECORDS + 8, 1]
        assert not ends_inside_a_key(blocks)

    def test_a_key_continued_by_a_later_call_stays_whole(self, tmp_path):
        with RunWriter(tmp_path / "run.spl") as writer:
            writer.write_records([(b"a", i) for i in range(BLOCK_RECORDS)])
            writer.write_group(b"a", (-1, -2))
            writer.write_records(iter([(b"a", -3), (b"b", 0)]))
        blocks = list(RunReader(tmp_path / "run.spl").blocks())
        assert [len(b) for b in blocks] == [BLOCK_RECORDS + 3, 1]

    @pytest.mark.parametrize("how", ["write_records", "write_group"])
    def test_one_key_with_5000_values_and_a_block_limit_of_1(
        self, tmp_path, monkeypatch, how
    ):
        monkeypatch.setattr("repro.spill.runfile.BLOCK_RECORDS", 1)
        groups = [(b"a", (0,)), (b"k", tuple(range(5000))), (b"z", (1, 2))]
        path = tmp_path / "run.spl"
        with RunWriter(path) as writer:
            if how == "write_records":
                writer.write_records(flat(groups))
            else:
                for key, values in groups:
                    writer.write_group(key, values)
        blocks = list(RunReader(path).blocks())
        assert [len(b) for b in blocks] == [1, 5000, 2]
        assert [r for b in blocks for r in b] == flat(groups)

    def test_reader_refuses_a_block_that_continues_a_key(self, tmp_path):
        path = write_run(tmp_path / "run.spl", many_groups(20))
        split_a_key_across_blocks(path)
        reader = RunReader(path)  # header, size, CRC, counts: all true
        assert reader.verify()  # ...and verify() decodes nothing
        with pytest.raises(SpillError, match="inside the key"):
            list(reader)

    def test_verify_never_unpickles(self, tmp_path, monkeypatch):
        path = write_run(tmp_path / "run.spl", many_groups(BLOCK_RECORDS + 9))
        reader = RunReader(path)

        def refuse(*args, **kwargs):
            raise AssertionError("verify() decoded a block")

        monkeypatch.setattr(pickle, "loads", refuse)
        assert reader.verify()


@pytest.fixture(params=["mapped", "unmappable"])
def mapping(request, monkeypatch):
    """Run a test over the mmap path and over the read-the-bytes
    fallback a file that cannot be mapped takes."""
    if request.param == "unmappable":
        def refuse(*args, **kwargs):
            raise OSError("cannot map this file")

        monkeypatch.setattr("repro.spill.runfile.mmap.mmap", refuse)
    return request.param


class TestDamageMatrix:
    """Every kind of damage is a typed error, mapped or not."""

    def test_intact_run_reads_the_same_either_way(self, tmp_path, mapping):
        groups = many_groups(BLOCK_RECORDS + 9)
        reader = RunReader(write_run(tmp_path / "run.spl", groups))
        assert list(reader) == flat(groups)
        assert reader.verify()
        assert list(RunReader(write_run(tmp_path / "e.spl", []))) == []

    @pytest.mark.parametrize("kind", sorted(DAMAGE))
    def test_damage_raises_spill_error(self, tmp_path, mapping, kind):
        path = write_run(tmp_path / "run.spl", many_groups(BLOCK_RECORDS + 9))
        DAMAGE[kind](path)
        with pytest.raises(SpillError):
            list(RunReader(path))
        with pytest.raises(SpillError):
            if not RunReader(path).verify():
                raise SpillError("verify() said no")

    def test_last_block_is_withheld_from_a_bad_run(self, tmp_path, mapping):
        path = write_run(tmp_path / "run.spl", many_groups(BLOCK_RECORDS + 9))
        data = bytearray(path.read_bytes())
        data[-3] ^= 0xFF  # inside the last block
        path.write_bytes(bytes(data))
        seen = []
        with pytest.raises(SpillError, match="checksum"):
            for block in RunReader(path).blocks():
                seen.append(len(block))
        assert seen == [BLOCK_RECORDS]
