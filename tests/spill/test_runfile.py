"""Run-file format: round-trip, truncation and corruption rejection."""

from __future__ import annotations

import pytest

from repro.errors import SpillError
from repro.spill.runfile import (
    BLOCK_BYTES,
    BLOCK_GROUPS,
    HEADER_BYTES,
    RunReader,
    RunWriter,
)
from tests.spill.damage import DAMAGE

GROUPS = [
    (b"apple", (3,)),
    (b"banana", (1, 1)),
    (b"cherry", (7,)),
]


def write_run(path, groups=GROUPS):
    with RunWriter(path) as writer:
        for key, values in groups:
            writer.write_group(key, values)
    return path


class TestRoundTrip:
    def test_groups_survive(self, tmp_path):
        path = write_run(tmp_path / "run.spl")
        reader = RunReader(path)
        assert list(reader) == GROUPS

    def test_header_counts(self, tmp_path):
        path = write_run(tmp_path / "run.spl")
        reader = RunReader(path)
        assert reader.records == len(GROUPS)
        assert len(reader) == len(GROUPS)
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
        assert list(RunReader(path)) == groups


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
        groups = many_groups(2 * BLOCK_GROUPS + 17)
        path = write_run(tmp_path / "run.spl", groups)
        reader = RunReader(path)
        blocks = list(reader.blocks())
        assert [len(b) for b in blocks] == [BLOCK_GROUPS, BLOCK_GROUPS, 17]
        assert [g for block in blocks for g in block] == groups
        assert list(reader) == groups
        assert reader.records == len(groups)
        assert reader.verify()

    def test_write_groups_writes_the_same_file(self, tmp_path):
        groups = many_groups(BLOCK_GROUPS + 5)
        one = write_run(tmp_path / "one.spl", groups)
        with RunWriter(tmp_path / "bulk.spl") as writer:
            writer.write_groups(iter(groups[:3]))
            writer.write_group(*groups[3])
            writer.write_groups(groups[4:])
        assert (tmp_path / "bulk.spl").read_bytes() == one.read_bytes()

    def test_fat_groups_shrink_the_blocks_that_follow(self, tmp_path):
        fat = [(i, (bytes([i % 251]) * 4096,)) for i in range(2 * BLOCK_GROUPS)]
        path = write_run(tmp_path / "fat.spl", fat)
        sizes = [len(block) for block in RunReader(path).blocks()]
        # The first block is cut by count alone and overshoots; every
        # later one is sized from its predecessor's bytes.
        assert sizes[0] == BLOCK_GROUPS
        assert max(sizes[1:]) <= BLOCK_BYTES // 4096
        assert sum(sizes) == len(fat)
        assert list(RunReader(path)) == fat

    def test_counters_exact_mid_run_and_after_close(self, tmp_path):
        groups = many_groups(BLOCK_GROUPS + 40)
        path = tmp_path / "run.spl"
        with RunWriter(path) as writer:
            for n, (key, values) in enumerate(groups, start=1):
                writer.write_group(key, values)
                if n in (1, 40, BLOCK_GROUPS, BLOCK_GROUPS + 1):
                    assert writer.records == n
            # An open block is pending here; the byte count covers it.
            mid_run = writer.payload_bytes
            writer._framer.flush()
            writer._fh.flush()
            assert mid_run == path.stat().st_size - HEADER_BYTES
            assert writer.records == len(groups)
        assert writer.records == len(groups)
        assert writer.payload_bytes == path.stat().st_size - HEADER_BYTES
        reader = RunReader(path)
        assert (reader.records, reader.payload_bytes) == (
            writer.records, writer.payload_bytes
        )
        assert list(reader) == groups


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
        groups = many_groups(BLOCK_GROUPS + 9)
        reader = RunReader(write_run(tmp_path / "run.spl", groups))
        assert list(reader) == groups
        assert reader.verify()
        assert list(RunReader(write_run(tmp_path / "e.spl", []))) == []

    @pytest.mark.parametrize("kind", sorted(DAMAGE))
    def test_damage_raises_spill_error(self, tmp_path, mapping, kind):
        path = write_run(tmp_path / "run.spl", many_groups(BLOCK_GROUPS + 9))
        DAMAGE[kind](path)
        with pytest.raises(SpillError):
            list(RunReader(path))
        with pytest.raises(SpillError):
            if not RunReader(path).verify():
                raise SpillError("verify() said no")

    def test_last_block_is_withheld_from_a_bad_run(self, tmp_path, mapping):
        path = write_run(tmp_path / "run.spl", many_groups(BLOCK_GROUPS + 9))
        data = bytearray(path.read_bytes())
        data[-3] ^= 0xFF  # inside the last block
        path.write_bytes(bytes(data))
        seen = []
        with pytest.raises(SpillError, match="checksum"):
            for block in RunReader(path).blocks():
                seen.append(len(block))
        assert seen == [BLOCK_GROUPS]
