"""Ways to damage a format-3 run file, shared by the damage matrices.

Each entry of :data:`DAMAGE` rewrites a sealed run in place the way one
kind of rot, truncation or version skew would.  Every one of them must
surface as :class:`~repro.errors.SpillError` — at open, in ``verify()``
or while iterating — and make an exchange fetch reject the copy.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from pathlib import Path

from repro.io.writer import _FRAME_PREFIX
from repro.spill.manager import group_sorted_pairs
from repro.spill.runfile import _HEADER, HEADER_BYTES, MAGIC, VERSION, RunReader


def _flip(path: Path, offset: int) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


def _reseal(path: Path) -> None:
    """Rewrite the header's length and CRC to fit the payload as it now
    stands — damage a checksum cannot see."""
    data = path.read_bytes()
    magic, version, reserved, records, _length, _crc = _HEADER.unpack(
        data[:HEADER_BYTES]
    )
    payload = data[HEADER_BYTES:]
    path.write_bytes(
        _HEADER.pack(magic, version, reserved, records, len(payload),
                     zlib.crc32(payload))
        + payload
    )


def flip_block_length(path: Path) -> None:
    """A flipped byte in the first block's length prefix."""
    _flip(path, HEADER_BYTES + 3)


def flip_block_pickle(path: Path) -> None:
    """A flipped byte inside a block's pickle."""
    size = path.stat().st_size
    _flip(path, HEADER_BYTES + (size - HEADER_BYTES) // 2)


def flip_header_count(path: Path) -> None:
    """A flipped byte in the header's record count."""
    _flip(path, 4 + 2 + 2 + 7)  # low byte of ``records``


def truncate_mid_block(path: Path) -> None:
    """The file ends part-way through its last block."""
    path.write_bytes(path.read_bytes()[:-7])


def cut_mid_block_resealed(path: Path) -> None:
    """The last block is cut short and the header re-sealed around what
    is left: size and CRC agree, the last frame does not fit."""
    path.write_bytes(path.read_bytes()[:-7])
    _reseal(path)


def count_mismatch_resealed(path: Path) -> None:
    """A block claims one record more than it holds, CRC re-sealed: only
    the count checks can tell."""
    data = bytearray(path.read_bytes())
    length, count = _FRAME_PREFIX.unpack_from(data, HEADER_BYTES)
    _FRAME_PREFIX.pack_into(data, HEADER_BYTES, length, count + 1)
    path.write_bytes(bytes(data))
    _reseal(path)


def _groups_of(path: Path) -> list:
    """The run's records as the ``(key, values_tuple)`` groups the older
    formats stored."""
    return list(group_sorted_pairs((k, (v,)) for k, v in RunReader(path)))


def _blocks_payload(blocks: list[list]) -> bytes:
    """``>II``-framed pickled blocks — the layout formats 2 and 3 share."""
    return b"".join(
        _FRAME_PREFIX.pack(len(blob), len(block)) + blob
        for block, blob in (
            (block, pickle.dumps(block, protocol=pickle.HIGHEST_PROTOCOL))
            for block in blocks
        )
    )


def _write_file(path: Path, version: int, records: int, payload: bytes) -> None:
    path.write_bytes(
        _HEADER.pack(MAGIC, version, 0, records, len(payload),
                     zlib.crc32(payload))
        + payload
    )


def rewrite_as_v1(path: Path) -> None:
    """The same data in the pre-block layout: version 1, one
    ``>I``-prefixed pickle per ``(key, values_tuple)`` group."""
    groups = _groups_of(path)
    payload = b"".join(
        struct.pack(">I", len(blob)) + blob
        for blob in (
            pickle.dumps(group, protocol=pickle.HIGHEST_PROTOCOL)
            for group in groups
        )
    )
    _write_file(path, 1, len(groups), payload)


def rewrite_as_v2(path: Path, block_groups: int = 512) -> None:
    """The same data as PR 15 wrote it: version 2, framed blocks of
    ``(key, values_tuple)`` groups — a sealed run of an older
    checkpoint.  Every byte of it is self-consistent; only the version
    says it must not be merged as records."""
    groups = _groups_of(path)
    blocks = [
        groups[i:i + block_groups] for i in range(0, len(groups), block_groups)
    ]
    _write_file(path, 2, len(groups), _blocks_payload(blocks))


def ends_inside_a_key(blocks: list[list]) -> bool:
    """True when some (non-empty) block starts with the key the block
    before it ended on — what the writer's one invariant rules out."""
    blocks = [block for block in blocks if block]
    return any(a[-1][0] == b[0][0] for a, b in zip(blocks, blocks[1:]))


def split_a_key_across_blocks(path: Path) -> None:
    """A hand-built format-3 file, CRC and counts all true, whose second
    block starts with the first block's last key — what the writer never
    produces and the merge could not survive.  Not in :data:`DAMAGE`:
    ``verify()`` decodes nothing, so only reading the blocks can tell."""
    records = list(RunReader(path))
    cut = max(1, len(records) // 2)
    first = records[:cut]
    second = [(first[-1][0], "continued")] + records[cut:]
    _write_file(
        path, VERSION, len(first) + len(second),
        _blocks_payload([first, second]),
    )


DAMAGE = {
    "block-length-byte": flip_block_length,
    "block-pickle-byte": flip_block_pickle,
    "header-count-byte": flip_header_count,
    "truncated-mid-block": truncate_mid_block,
    "cut-mid-block-resealed": cut_mid_block_resealed,
    "count-mismatch-resealed": count_mismatch_resealed,
    "format-1": rewrite_as_v1,
    "format-2": rewrite_as_v2,
}
