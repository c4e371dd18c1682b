"""Ways to damage a format-2 run file, shared by the damage matrices.

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
from repro.spill.runfile import _HEADER, HEADER_BYTES, MAGIC, RunReader


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
    """A block claims one group more than it holds, CRC re-sealed: only
    the count checks can tell."""
    data = bytearray(path.read_bytes())
    length, count = _FRAME_PREFIX.unpack_from(data, HEADER_BYTES)
    _FRAME_PREFIX.pack_into(data, HEADER_BYTES, length, count + 1)
    path.write_bytes(bytes(data))
    _reseal(path)


def rewrite_as_v1(path: Path) -> None:
    """The same groups in the pre-block layout: version 1, one
    ``>I``-prefixed pickle per group."""
    groups = list(RunReader(path))
    payload = b"".join(
        struct.pack(">I", len(blob)) + blob
        for blob in (
            pickle.dumps(group, protocol=pickle.HIGHEST_PROTOCOL)
            for group in groups
        )
    )
    path.write_bytes(
        _HEADER.pack(MAGIC, 1, 0, len(groups), len(payload),
                     zlib.crc32(payload))
        + payload
    )


DAMAGE = {
    "block-length-byte": flip_block_length,
    "block-pickle-byte": flip_block_pickle,
    "header-count-byte": flip_header_count,
    "truncated-mid-block": truncate_mid_block,
    "cut-mid-block-resealed": cut_mid_block_resealed,
    "count-mismatch-resealed": count_mismatch_resealed,
    "format-1": rewrite_as_v1,
}
