"""Spill run files: sorted on-disk runs of intermediate (key, value) records.

A run file is the unit the spill subsystem writes when the live
container crosses its memory budget.  The format (version 3) is
deliberately dumb and verifiable:

* a fixed-size **checksummed header** — magic, version, record count,
  payload length, CRC-32 of the payload section;
* a payload of block frames (:class:`repro.io.writer.FramedRecordWriter`
  framing: pickle length, record count, pickle), each frame the pickle
  of a *list* of flat ``(key, value)`` records, **sorted stably by
  key**, equal keys adjacent, within and across blocks.

A record is stored as it was emitted: nothing between the budget gate
and the reducer wraps it in a group.  That all of a key's values still
arrive together rests on one invariant the writer enforces and the
reader checks: **a block never ends inside a key**.  With it, whoever
holds one block per source holds every record of every key at or below
the smallest last key, which is all the external merge and the shard
exchange need to emit whole keys without ever grouping; grouping
happens once, where a reducer is about to be called
(:func:`repro.spill.manager.group_sorted_block`).

One pickle, one frame and two CRC calls per block — not per record — is
what keeps the codec off the critical path.  A block closes at the
first key change at or after :data:`BLOCK_RECORDS` records, or sooner
when the block before it came out larger than :data:`BLOCK_BYTES`, so a
run of fat records cannot blow a reader's one-block-per-source memory
bound (one key's values are atomic: a key with more of them than a
block should hold still gets one block).

The header is written last (the writer seeks back over a placeholder),
so a crash mid-spill leaves a file that fails validation instead of a
file that silently merges garbage.  :class:`RunReader` validates the
header and the physical length eagerly on open — a truncated run is
rejected before the merge starts — and folds the CRC while streaming,
checking it (and that the blocks' record counts sum to the header's)
before the last block is handed out, so reading holds one block.
Version 1 (one frame per group) and version 2 (blocks of
``(key, values_tuple)`` groups) files are refused with the same typed
error as any other unsupported version.
"""

from __future__ import annotations

import mmap
import pickle
import struct
import zlib
from itertools import islice, repeat
from pathlib import Path
from typing import TYPE_CHECKING, Any, BinaryIO, Hashable, Iterable, Iterator

from repro.errors import SpillError
from repro.io.writer import _FRAME_PREFIX, FramedRecordWriter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.qos.throttle import TokenBucket

MAGIC = b"SPRN"
VERSION = 3

#: Records per block.  Large enough that per-block costs (one pickle
#: call, one frame, one merge round) vanish per record, small enough
#: that ``fan_in`` loaded blocks stay a rounding error beside any
#: budget worth configuring.
BLOCK_RECORDS = 512
#: Pickled size a block should stay under; a block that came out larger
#: shrinks the record limit of the next one in proportion.
BLOCK_BYTES = 256 * 1024

#: magic(4s) version(H) reserved(H) records(Q) payload_len(Q) crc32(I)
_HEADER = struct.Struct(">4sHHQQI")
HEADER_BYTES = _HEADER.size

Pair = tuple[Hashable, Any]
#: "No block read yet" for the reader's no-split check (``None`` is a key).
_NO_KEY = object()


def finish_key(block: list[Pair], records: Iterator[Pair]) -> Pair | None:
    """Move the records that continue ``block``'s last key from
    ``records`` onto it; return the first record of the next key
    (``None`` when ``records`` ran out first).

    The one place the no-split invariant is established: the run writer
    closes its blocks with it, and the external merge cuts its
    in-memory sources with it.
    """
    last = block[-1][0]
    for record in records:
        if record[0] != last:
            return record
        block.append(record)
    return None


class RunWriter:
    """Writes one sorted run file; use as a context manager.

    The caller streams records — already sorted by key, equal keys
    adjacent — through :meth:`write_records` (or a key's values through
    :meth:`write_group`); the writer gathers them into blocks that end
    on a key change, frames and checksums each block and finalizes the
    header on close.  A ``throttle``
    (:class:`repro.qos.throttle.TokenBucket`) charges the payload bytes
    against the job's I/O budget when the run is sealed — the spill-write
    half of bandwidth isolation.
    """

    def __init__(
        self, path: str | Path, throttle: "TokenBucket | None" = None
    ) -> None:
        self.path = Path(path)
        self._throttle = throttle
        self._fh: BinaryIO | None = open(self.path, "wb")
        self._fh.write(b"\0" * HEADER_BYTES)  # placeholder header
        self._framer = FramedRecordWriter(self._fh)
        self._block: list[Pair] = []
        self._limit = BLOCK_RECORDS

    def write_group(self, key: Hashable, values: Iterable[Any]) -> None:
        """Append one key's values, one ``(key, value)`` record each."""
        self.write_records(zip(repeat(key), values))

    def write_records(self, records: Iterable[Pair]) -> None:
        """Append ``(key, value)`` records, a block at a time.

        A block that reaches its limit is held open until the first
        record of another key arrives — in this call or a later one —
        so no block ends inside a key.
        """
        if self._fh is None:
            raise SpillError(f"write to closed run file {self.path}")
        it = iter(records)
        block = self._block
        while True:
            block += islice(it, max(0, self._limit - len(block)))
            if len(block) < self._limit:
                return
            head = finish_key(block, it)
            if head is None:
                return
            self._seal_block()
            block.append(head)

    def _seal_block(self) -> None:
        """Frame the pending block and size the next one from it."""
        block = self._block
        if not block:
            return
        payload = pickle.dumps(block, protocol=pickle.HIGHEST_PROTOCOL)
        self._framer.write(payload, len(block))
        self._limit = max(
            1, min(BLOCK_RECORDS, len(block) * BLOCK_BYTES // len(payload))
        )
        block.clear()

    @property
    def records(self) -> int:
        """Records written so far — one per value — the pending block's
        included."""
        return self._framer.records + len(self._block)

    @property
    def payload_bytes(self) -> int:
        """Payload-section bytes (frames included) the run holds if it
        is closed now.

        After :meth:`close` — where every reader in ``src/`` takes it —
        this is a stored counter.  Mid-run the pending block has no size
        until it is pickled, so it is pickled to be measured, and left
        pending: a read never seals a block, which could end it inside
        a key.
        """
        size = self._framer.payload_bytes
        if self._block:
            size += _FRAME_PREFIX.size + len(
                pickle.dumps(self._block, protocol=pickle.HIGHEST_PROTOCOL)
            )
        return size

    def close(self) -> None:
        """Flush, write the real header, and close the file."""
        if self._fh is None:
            return
        self._seal_block()
        if self._throttle is not None:
            self._throttle.acquire(self._framer.payload_bytes)
        self._framer.flush()
        header = _HEADER.pack(
            MAGIC, VERSION, 0,
            self._framer.records, self._framer.payload_bytes,
            self._framer.crc32,
        )
        self._fh.seek(0)
        self._fh.write(header)
        self._fh.close()
        self._fh = None

    def __enter__(self) -> "RunWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class RunReader:
    """Validated streaming reader over one run file.

    Construction parses and checks the header (magic, version) and
    rejects files whose physical size disagrees with the recorded
    payload length — the truncation case.  Iteration yields the
    ``(key, value)`` records in on-disk (key-sorted) order;
    :meth:`blocks` yields them a stored block at a time.  Either way the
    payload CRC and the block counts are checked before the last block
    is handed out, and a block that starts with the key the block before
    it ended on is refused, raising :class:`~repro.errors.SpillError`.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        try:
            size = self.path.stat().st_size
            with open(self.path, "rb") as fh:
                raw = fh.read(HEADER_BYTES)
        except OSError as exc:
            raise SpillError(f"cannot open run file {self.path}: {exc}") from exc
        if len(raw) < HEADER_BYTES:
            raise SpillError(f"run file {self.path} too short for a header")
        magic, version, _reserved, records, payload_len, crc = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise SpillError(f"{self.path} is not a spill run file")
        if version != VERSION:
            raise SpillError(
                f"{self.path}: unsupported run format version {version}"
            )
        if size != HEADER_BYTES + payload_len:
            raise SpillError(
                f"{self.path} is truncated or padded: header promises "
                f"{payload_len} payload bytes, file holds "
                f"{size - HEADER_BYTES}"
            )
        self.records = records
        self.payload_bytes = payload_len
        self.crc32 = crc

    def __iter__(self) -> Iterator[Pair]:
        """Stream the (key, value) records, CRC-checking along the way."""
        for block in self.blocks():
            yield from block

    def blocks(self) -> Iterator[list[Pair]]:
        """Stream the run a stored block at a time — the merge's unit.

        Each block is one ``pickle.loads`` of a frame sliced out of an
        ``mmap`` of the file, so no per-record call and no read-buffer
        copy chain.  A block whose pickle does not decode to a list of
        the promised length, or that continues the key the previous
        block ended on (the writer never splits a key; the merge relies
        on it), raises :class:`~repro.errors.SpillError`, like every
        other kind of damage.
        """
        ended_on: Any = _NO_KEY
        for count, frame in self._frames():
            try:
                block = pickle.loads(frame)
            except Exception as exc:
                raise SpillError(
                    f"{self.path}: undecodable spill block: {exc}"
                ) from exc
            finally:
                frame.release()
            if type(block) is not list or len(block) != count:
                raise SpillError(
                    f"{self.path}: spill block does not hold the "
                    f"{count} records its frame promises"
                )
            if block:
                try:
                    starts_on, ends_on = block[0][0], block[-1][0]
                except (TypeError, LookupError) as exc:
                    raise SpillError(
                        f"{self.path}: spill block does not hold "
                        "(key, value) records"
                    ) from exc
                if ended_on is not _NO_KEY and starts_on == ended_on:
                    raise SpillError(
                        f"{self.path}: a block starts inside the key "
                        "the block before it ended on"
                    )
                ended_on = ends_on
            yield block

    def _frames(self) -> Iterator[tuple[int, memoryview]]:
        """Walk the payload's frames: ``(record count, pickle bytes)``.

        The one decoder of the framing.  The payload is a ``memoryview``
        over an ``mmap`` of the file — over the file's bytes where it
        cannot be mapped (exotic filesystems).  Every frame must lie
        inside the payload; the CRC is folded frame by frame, and it and
        the sum of the counts are checked against the header *before*
        the last frame is yielded, so a consumer never acts on a run
        that fails either.
        """
        try:
            fh = open(self.path, "rb")
        except OSError as exc:
            raise SpillError(f"cannot open run file {self.path}: {exc}") from exc
        with fh:
            try:
                backing: Any = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            except (ValueError, OSError):
                backing = fh.read()
        view = memoryview(backing)
        try:
            crc = 0
            records = 0
            offset = HEADER_BYTES
            end = len(view)
            while offset < end:
                body = offset + _FRAME_PREFIX.size
                stop = end + 1  # a prefix that does not fit: no frame does
                if body <= end:
                    length, count = _FRAME_PREFIX.unpack_from(view, offset)
                    stop = body + length
                if stop > end:
                    raise SpillError(
                        f"{self.path}: frame at byte {offset} runs past "
                        "the payload"
                    )
                crc = zlib.crc32(view[offset:stop], crc)
                records += count
                if stop == end:
                    self._check_totals(crc, records)
                yield count, view[body:stop]
                offset = stop
            if offset == HEADER_BYTES:  # no frame: an empty run
                self._check_totals(crc, records)
        finally:
            view.release()
            if not isinstance(backing, bytes):
                backing.close()

    def _check_totals(self, crc: int, records: int) -> None:
        if crc != self.crc32:
            raise SpillError(
                f"{self.path}: payload checksum mismatch "
                f"(header {self.crc32:#010x}, computed {crc:#010x})"
            )
        if records != self.records:
            raise SpillError(
                f"{self.path}: blocks hold {records} records, header "
                f"promises {self.records}"
            )

    def verify(self) -> bool:
        """Re-scan the payload against the header, decoding nothing.

        Walks the frames — CRC, frame bounds, record counts against the
        header — without unpickling a block: the verify-after-spill
        check the recovery policy runs before a run is allowed into the
        merge inventory, and the adoption gate
        :func:`repro.shard.exchange.fetch_run` runs on every exchanged
        copy.  False means the run must not be merged.
        """
        try:
            for _count, frame in self._frames():
                frame.release()
        except SpillError:
            return False
        return True

    def __len__(self) -> int:
        return self.records
