"""External p-way merge: stream spill runs + the resident container.

The in-memory p-way merge (:mod:`repro.sortlib.pway`) is what SupMR
uses when everything fits in RAM; this is its out-of-core counterpart.
Each pass streams at most ``fan_in`` key-sorted sources through
:func:`merge_sorted_blocks`; when more sources exist than the fan-in
allows, the oldest runs are merged into a new intermediate run on disk
and the pass repeats — the classic external merge sort, with memory
bounded by ``fan_in`` blocks regardless of how much was spilled.

The merge works a **block at a time** on flat ``(key, value)``
**records**; it never builds a group.  Sources are sorted by the
manager's ``sort_key`` with equal keys adjacent, and no block ends
inside a key (the run writer's invariant; in-memory sources are cut the
same way).  So with one block loaded per source, every record of every
key at or below ``bound = min(last key of each loaded block)`` is
already in memory: each block is cut at ``bound`` by bisection, the
cuts are concatenated in source order and ``list.sort`` merges the
pre-sorted pieces in C (timsort finds the runs, and is stable).  No
heap, no per-record Python step — and every emitted block again holds
whole keys, their values in source order (oldest spill first, resident
data last), which preserves emit order the same way the in-memory
containers do.

Groups exist only at the edge: :meth:`ExternalPwayMerge.merge` and
:func:`merge_spilled` pass the merged blocks through
:func:`~repro.spill.manager.group_sorted_block` for callers that were
promised ``(key, values)``.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain, islice
from typing import Any, Callable, Iterable, Iterator

from repro.spill.manager import Group, SpillManager, sorted_record_partition
from repro.spill.runfile import BLOCK_RECORDS, Pair, finish_key


def _blocks_of(source: Iterable[Pair]) -> Iterator[list[Pair]]:
    """``source`` as non-empty blocks of whole keys: its stored ones
    when it has a ``blocks()`` (a :class:`~repro.spill.runfile.RunReader`),
    else slices of it, each extended to the next key change."""
    stored = getattr(source, "blocks", None)
    if stored is not None:
        yield from filter(None, stored())
        return
    records = iter(source)
    block = list(islice(records, BLOCK_RECORDS))
    while block:
        head = finish_key(block, records)
        yield block
        if head is None:
            return
        block = [head, *islice(records, BLOCK_RECORDS - 1)]


def merge_sorted_blocks(
    sources: Iterable[Iterable[Pair]],
    entry_key: Callable[[Pair], Any],
) -> Iterator[list[Pair]]:
    """Merge key-sorted record sources into key-sorted blocks of records.

    Yields non-empty lists of ``(key, value)`` records, globally sorted
    by ``entry_key`` (the sort key of a record's key; it must tell
    distinct keys apart), the records of equal keys adjacent and in
    source order, and no block ending inside a key.  Holds one block per
    source plus the batch being emitted; a
    :class:`~repro.spill.runfile.RunReader` source is read through its
    ``blocks()``, anything else is sliced into blocks as it is consumed.
    """
    # One cursor per live source, in source order: [feed, block, start].
    cursors: list[list[Any]] = []
    for source in sources:
        feed = _blocks_of(source)
        block = next(feed, None)
        if block is not None:
            cursors.append([feed, block, 0])
    while cursors:
        bound = min(entry_key(cursor[1][-1]) for cursor in cursors)
        pieces: list[list[Pair]] = []
        live: list[list[Any]] = []
        for cursor in cursors:
            feed, block, start = cursor
            cut = bisect_right(block, bound, start, key=entry_key)
            if cut > start:
                pieces.append(block[start:cut])
            if cut == len(block):
                block = next(feed, None)
                if block is None:
                    continue  # source exhausted
                cursor[1], cut = block, 0
            cursor[2] = cut
            live.append(cursor)
        cursors = live
        # The source whose block ends at ``bound`` always contributes.
        if len(pieces) == 1:
            yield pieces[0]
        else:
            batch = list(chain.from_iterable(pieces))
            batch.sort(key=entry_key)
            yield batch


class ExternalPwayMerge:
    """Bounded-memory p-way merge over spill runs and resident data.

    ``fan_in`` defaults to the manager's; the number of passes actually
    performed is reported back through
    :meth:`SpillManager.record_merge` and the stats counters.
    """

    def __init__(self, manager: SpillManager, fan_in: int | None = None) -> None:
        self.manager = manager
        self.fan_in = max(2, fan_in or manager.merge_fan_in)
        self.passes = 0

    def merge_blocks(
        self, sources: list[Iterable[Pair]]
    ) -> Iterator[list[Pair]]:
        """Merge all sources into one key-sorted stream of record blocks.

        Consolidation passes write intermediate runs via the manager;
        the final pass streams straight to the caller.  ``self.passes``
        counts every pass including the final one.
        """
        if not sources:
            self.passes = 0
            self.manager.record_merge(0)
            return iter(())
        key = self.manager.entry_key
        work = list(sources)
        self.passes = 1
        # Consolidate the oldest sources into one on-disk run until
        # fan_in are left; oldest-first keeps cross-run value order
        # stable.  The first batch takes only what leaves whole batches
        # of fan_in behind it, so no pass rewrites a run it need not.
        take = (len(work) - 1) % (self.fan_in - 1) + 1
        if take == 1:
            take = self.fan_in
        while len(work) > self.fan_in:
            batch, work = work[:take], work[take:]
            info = self.manager.write_merged(
                chain.from_iterable(merge_sorted_blocks(batch, key))
            )
            work.insert(0, self.manager.open_run(info))
            self.passes += 1
            take = self.fan_in
        self.manager.record_merge(self.passes)
        return merge_sorted_blocks(work, key)

    def merge(self, sources: list[Iterable[Pair]]) -> Iterator[Group]:
        """:meth:`merge_blocks`, grouped: one ``(key, values_tuple)`` at
        a time."""
        return iter(sorted_record_partition(self.merge_blocks(sources)))


def merge_spilled(
    manager: SpillManager,
    resident: Iterable[Pair],
    fan_in: int | None = None,
) -> Iterator[Group]:
    """Merge every run the manager holds plus the resident stream of
    key-sorted ``(key, value)`` records, into ``(key, values)`` groups."""
    merger = ExternalPwayMerge(manager, fan_in=fan_in)
    sources: list[Iterable[Pair]] = [
        manager.open_run(info) for info in manager.runs
    ]
    sources.append(resident)
    return merger.merge(sources)
