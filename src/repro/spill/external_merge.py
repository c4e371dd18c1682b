"""External p-way merge: stream spill runs + the resident container.

The in-memory p-way merge (:mod:`repro.sortlib.pway`) is what SupMR
uses when everything fits in RAM; this is its out-of-core counterpart.
Each pass streams at most ``fan_in`` key-sorted sources through
:func:`merge_sorted_blocks`; when more sources exist than the fan-in
allows, the oldest ``fan_in`` runs are merged into a new intermediate
run on disk and the pass repeats — the classic external merge sort,
with memory bounded by ``fan_in`` blocks regardless of how much was
spilled.

The merge works a **block at a time**, not a group at a time.  Sources
are key-sorted and key-unique, so with one block loaded per source,
everything at or below ``bound = min(last key of each loaded block)``
is already in memory: each block is cut at ``bound`` by bisection, the
cuts are concatenated in source order and ``list.sort`` merges the
pre-sorted pieces in C (timsort finds the runs, and is stable).  No
heap, no per-group Python step.

Sources yield ``(key, values_tuple)`` groups sorted by the manager's
``sort_key``; the merged output concatenates values of equal keys in
source order (oldest spill first, resident data last), which preserves
emit order the same way the in-memory containers do.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain, islice
from typing import Any, Callable, Iterable, Iterator

from repro.spill.manager import Group, SpillManager, group_sorted_block
from repro.spill.runfile import BLOCK_GROUPS


def _blocks_of(source: Iterable[Group]) -> Iterator[list[Group]]:
    """``source`` as non-empty blocks: its stored ones when it has a
    ``blocks()`` (a :class:`~repro.spill.runfile.RunReader`), else
    slices of it."""
    stored = getattr(source, "blocks", None)
    if stored is not None:
        return filter(None, stored())
    it = iter(source)
    return iter(lambda: list(islice(it, BLOCK_GROUPS)), [])


def merge_sorted_blocks(
    sources: Iterable[Iterable[Group]],
    entry_key: Callable[[Group], Any],
) -> Iterator[list[Group]]:
    """Merge key-sorted, key-unique group sources into grouped blocks.

    Yields non-empty lists of groups, globally sorted by ``entry_key``
    (the sort key of a group's key; it must tell distinct keys apart),
    with equal keys across sources collapsed into one group whose values
    concatenate in source order.  Holds one block per source plus the
    batch being emitted; a :class:`~repro.spill.runfile.RunReader`
    source is read through its ``blocks()``, anything else is sliced
    into blocks as it is consumed.
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
        pieces: list[list[Group]] = []
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
            yield group_sorted_block(batch)


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
        self, sources: list[Iterable[Group]]
    ) -> Iterator[list[Group]]:
        """Merge all sources into one grouped, key-sorted stream of blocks.

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
        while len(work) > self.fan_in:
            # Consolidate the oldest fan_in sources into one on-disk run;
            # oldest-first keeps cross-run value order stable.
            batch, work = work[: self.fan_in], work[self.fan_in:]
            info = self.manager.write_merged(
                chain.from_iterable(merge_sorted_blocks(batch, key))
            )
            work.insert(0, self.manager.open_run(info))
            self.passes += 1
        self.manager.record_merge(self.passes)
        return merge_sorted_blocks(work, key)

    def merge(self, sources: list[Iterable[Group]]) -> Iterator[Group]:
        """:meth:`merge_blocks`, flattened to one group at a time."""
        return chain.from_iterable(self.merge_blocks(sources))


def merge_spilled(
    manager: SpillManager,
    resident: Iterable[Group],
    fan_in: int | None = None,
) -> Iterator[Group]:
    """Merge every run the manager holds plus the resident stream."""
    merger = ExternalPwayMerge(manager, fan_in=fan_in)
    sources: list[Iterable[Group]] = [
        manager.open_run(info) for info in manager.runs
    ]
    sources.append(resident)
    return merger.merge(sources)
