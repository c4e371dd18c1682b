"""Heap-based k-way merge of sorted runs.

One output pass over all input items with an O(log k) tournament per item.
It accepts **lazy iterators**, not just materialized lists, so it can
stream sources it never holds whole, and it is the reference the sort-
based merges (:mod:`repro.sortlib.pway`'s range merge, the block merge
of :mod:`repro.spill.external_merge`) are tested against item for item.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, Iterator, Sequence

KeyFn = Callable[[Any], Any]


def _identity(x: Any) -> Any:
    return x


def kway_merge(
    runs: Sequence[Iterable[Any]], key: KeyFn | None = None
) -> list[Any]:
    """Merge k sorted runs into one sorted list in a single pass.

    Runs may be any iterables (lists, generators, file-backed readers);
    each is consumed exactly once.  Stable across runs: ties are emitted
    in run order (run 0 first), which matches the guarantee of repeated
    stable 2-way merging and lets tests compare the two algorithms
    item-for-item.
    """
    return list(iter_kway_merge(runs, key))


def iter_kway_merge(
    runs: Sequence[Iterable[Any]], key: KeyFn | None = None
) -> Iterator[Any]:
    """Streaming form of :func:`kway_merge`: O(k) live items in memory.

    Only one item per run is buffered, so merging k lazily-read runs
    (e.g. spill run files) never materializes them.

    With ``key=None`` (natural item order) the merge delegates straight
    to :func:`heapq.merge`, whose tight loop skips the per-item tuple
    decoration entirely — ties still resolve in run order, as
    ``heapq.merge`` is stable across its input iterables.  With a key
    function, entries are decorated **once** per item as ``(sort_key,
    run_index, item, iterator)`` — the key is never recomputed during
    heap sifting, and the unique run index breaks every tie before
    ``item`` would be compared, so items themselves never need to be
    orderable.
    """
    if key is None:
        yield from heapq.merge(*runs)
        return
    heap: list[tuple[Any, int, Any, Iterator[Any]]] = []
    for run_idx, run in enumerate(runs):
        it = iter(run)
        for first in it:
            heap.append((key(first), run_idx, first, it))
            break
    heapq.heapify(heap)
    while heap:
        _k, run_idx, item, it = heap[0]
        yield item
        for nxt in it:
            heapq.heapreplace(heap, (key(nxt), run_idx, nxt, it))
            break
        else:
            heapq.heappop(heap)


def merged_length(runs: Iterable[Sequence[Any]]) -> int:
    """Total output length a merge of ``runs`` will produce.

    Requires sized runs (``len()``); lazy iterators have no cheap
    length, so streaming callers count as they consume instead.
    """
    return sum(len(r) for r in runs)
