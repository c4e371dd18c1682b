"""Multisequence selection: split k sorted runs at a global rank.

This is the enabling primitive of Salzberg-style p-way parallel merging:
to let p workers merge disjoint *output ranges* with no synchronization,
we must find, for a global rank r, per-run cut indices ``i_j`` such that

* ``sum(i_j) == r``, and
* every element left of a cut sorts <= every element right of any cut
  (ties broken by run index, matching k-way merge emission order).

The algorithm binary-searches on pivot values drawn from the runs: each
step picks the midpoint of the largest active range, ranks it globally
with bisection, and discards half of every active range.  Complexity is
O(k * log(max run length) * log(total)) comparisons — negligible next to
the merge itself.
"""

from __future__ import annotations

import bisect
from typing import Any, Callable, Sequence

KeyFn = Callable[[Any], Any]


def _identity(x: Any) -> Any:
    return x


def multiway_select(
    runs: Sequence[Sequence[Any]], rank: int, key: KeyFn = _identity
) -> list[int]:
    """Cut indices ``i_j`` (one per run) for global tie-broken ``rank``.

    ``rank`` counts elements in the left part; 0 cuts before everything,
    ``total`` after everything.  Ties at the cut value go to the left part
    from lower-index runs first (k-way merge order).
    """
    return _select(_key_columns(runs, key), rank)


def _key_columns(
    runs: Sequence[Sequence[Any]], key: KeyFn
) -> list[Sequence[Any]]:
    """Each run's sort keys — what the selection bisects on."""
    return [list(map(key, run)) for run in runs]


def _select(keys: Sequence[Sequence[Any]], rank: int) -> list[int]:
    """:func:`multiway_select` over precomputed key columns."""
    k = len(keys)
    total = sum(len(kj) for kj in keys)
    if not 0 <= rank <= total:
        raise ValueError(f"rank {rank} out of range [0, {total}]")
    lo = [0] * k
    hi = [len(kj) for kj in keys]

    while True:
        if sum(lo) == rank:
            return lo
        if sum(hi) == rank:
            return hi
        # Pick a pivot from the run with the widest active window.
        widest = max(range(k), key=lambda j: hi[j] - lo[j])
        if hi[widest] - lo[widest] == 0:
            raise AssertionError("selection failed to converge")  # pragma: no cover
        mid = (lo[widest] + hi[widest]) // 2
        pivot = keys[widest][mid]
        rank_lt = sum(bisect.bisect_left(kj, pivot) for kj in keys)
        rank_le = sum(bisect.bisect_right(kj, pivot) for kj in keys)
        if rank <= rank_lt:
            for j in range(k):
                hi[j] = min(hi[j], bisect.bisect_left(keys[j], pivot))
                lo[j] = min(lo[j], hi[j])
        elif rank >= rank_le:
            for j in range(k):
                lo[j] = max(lo[j], bisect.bisect_right(keys[j], pivot))
                hi[j] = max(hi[j], lo[j])
        else:
            # The cut lands inside the pivot's tie group: take all
            # elements < pivot, then fill the remainder with ties from
            # lower-index runs first (matches k-way emission order).
            cuts = [bisect.bisect_left(kj, pivot) for kj in keys]
            need = rank - rank_lt
            for j in range(k):
                ties = bisect.bisect_right(keys[j], pivot) - cuts[j]
                take = min(ties, need)
                cuts[j] += take
                need -= take
                if need == 0:
                    break
            return cuts


def multiway_partition(
    runs: Sequence[Sequence[Any]], parts: int, key: KeyFn = _identity
) -> list[list[int]]:
    """Cut points dividing k runs into ``parts`` balanced output ranges.

    Returns ``parts + 1`` cut vectors; range ``t`` of the output is the
    per-run slices ``runs[j][cuts[t][j]:cuts[t+1][j]]``.  Output ranges
    differ in size by at most one element.  The key column of each run
    is computed once and shared by all ``parts - 1`` selections.
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    total = sum(len(r) for r in runs)
    boundaries: list[list[int]] = [[0] * len(runs)]
    keys = _key_columns(runs, key) if parts > 1 else []
    for t in range(1, parts):
        boundaries.append(_select(keys, (t * total) // parts))
    boundaries.append([len(r) for r in runs])
    return boundaries
