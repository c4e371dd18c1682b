"""Parallel p-way merge (Salzberg): N sorted runs -> one array, one pass.

Workers get disjoint, balanced *output ranges* computed by multisequence
selection, so they proceed without synchronization and every key is
scanned exactly once — versus O(log N) scans for iterative pairwise
merging.  This is the merge `__gnu_parallel::sort` performs and the one
SupMR swaps in for the Phoenix++ merge phase.

The ``parallelism`` argument controls partitioning (p output ranges).  An
optional executor actually overlaps the range merges; under CPython's GIL
that buys little, so by default ranges are merged sequentially — the
algorithmic structure (and the simulated-time behaviour modelled in
:mod:`repro.simrt`) is what the paper's result rests on, as documented
in DESIGN.md.

Each range is merged by the block-merge kernel the spill and exchange
merges use (:func:`repro.spill.external_merge.merge_sorted_blocks`):
the range's slices are concatenated in run order and ``list.sort`` merges
them — timsort finds the pre-sorted slices as runs and is stable, so
ties stay in run order, exactly the heap merge's order without a Python
step per item.
"""

from __future__ import annotations

from concurrent.futures import Executor
from itertools import chain
from typing import Any, Callable, Sequence

from repro.sortlib.multiway_partition import multiway_partition

KeyFn = Callable[[Any], Any]


def _identity(x: Any) -> Any:
    return x


def pway_merge(
    runs: Sequence[Sequence[Any]],
    parallelism: int,
    key: KeyFn | None = None,
    executor: Executor | None = None,
) -> list[Any]:
    """Merge sorted ``runs`` with ``parallelism`` single-pass workers.

    Equivalent output to :func:`repro.sortlib.kway.kway_merge` (including
    tie order); raises ``ValueError`` for non-positive parallelism.
    ``key=None`` means natural item order.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    runs = [r for r in runs]
    total = sum(len(r) for r in runs)
    if total == 0:
        return []
    parallelism = min(parallelism, total)
    bounds = multiway_partition(runs, parallelism, key or _identity)

    def merge_range(t: int) -> list[Any]:
        piece = list(chain.from_iterable(
            run[lo:hi] for run, lo, hi in zip(runs, bounds[t], bounds[t + 1])
        ))
        piece.sort(key=key)
        return piece

    if executor is None:
        pieces = [merge_range(t) for t in range(parallelism)]
    else:
        pieces = list(executor.map(merge_range, range(parallelism)))

    out: list[Any] = []
    for piece in pieces:
        out.extend(piece)
    return out
