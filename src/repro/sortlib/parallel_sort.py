"""Parallel multiway mergesort — the ``__gnu_parallel::sort`` equivalent.

Structure (exactly what OpenMP's sort does, and what SupMR calls after
disabling the Phoenix++ runtime sort):

1. split the input into p nearly-equal blocks;
2. sort each block independently (these are the "many small lists sorted
   in parallel" at the start of the paper's merge-phase trace);
3. merge the p sorted blocks with a single p-way merge pass.

The result is stable for equal keys (block order is preserved by the tie
rules of the p-way merge).
"""

from __future__ import annotations

from concurrent.futures import Executor
from typing import Any, Callable, Sequence

from repro.sortlib.pway import pway_merge

KeyFn = Callable[[Any], Any]


def _identity(x: Any) -> Any:
    return x


def split_blocks(items: Sequence[Any], parts: int) -> list[list[Any]]:
    """Split ``items`` into ``parts`` contiguous, nearly equal blocks."""
    if parts < 1:
        raise ValueError("parts must be >= 1")
    n = len(items)
    blocks: list[list[Any]] = []
    start = 0
    for t in range(parts):
        end = ((t + 1) * n) // parts
        blocks.append(list(items[start:end]))
        start = end
    return blocks


def parallel_sort(
    items: Sequence[Any],
    parallelism: int,
    key: KeyFn | None = None,
    executor: Executor | None = None,
) -> list[Any]:
    """Sort ``items`` with p-block sort + single p-way merge.

    Matches ``sorted(items, key=key)`` (stable) for any input;
    ``key=None`` sorts by natural order and takes the no-key merge fast
    path.  An ``executor`` (a thread pool) overlaps both the block sorts
    and the range merges.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    if len(items) <= 1:
        return list(items)
    blocks = split_blocks(items, min(parallelism, len(items)))

    def sort_block(block: list[Any]) -> list[Any]:
        block.sort(key=key)
        return block

    if executor is None:
        runs = [sort_block(b) for b in blocks]
    else:
        runs = list(executor.map(sort_block, blocks))
    return pway_merge(runs, parallelism, key=key, executor=executor)
