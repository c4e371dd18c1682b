"""Word count — the paper's ingest-bottleneck benchmark (155 GB).

Map parses its split into words and counts them; the hash container
combines (SumCombiner), so reduce only folds partial sums.  The "more
complicated map phase, namely checking a container before inserting a
key" (section VI.B) is the emit path — so map pays it once per distinct
word of a window, not once per word: each window is split and counted
in C, and the counts go to the container as one delta.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import Hashable, Iterable, Sequence

from repro.containers import HashContainer, SumCombiner
from repro.core.job import JobSpec, MapContext
from repro.io.records import TextCodec

_CODEC = TextCodec()


def wordcount_map(ctx: MapContext) -> None:
    """Emit (word, 1) for every word in the split, a window at a time."""
    for window in _CODEC.iter_windows(ctx.data):
        words = window.split()
        ctx.emit_combined(Counter(words), len(words))


def wordcount_reduce(
    key: Hashable, values: Sequence[int]
) -> Iterable[tuple[Hashable, int]]:
    """Fold partial sums (the combiner already did most of the work)."""
    yield (key, sum(values))


def make_wordcount_job(
    inputs: Sequence[str | Path], name: str = "wordcount"
) -> JobSpec:
    """A word count job over one or many text files."""
    return JobSpec(
        name=name,
        inputs=tuple(Path(p) for p in inputs),
        map_fn=wordcount_map,
        reduce_fn=wordcount_reduce,
        container_factory=lambda: HashContainer(SumCombiner()),
        codec=_CODEC,
    )


def reference_wordcount(inputs: Sequence[str | Path]) -> dict[bytes, int]:
    """Naive single-pass counts for verification."""
    counts: Counter[bytes] = Counter()
    for path in inputs:
        data = Path(path).read_bytes()
        counts.update(_CODEC.iter_words(data))
    return dict(counts)
