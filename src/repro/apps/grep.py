"""Grep — emit lines matching a pattern, with match counts.

A map-dominated job with near-empty reduce/merge phases, useful for the
"benefit depends on phase complexity" ablation (Conclusion 1): grep
behaves like word count during ingest but produces far fewer pairs.
"""

from __future__ import annotations

import re
from collections import Counter
from pathlib import Path
from typing import Hashable, Iterable, Sequence

from repro.containers import HashContainer, SumCombiner
from repro.core.job import JobSpec, MapContext
from repro.io.records import WholeLineCodec

_CODEC = WholeLineCodec()


def make_grep_job(
    inputs: Sequence[str | Path],
    pattern: bytes,
    name: str = "grep",
) -> JobSpec:
    """Count occurrences of each matching line.

    ``pattern`` is a bytes regex; keys are the matching lines themselves.
    """
    compiled = re.compile(pattern)

    def map_fn(ctx: MapContext) -> None:
        for window in _CODEC.iter_windows(ctx.data):
            matched = list(filter(compiled.search, _CODEC.split_records(window)))
            ctx.emit_combined(Counter(matched), len(matched))

    def reduce_fn(
        key: Hashable, values: Sequence[int]
    ) -> Iterable[tuple[Hashable, int]]:
        yield (key, sum(values))

    return JobSpec(
        name=name,
        inputs=tuple(Path(p) for p in inputs),
        map_fn=map_fn,
        reduce_fn=reduce_fn,
        container_factory=lambda: HashContainer(SumCombiner()),
        codec=_CODEC,
    )


def reference_grep(
    inputs: Sequence[str | Path], pattern: bytes
) -> dict[bytes, int]:
    """Naive grep counts for verification."""
    compiled = re.compile(pattern)
    counts: Counter[bytes] = Counter()
    for path in inputs:
        for line in _CODEC.iter_lines(Path(path).read_bytes()):
            if compiled.search(line):
                counts[line] += 1
    return dict(counts)
