"""String match — count occurrences of a fixed set of needle strings.

The Phoenix suite's string_match: scan the input for each needle and
count hits.  Map-heavy with a tiny intermediate set (one key per needle),
so its pipeline benefit resembles word count's while its merge phase is
effectively free — a useful point on the Conclusion 1 spectrum.
"""

from __future__ import annotations

from operator import methodcaller
from pathlib import Path
from typing import Hashable, Iterable, Sequence

from repro.containers import HashContainer, SumCombiner
from repro.core.job import JobSpec, MapContext
from repro.errors import ConfigError
from repro.io.records import WholeLineCodec

_CODEC = WholeLineCodec()


def count_occurrences(haystack: bytes, needle: bytes) -> int:
    """Non-overlapping occurrence count (bytes.count semantics)."""
    return haystack.count(needle)


def make_string_match_job(
    inputs: Sequence[str | Path],
    needles: Sequence[bytes],
    name: str = "string-match",
) -> JobSpec:
    """Count occurrences of each needle across the input."""
    if not needles:
        raise ConfigError("string match needs at least one needle")
    needles = tuple(needles)

    def map_fn(ctx: MapContext) -> None:
        for window in _CODEC.iter_windows(ctx.data):
            lines = _CODEC.split_records(window)
            totals: dict[bytes, int] = {}
            emits = 0
            for needle in needles:
                # one emit per (line, needle) with a hit, as per line
                hits = [h for h in map(methodcaller("count", needle), lines) if h]
                if hits:
                    totals[needle] = sum(hits)
                    emits += len(hits)
            ctx.emit_combined(totals, emits)

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


def reference_match(
    inputs: Sequence[str | Path], needles: Sequence[bytes]
) -> dict[bytes, int]:
    """Naive needle counting for verification."""
    counts: dict[bytes, int] = {}
    for path in inputs:
        for line in _CODEC.iter_lines(Path(path).read_bytes()):
            for needle in needles:
                hits = count_occurrences(line, needle)
                if hits:
                    counts[needle] = counts.get(needle, 0) + hits
    return counts
