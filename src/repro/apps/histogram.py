"""Histogram — bucket numeric samples (Phoenix's histogram, numeric form).

Input lines are ASCII numbers; map buckets each sample into one of
``n_buckets`` uniform bins over ``[lo, hi)`` and emits ``(bucket, 1)``.
A tiny intermediate set (like word count, but with integer keys), so it
stresses the combiner path with a different key type.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import Hashable, Iterable, Sequence

from repro.containers import HashContainer, SumCombiner
from repro.core.job import JobSpec, MapContext
from repro.errors import ConfigError
from repro.io.records import WholeLineCodec

_CODEC = WholeLineCodec()


def bucket_of(value: float, lo: float, hi: float, n_buckets: int) -> int:
    """Uniform bin index, clamping out-of-range samples to the edge bins."""
    if value < lo:
        return 0
    if value >= hi:
        return n_buckets - 1
    return int((value - lo) / (hi - lo) * n_buckets)


def make_histogram_job(
    inputs: Sequence[str | Path],
    lo: float,
    hi: float,
    n_buckets: int = 16,
    name: str = "histogram",
    container: str = "hash",
) -> JobSpec:
    """``container`` selects "hash" (default) or "fixed" — the
    fixed-width array container, histogram's natural Phoenix++ choice
    (dense small integer keys, no hashing or lookups)."""
    if n_buckets < 1:
        raise ConfigError("n_buckets must be >= 1")
    if not lo < hi:
        raise ConfigError("need lo < hi")
    if container not in ("hash", "fixed"):
        raise ConfigError(f"unknown container choice {container!r}")

    def map_fn(ctx: MapContext) -> None:
        for window in _CODEC.iter_windows(ctx.data):
            samples = list(filter(None, map(bytes.strip, _CODEC.split_records(window))))
            buckets = Counter(
                bucket_of(float(sample), lo, hi, n_buckets) for sample in samples
            )
            ctx.emit_combined(buckets, len(samples))

    def reduce_fn(
        key: Hashable, values: Sequence[int]
    ) -> Iterable[tuple[Hashable, int]]:
        yield (key, sum(values))

    if container == "fixed":
        from repro.containers.fixed_array import FixedArrayContainer

        factory = lambda: FixedArrayContainer(n_buckets)  # noqa: E731
    else:
        factory = lambda: HashContainer(SumCombiner())  # noqa: E731
    return JobSpec(
        name=name,
        inputs=tuple(Path(p) for p in inputs),
        map_fn=map_fn,
        reduce_fn=reduce_fn,
        container_factory=factory,
        codec=_CODEC,
    )


def reference_histogram(
    inputs: Sequence[str | Path], lo: float, hi: float, n_buckets: int = 16
) -> dict[int, int]:
    """Naive single-pass histogram for verification."""
    counts: dict[int, int] = {}
    for path in inputs:
        for line in _CODEC.iter_lines(Path(path).read_bytes()):
            stripped = line.strip()
            if stripped:
                b = bucket_of(float(stripped), lo, hi, n_buckets)
                counts[b] = counts.get(b, 0) + 1
    return counts
