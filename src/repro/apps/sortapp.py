r"""Sort — the paper's merge-bottleneck benchmark (60 GB Terasort data).

Map parses ``\r\n``-terminated records into (key, payload) pairs, a
window at a time, and emits each batch into the **unlocked array
container** — sort has unique keys, so a hash container would pay a
pointless lookup per record (section V.B).
Reduce is the identity (the ``JobSpec`` default); the merge phase does
the actual ordering, which is why the merge algorithm choice (pairwise
rounds vs p-way) dominates this job's time.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path
from typing import Sequence

from repro.containers import ArrayContainer
from repro.core.job import JobSpec, MapContext
from repro.io.records import TeraRecordCodec

_CODEC = TeraRecordCodec()


def sort_map(ctx: MapContext, codec: TeraRecordCodec = _CODEC) -> None:
    """Emit (key, payload) per record, a window's batch at a time; no
    aggregation."""
    for window in codec.iter_windows(ctx.data):
        ctx.emit_many(codec.split_pairs(window))


def make_sort_job(
    inputs: Sequence[str | Path],
    name: str = "sort",
    codec: TeraRecordCodec | None = None,
) -> JobSpec:
    """A Terasort-style sort job over one big record file."""
    codec = codec or _CODEC
    return JobSpec(
        name=name,
        inputs=tuple(Path(p) for p in inputs),
        map_fn=partial(sort_map, codec=codec),
        container_factory=ArrayContainer,
        codec=codec,
    )


def reference_sort(
    inputs: Sequence[str | Path], codec: TeraRecordCodec | None = None
) -> list[tuple[bytes, bytes]]:
    """Naive in-memory sort for verification (stable by key)."""
    codec = codec or _CODEC
    pairs: list[tuple[bytes, bytes]] = []
    for path in inputs:
        pairs.extend(codec.iter_pairs(Path(path).read_bytes()))
    pairs.sort(key=lambda kv: kv[0])
    return pairs
