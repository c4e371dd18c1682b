"""Integrity-verified run exchange between shards.

The exchange unit is the existing checksummed spill-run file
(:mod:`repro.spill.runfile`) — already a portable, self-validating
on-disk format.  After its map phase every shard writes one run per
reducer partition into its **outbox** (the container's flat
``(key, value)`` records bucketed by the same process-stable key hash
on every shard, sorted stably by key within the run);
during the reduce phase the owning shard **fetches** each source run
into its own inbox — a byte copy standing in for the network transfer —
and CRC-verifies the copy before adoption.  A verification failure
deletes the copy and refetches from the pristine outbox (bounded by the
recovery policy's retry budget) rather than silently merging garbage.
:func:`fetch_run` is the one verify-then-refetch loop: the cross-host
exchange (:func:`repro.net.exchange.fetch_run_remote`) runs it with a
wire transfer in place of the copy.

Reduction streams the fetched runs through the same block-wise record
merge the spill subsystem uses
(:func:`repro.spill.external_merge.merge_sorted_blocks`) and groups the
merged blocks once, as a reducer that wants groups takes them
(:func:`repro.spill.manager.group_sorted_block`; the identity reducer
takes the records): equal keys across shards are folded into one
``reduce_fn`` call with their values in shard-id order, which — because
shards map *contiguous* chunk blocks — is exactly the global chunk order
an unsharded run would have produced.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Hashable, Iterable, Sequence

from repro.containers.base import Container, RecordPartition
from repro.core.job import JobSpec, identity_reduce
from repro.errors import RetryExhausted, SpillError
from repro.faults.log import ACTION_REFETCHED
from repro.faults.plan import SITE_SHARD_EXCHANGE_CORRUPT
from repro.spill.external_merge import merge_sorted_blocks
from repro.spill.manager import (
    _flip_byte,
    entry_sort_key,
    hash_buckets,
    sorted_record_partition,
)
from repro.spill.runfile import HEADER_BYTES, RunReader, RunWriter

Pair = tuple[Hashable, Any]
SortKeyFn = Callable[[Hashable], Any]
#: ``(site, action, detail, scope, attempt)`` rows a worker ships back
#: to the coordinator for replay into the job's fault log.
EventRow = tuple[str, str, str, str, int]


@dataclass(frozen=True)
class ExchangeRun:
    """One partition run a shard published to its outbox."""

    partition: int
    name: str
    #: ``(key, value)`` records in the run — one per value.
    records: int
    payload_bytes: int


def run_name(partition: int) -> str:
    """Canonical outbox file name for one partition's run."""
    return f"part-{partition:05d}.spl"


def write_partition_runs(
    container: Container,
    num_partitions: int,
    directory: str | Path,
    sort_key: SortKeyFn | None = None,
) -> list[ExchangeRun]:
    """Seal ``container`` and publish one sorted run per partition.

    Keys are bucketed by ``stable_hash(key) % num_partitions`` — *not*
    by the container's own partitioning — so partition ``p`` holds the
    same key set on every shard regardless of container type (the array
    container buckets by segment index, which would scatter a key across
    partitions differently per shard count).  Records are drawn from
    ``pairs()`` — ``partitions(1)`` order — so equal keys keep pure emit
    (segment) order; round-robin segment interleaving would make the
    value order depend on the shard-local segment count.  The bucket
    sort is stable, so that order survives into the run; empty
    partitions still get a (zero-record) run, keeping the fetch protocol
    uniform.
    """
    entry_key = entry_sort_key(sort_key)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    container.seal()
    manifest: list[ExchangeRun] = []
    for p, bucket in enumerate(hash_buckets(container.pairs(), num_partitions)):
        bucket.sort(key=entry_key)
        path = directory / run_name(p)
        with RunWriter(path) as writer:
            writer.write_records(bucket)
        manifest.append(ExchangeRun(
            partition=p, name=path.name, records=writer.records,
            payload_bytes=writer.payload_bytes,
        ))
    return manifest


def fetch_run(
    src: "str | Path",
    dst: Path,
    corrupt_attempts: Sequence[int] = (),
    max_retries: int = 3,
    events: "list[EventRow] | None" = None,
    scope: str = "",
    transfer: "Callable[[int], Exception | None] | None" = None,
    site: str = SITE_SHARD_EXCHANGE_CORRUPT,
) -> tuple[RunReader, int]:
    """Copy one exchange run and CRC-verify the copy before adoption.

    ``corrupt_attempts`` are the fetch attempts the coordinator decided
    the corruption ``site`` damages in transit (a byte of the *copy* is
    flipped; the outbox original stays pristine, which is why a refetch
    can succeed).  A copy that fails validation or the CRC re-scan is
    deleted and refetched, bounded by ``max_retries``; exhaustion raises
    :class:`~repro.errors.RetryExhausted`.

    ``transfer(attempt)`` is what puts the bytes at ``dst`` — a file
    copy unless the caller brings its own.  It returns None, or the
    error that cost the attempt (having logged it itself); anything it
    raises ends the fetch.

    Returns the validated reader over the adopted copy and how many
    refetches it took.
    """
    if transfer is None:
        def transfer(attempt: int) -> None:
            shutil.copyfile(src, dst)

    last: Exception | None = None
    for attempt in range(max_retries + 1):
        last = transfer(attempt)
        if last is None:
            if attempt in corrupt_attempts:
                size = dst.stat().st_size
                # Flip a payload byte when there is payload, else a
                # header byte — either way validation must catch it.
                offset = (
                    HEADER_BYTES + (size - HEADER_BYTES) // 2
                    if size > HEADER_BYTES else max(0, size - 1)
                )
                _flip_byte(dst, offset)
            try:
                reader = RunReader(dst)
                if not reader.verify():
                    raise SpillError(
                        f"{dst}: exchanged run failed its checksum"
                    )
                return reader, attempt
            except SpillError as exc:
                last = exc
                if events is not None and attempt < max_retries:
                    events.append((
                        site, ACTION_REFETCHED,
                        f"attempt {attempt + 1} rejected ({exc}); refetching",
                        scope, attempt,
                    ))
        dst.unlink(missing_ok=True)
    raise RetryExhausted(
        f"{site}: {max_retries + 1} fetch attempt(s) of {Path(src).name} "
        f"failed; last error: {last}",
        site=site, attempts=max_retries + 1,
    ) from last


def merged_partition_groups(
    readers: Sequence[RunReader],
    sort_key: SortKeyFn | None = None,
) -> RecordPartition:
    """Merge the shards' runs for one partition block-wise: the merged
    records, grouped as they are consumed by whoever iterates them.

    ``readers`` must be in shard-id order; the merge is stable, so equal
    keys gather their values in that order — the global chunk order
    under contiguous block assignment.
    """
    return sorted_record_partition(
        merge_sorted_blocks(readers, entry_sort_key(sort_key))
    )


def reduce_partition(
    job: JobSpec, groups: Iterable[tuple[Hashable, Sequence[Any]]]
) -> list[Pair]:
    """The reducer-task body: the job's reducer over one partition's
    ``(key, values)`` groups, sorted when the job's output is.

    Every reduce in the repo runs this — the one-shot runtimes over a
    container partition, a shard worker over its merged exchange runs.
    The identity reducer's output is its input's records: a partition
    that is held as records
    (:class:`~repro.containers.base.RecordPartition`) hands them over
    with no group built, any other is flattened in one comprehension
    rather than one generator per key.
    """
    if job.reduce_fn is identity_reduce:
        if isinstance(groups, RecordPartition):
            out = groups.records()
        else:
            out = [(key, value) for key, values in groups for value in values]
    else:
        out = []
        for key, values in groups:
            out.extend(job.reduce_fn(key, values))
    if job.sorted_output:
        out.sort(key=job.output_key)
    return out


def collect_worker_events(log: Any, events: Iterable[EventRow]) -> None:
    """Replay worker-side event rows into the coordinator's fault log."""
    for site, action, detail, scope, attempt in events:
        log.record(site, action, detail, scope=scope, attempt=attempt)
