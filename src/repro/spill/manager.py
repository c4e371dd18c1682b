"""Spill orchestration: budget, run directory, combine-on-spill.

:class:`SpillManager` owns everything the spillable container needs
that is not container semantics: the :class:`MemoryAccountant`, the
spill directory, the run inventory, and the combine-on-spill policy.
Hadoop-style in-node combining (Lee et al.) happens here: when a drain
hands over *raw* emitted pairs (array-style containers that do not
combine on insert), the job's combiner — if any — folds each key's
values before the run hits disk, so spilled bytes shrink by the same
ratio in-memory combining would have bought.

Records drained from a combining container (e.g. the hash container) are
already per-key aggregates; re-folding those through an emit-level
combiner would double-count (``CountCombiner`` is the obvious casualty),
so the manager only applies the combiner when the drain is marked raw.
Anything else is written as the flat, key-sorted ``(key, value)``
records it is: a run never stores a group, and
:func:`group_sorted_block` builds them once, where a reducer is about
to be called.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass
from itertools import islice, repeat
from operator import eq, itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable, Iterator

from repro.containers.base import RecordPartition
from repro.containers.combiners import Combiner
from repro.errors import SpillError
from repro.faults.log import ACTION_RESPILLED
from repro.faults.plan import SITE_SPILL_CORRUPT
from repro.spill.accountant import MemoryAccountant
from repro.spill.runfile import HEADER_BYTES, Pair, RunReader, RunWriter
from repro.spill.stats import SpillStats
from repro.util.hashing import stable_hash_many

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector
    from repro.qos.throttle import TokenBucket

#: Streams merged per external-merge pass when the caller does not say.
DEFAULT_MERGE_FAN_IN = 8

Group = tuple[Hashable, tuple[Any, ...]]
SortKeyFn = Callable[[Hashable], Any]


@dataclass(frozen=True)
class RunInfo:
    """One spill run on disk."""

    index: int
    path: Path
    #: ``(key, value)`` records in the run — one per value.
    records: int
    payload_bytes: int


def _flip_byte(path: Path, offset: int) -> None:
    """Invert one byte of ``path`` in place (injected bit rot)."""
    with open(path, "r+b") as fh:
        fh.seek(offset)
        original = fh.read(1)
        fh.seek(offset)
        fh.write(bytes(((original[0] ^ 0xFF),)) if original else b"\xff")


_first = itemgetter(0)
_second = itemgetter(1)


def entry_sort_key(sort_key: SortKeyFn | None) -> Callable[[tuple], Any]:
    """``sort_key`` lifted from keys to ``(key, value)`` records.

    The identity ``sort_key`` (``None``) needs no Python wrapper: it is
    C ``itemgetter(0)``, which is what sorts and bisections of records
    then call per comparison.
    """
    if sort_key is None:
        return _first
    return lambda entry: sort_key(entry[0])


def hash_buckets(records: list[Pair], n: int) -> list[list[Pair]]:
    """``records`` split by ``stable_hash(key) % n``, order kept — the
    partition a key belongs to once it has left its container, the same
    on every shard and for every container type."""
    if n == 1:
        return [records]
    buckets: list[list[Pair]] = [[] for _ in range(n)]
    for record, h in zip(records, stable_hash_many(map(_first, records))):
        buckets[h % n].append(record)
    return buckets


def _key_column(block: list[Pair]) -> tuple[list[Hashable], int]:
    """A key-sorted block's keys, and how many equal their predecessor."""
    keys = list(map(_first, block))
    return keys, sum(map(eq, keys, islice(keys, 1, None)))


def distinct_sorted_keys(block: list[Pair]) -> int:
    """Distinct keys in one key-sorted block: one scan of the key
    column, no group built."""
    keys, repeats = _key_column(block)
    return len(keys) - repeats


def group_sorted_block(block: list[Pair]) -> tuple[Iterable[Group], int]:
    """The reduce-edge grouping: one key-sorted block of whole keys as
    ``(key, values)`` groups, and how many groups that is.

    Every path that promises groups — the spillable container's
    partitions, the shard exchange's merged partitions, ``merge_spilled``
    — reaches this through :func:`sorted_record_partition`, for a
    reducer that iterates its partition, and nothing upstream groups.
    When no two adjacent keys are equal (always, for sort; one scan of
    the key column says so) the groups are ``(key, (value,))`` zipped
    straight off the block as they are consumed; otherwise
    :func:`group_sorted_pairs` collapses the ties.
    """
    keys, repeats = _key_column(block)
    wrapped = zip(keys, zip(map(_second, block)))
    if repeats:
        return group_sorted_pairs(wrapped), len(keys) - repeats
    return wrapped, len(keys)


def _block_groups(block: list[Pair]) -> Iterable[Group]:
    return group_sorted_block(block)[0]


def sorted_record_partition(blocks: Iterable[list[Pair]]) -> RecordPartition:
    """Key-sorted blocks of whole keys — what the record merge yields —
    as one reducer partition: its records as they are, or
    :func:`group_sorted_block`'s groups when iterated."""
    return RecordPartition(blocks, _block_groups)


def group_sorted_pairs(
    pairs: Iterable[tuple[Hashable, Iterable[Any]]],
) -> Iterator[Group]:
    """Collapse adjacent equal-key entries of a key-sorted pair stream.

    Input entries carry *iterables* of values (a record's value zipped
    into a 1-tuple, or a ``partitions(1)`` entry's list); output groups
    concatenate them in arrival order.  The one place a key's values
    are gathered: :func:`group_sorted_block` calls it for a block in
    which some key repeats, combine-on-spill for a raw drain.
    """
    current_key: Hashable = None
    current_values: list[Any] = []
    have = False
    for key, values in pairs:
        if have and key == current_key:
            current_values.extend(values)
        else:
            if have:
                yield current_key, tuple(current_values)
            current_key = key
            current_values = list(values)
            have = True
    if have:
        yield current_key, tuple(current_values)


class SpillManager:
    """Owns the budget, the spill directory, and the run inventory.

    ``combiner`` is the emit-level combiner applied to raw drains
    (combine-on-spill); ``sort_key`` orders keys within and across runs
    (default: the key itself, which must then be totally orderable —
    true for the bytes/str/int keys every bundled app uses).
    """

    def __init__(
        self,
        budget_bytes: int,
        spill_dir: str | Path | None = None,
        combiner: Combiner | None = None,
        sort_key: SortKeyFn | None = None,
        merge_fan_in: int = DEFAULT_MERGE_FAN_IN,
        injector: "FaultInjector | None" = None,
        throttle: "TokenBucket | None" = None,
    ) -> None:
        if merge_fan_in < 2:
            raise SpillError("merge_fan_in must be >= 2")
        self.injector = injector
        self.throttle = throttle
        self.accountant = MemoryAccountant(budget_bytes)
        self._owns_dir = spill_dir is None
        self.spill_dir = Path(
            spill_dir
            if spill_dir is not None
            else tempfile.mkdtemp(prefix="repro-spill-")
        )
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        self.combiner = combiner
        #: ``sort_key`` as every sort and merge of this job's records
        #: applies it: to ``(key, value)`` entries.
        self.entry_key = entry_sort_key(sort_key)
        self.merge_fan_in = merge_fan_in
        self.runs: list[RunInfo] = []
        self._next_index = 0
        self._stats = SpillStats(
            budget_bytes=int(budget_bytes), merge_fan_in=merge_fan_in
        )

    # -- spilling ----------------------------------------------------------

    def spill_records(self, records: list[Pair], raw: bool) -> RunInfo:
        """Sort, optionally combine, and persist one run.

        ``records`` is a drained container — flat ``(key, value)``
        records in container order (:meth:`Container.pairs`), sorted
        here in place.  ``raw=True`` marks values as original emits
        (array-style drain), enabling combine-on-spill.
        """
        if not records:
            raise SpillError("refusing to spill an empty container")
        started = time.perf_counter()
        n_in = len(records)
        records.sort(key=self.entry_key)
        if raw and self.combiner is not None:
            records = self._combined(records)
        injector = self.injector
        if injector is not None and injector.armed(SITE_SPILL_CORRUPT):
            info = self._write_run_verified(records, injector)
        else:
            info = self._write_run(records)
        self._stats.runs += 1
        self._stats.spilled_bytes += info.payload_bytes
        self._stats.spilled_records += info.records
        self._stats.combine_pairs_in += n_in
        self._stats.combine_pairs_out += info.records
        self._stats.spill_write_s += time.perf_counter() - started
        return info

    def spill_pairs(
        self, pairs: Iterable[tuple[Hashable, Iterable[Any]]], raw: bool
    ) -> RunInfo:
        """:meth:`spill_records` for ``partitions(1)``-shaped
        ``(key, values)`` entries: one record per value."""
        return self.spill_records(
            [(key, value) for key, values in pairs for value in values], raw
        )

    def _combined(self, records: list[Pair]) -> list[Pair]:
        """Combine-on-spill: fold each key's raw values through the
        job's combiner; the records that come out carry its state."""
        combiner = self.combiner
        out: list[Pair] = []
        for key, values in group_sorted_pairs(
            zip(map(_first, records), zip(map(_second, records)))
        ):
            state = combiner.initial(values[0])
            for value in values[1:]:
                state = combiner.update(state, value)
            out.extend(zip(repeat(key), combiner.finish(state)))
        return out

    def _write_run(self, records: Iterable[Pair]) -> RunInfo:
        index = self._next_index
        self._next_index += 1
        path = self.spill_dir / f"run-{index:05d}.spl"
        with RunWriter(path, throttle=self.throttle) as writer:
            writer.write_records(records)
        info = RunInfo(
            index=index, path=path, records=writer.records,
            payload_bytes=writer.payload_bytes,
        )
        self.runs.append(info)
        return info

    def _write_run_verified(
        self, records: list[Pair], injector: "FaultInjector"
    ) -> RunInfo:
        """Write one run under the ``spill.corrupt`` site with recovery.

        The run index (and so the on-disk path) is reserved once; each
        attempt rewrites the same file, optionally gets a payload byte
        flipped by the injector, and is then CRC-verified against its own
        header.  A verification failure raises
        :class:`~repro.errors.SpillError` into the bounded retry loop,
        which re-spills the materialized records — the
        checksum-verify-then-re-spill answer.
        """
        index = self._next_index
        self._next_index += 1
        path = self.spill_dir / f"run-{index:05d}.spl"

        def attempt_fn(attempt: int) -> RunInfo:
            with RunWriter(path, throttle=self.throttle) as writer:
                writer.write_records(records)
            count, payload = writer.records, writer.payload_bytes
            decision = injector.check(
                SITE_SPILL_CORRUPT, scope=(index,), attempt=attempt
            )
            if decision is not None:
                _flip_byte(path, HEADER_BYTES + payload // 2)
            if not RunReader(path).verify():
                raise SpillError(
                    f"{path}: post-spill checksum verification failed"
                )
            if attempt > 0:
                injector.log.record(
                    SITE_SPILL_CORRUPT, ACTION_RESPILLED,
                    f"run {index} rewritten cleanly on attempt {attempt + 1}",
                    scope=f"run-{index}", attempt=attempt,
                )
            return RunInfo(
                index=index, path=path, records=count,
                payload_bytes=payload,
            )

        info = injector.retrying(
            SITE_SPILL_CORRUPT, attempt_fn,
            scope=(index,), retryable=(SpillError,),
        )
        self.runs.append(info)
        return info

    def write_merged(self, records: Iterable[Pair]) -> RunInfo:
        """Persist an intermediate external-merge pass — a key-sorted
        stream of records — as a new run."""
        info = self._write_run(records)
        self._stats.merge_rewritten_bytes += info.payload_bytes
        return info

    # -- reading -----------------------------------------------------------

    def open_run(self, info: RunInfo) -> RunReader:
        """A validated streaming reader over one run."""
        return RunReader(info.path)

    # -- resume ------------------------------------------------------------

    def adopt_runs(self, infos: "Iterable[RunInfo]") -> None:
        """Take ownership of runs a previous (crashed) job sealed.

        Each run is re-verified against its header checksum before
        adoption — a run that rotted on disk between the crash and the
        resume raises :class:`~repro.errors.SpillError` rather than
        silently merging garbage.  Adopted runs count into the stats so
        a resumed job reports its true spill totals, and new spills are
        numbered after the adopted ones.
        """
        for info in infos:
            if not info.path.exists():
                raise SpillError(f"cannot adopt missing spill run {info.path}")
            if not RunReader(info.path).verify():
                raise SpillError(
                    f"spill run {info.path} failed its checksum on resume"
                )
            self.runs.append(info)
            self._next_index = max(self._next_index, info.index + 1)
            self._stats.runs += 1
            self._stats.spilled_bytes += info.payload_bytes
            self._stats.spilled_records += info.records

    # -- reporting / teardown ----------------------------------------------

    def record_merge(self, passes: int) -> None:
        """Note how many external-merge passes the job needed."""
        self._stats.merge_passes = passes

    def stats(self) -> SpillStats:
        """The job's spill counters (peak memory filled in live)."""
        self._stats.peak_accounted_bytes = self.accountant.peak
        return self._stats

    def cleanup(self) -> None:
        """Delete run files (and the directory, when the manager made it)."""
        if self._owns_dir:
            shutil.rmtree(self.spill_dir, ignore_errors=True)
        else:
            for info in self.runs:
                info.path.unlink(missing_ok=True)
        self.runs.clear()
