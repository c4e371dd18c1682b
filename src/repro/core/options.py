"""Runtime configuration.

The SupMR API "forces the user to specify the chunking strategy and chunk
size" (section III.A) because the runtime lacks the workload/hardware
knowledge to choose well — so both live here, validated eagerly, along
with the thread counts and merge algorithm selection.
"""

from __future__ import annotations

import enum
from dataclasses import Field, dataclass, field, fields, replace
from typing import Any, Callable, Sequence

from repro.errors import ConfigError
from repro.faults.plan import FaultPlan
from repro.faults.policy import RecoveryPolicy
from repro.net.peers import parse_peers
from repro.parallel.backends import ExecutorBackend, resolve_backend
from repro.util.units import parse_size


class ChunkStrategy(enum.Enum):
    """How the input becomes ingest chunks (section III.A.1)."""

    #: Original runtime behaviour: ingest the whole input up front.
    NONE = "none"
    #: Split one big file into byte-sized, record-aligned chunks.
    INTER_FILE = "inter-file"
    #: Coalesce N whole files per chunk.
    INTRA_FILE = "intra-file"
    #: Explicit byte-size schedule (the paper's future-work variable
    #: sizing; produced by the feedback tuner in :mod:`repro.tuning`).
    VARIABLE = "variable"
    #: Pack whole files to a byte budget, splitting oversized files —
    #: the paper's future-work hybrid inter/intra approach.
    HYBRID = "hybrid"


class MergeAlgorithm(enum.Enum):
    """Merge-phase algorithm (section IV)."""

    #: Phoenix++ default: iterative 2-way merge rounds.
    PAIRWISE = "pairwise"
    #: SupMR: single-pass parallel p-way merge (gnu_parallel::sort style).
    PWAY = "pway"


def _opt(
    default: Any,
    *,
    wire: "bool | Callable[[Any], Any]" = False,
    fingerprint: int | None = None,
) -> Any:
    """Declare one :class:`RuntimeOptions` field and how far it travels.

    ``wire`` marks a field that rides to a remote shard worker
    (:func:`repro.net.jobs.options_to_wire`): ``True`` for a value that
    is JSON as it stands, or the callable that rebuilds it from its JSON
    form.  ``fingerprint`` marks a field that shapes journaled state
    (:func:`repro.resilience.journal.job_fingerprint`); the number is
    its slot in the fingerprinted tuple and is frozen, because a journal
    written by an earlier build must still match.  Every field goes
    through here, so adding one means deciding both.
    """
    return field(
        default=default, metadata={"wire": wire, "fingerprint": fingerprint}
    )


@dataclass(frozen=True)
class RuntimeOptions:
    """Knobs shared by both runtimes.

    ``num_mappers``/``num_reducers`` mirror Phoenix++'s thread settings;
    ``chunk_*`` configure the SupMR ingest pipeline; ``pipelined_ingest``
    can be switched off to run the chunk loop synchronously (bit-for-bit
    the same result, used for deterministic tests and ablations);
    ``memory_budget`` caps the intermediate container and turns on
    out-of-core spilling (:mod:`repro.spill`).
    """

    num_mappers: int = _opt(4, wire=True)
    num_reducers: int = _opt(4, wire=True, fingerprint=4)
    chunk_strategy: ChunkStrategy = _opt(ChunkStrategy.NONE, fingerprint=0)
    chunk_bytes: int | None = _opt(None, fingerprint=1)
    files_per_chunk: int | None = _opt(None, fingerprint=2)
    chunk_schedule: tuple[int, ...] | None = _opt(None, fingerprint=3)
    merge_algorithm: MergeAlgorithm = _opt(
        MergeAlgorithm.PAIRWISE, wire=MergeAlgorithm, fingerprint=5
    )
    #: Output ranges the p-way merge cuts (default: ``num_reducers``).
    #: A partitioning knob: the ranges are merged in the parent.
    merge_parallelism: int | None = _opt(None)
    pipelined_ingest: bool = _opt(True)
    #: Byte budget for the intermediate container ("64MB" accepted);
    #: None keeps the paper's everything-in-RAM behaviour.  When set,
    #: both runtimes wrap the job's container in the out-of-core spill
    #: subsystem (:mod:`repro.spill`).
    memory_budget: int | str | None = _opt(None, wire=True, fingerprint=6)
    #: Streams per external-merge pass over spill runs (>= 2).
    spill_merge_fan_in: int = _opt(8, wire=True)
    #: Seeded fault-injection plan (:mod:`repro.faults`); None runs
    #: clean with zero checking overhead.  The runtime arms a fresh
    #: injector per run, so the same options object replays the same
    #: fault sequence every time.
    fault_plan: FaultPlan | None = _opt(
        None, wire=FaultPlan.from_wire, fingerprint=7
    )
    #: How injected (and genuine transient) faults are answered: bounded
    #: retry with backoff, record quarantine, verify-then-re-spill.
    recovery: RecoveryPolicy = _opt(
        RecoveryPolicy(), wire=lambda data: RecoveryPolicy(**data)
    )
    #: How map tasks execute (``"serial"`` | ``"thread"`` |
    #: ``"process"``; see :mod:`repro.parallel.backends`).  ``thread``
    #: is the historical default; ``process`` maps on supervised forked
    #: workers (lease tracking, respawn, poison-task quarantine) for
    #: real multicore with zero-copy (mmap) split ingest, then reduces
    #: and merges in the parent, where the partitions already are —
    #: ``num_reducers`` counts partitions there, not processes.
    executor_backend: ExecutorBackend | str = _opt(ExecutorBackend.THREAD)
    #: Directory for the crash-safe job journal (:mod:`repro.resilience`).
    #: When set, the runtime checkpoints each completed ingest round and
    #: the reduced partitions there; None runs without durability.
    checkpoint_dir: str | None = _opt(None)
    #: Resume from an existing journal in ``checkpoint_dir`` instead of
    #: starting fresh (completed rounds are skipped; output is identical
    #: to an uninterrupted run).
    resume: bool = _opt(False)
    #: Whole-job wall-clock deadline in seconds; when it expires the
    #: runtime stops admitting new ingest rounds and returns the partial
    #: result with ``counters["degraded"]`` set.  None never expires.
    job_deadline_s: float | None = _opt(None)
    #: Step the executor backend down (process -> thread -> serial) and
    #: re-run the job when a pool failure escapes the supervisor,
    #: instead of propagating :class:`~repro.errors.ParallelError`.
    degrade_on_pool_failure: bool = _opt(True)
    #: Split the job over this many fault-tolerant shard worker processes
    #: (:mod:`repro.shard`): each shard maps a contiguous block of ingest
    #: chunks and reduces the partitions a consistent-hash map assigns
    #: it, exchanging intermediate state as checksummed run files.  None
    #: (default) runs unsharded on the classic runtimes; ``1`` still
    #: routes through the sharded coordinator (the digest baseline the
    #: determinism tests compare multi-shard runs against).
    num_shards: int | None = _opt(None)
    #: Directory for the shard run exchange (outboxes, inboxes, worker
    #: pid files).  None lets the coordinator create and clean up a
    #: temporary directory.
    shard_dir: str | None = _opt(None)
    #: I/O bandwidth budget in bytes/second ("64MB" accepted); when set,
    #: the runtime meters ingest reads and spill writes through a token
    #: bucket (:mod:`repro.qos.throttle`) so concurrent tenants share
    #: the node's disk bandwidth at their assigned rates.  None (the
    #: default) runs unthrottled with zero QoS overhead.
    io_budget: int | str | None = _opt(None, wire=True)
    #: Token-bucket burst allowance in bytes; None defaults to one
    #: second of tokens at ``io_budget``.
    io_burst: int | str | None = _opt(None, wire=True)
    #: Tenant label for multi-tenant accounting (service-side budgets,
    #: per-tenant counters, fault-site scoping).
    tenant: str = _opt("default", wire=True)
    #: Bandwidth priority class fed to priority-aware allocators.
    io_priority: int = _opt(0, wire=True)
    #: How forked workers ship results back (:mod:`repro.xfer`):
    #: ``"shm"`` posts pickle-5 payloads through shared-memory segments
    #: and sends only tiny control frames over the queue; ``"pipe"`` is
    #: the PR-3 pickle-over-the-queue path; ``"auto"`` (default) picks
    #: shm when the box supports it and falls back to pipe otherwise.
    transport: str = _opt("auto")
    #: Remote agent endpoints (``"host:port,..."`` or a sequence) the
    #: sharded coordinator may place shard worker groups on
    #: (:mod:`repro.net`).  Requires ``num_shards``; shards are placed
    #: round-robin over the reachable peers, and an unreachable or
    #: partitioned peer degrades to local execution rather than failing
    #: the job.  None (default) keeps every worker on this host.
    peers: tuple[str, ...] | str | None = _opt(None)
    #: Liveness and transfer deadline in seconds for the multi-host
    #: transport: an agent silent past this is treated as lost, and a
    #: run-file transfer may not exceed it end to end.
    net_timeout_s: float = _opt(10.0)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "executor_backend", resolve_backend(self.executor_backend)
        )
        if self.num_mappers < 1 or self.num_reducers < 1:
            raise ConfigError("num_mappers and num_reducers must be >= 1")
        if self.chunk_strategy is ChunkStrategy.INTER_FILE:
            if not self.chunk_bytes or self.chunk_bytes < 1:
                raise ConfigError("inter-file chunking requires chunk_bytes >= 1")
        if self.chunk_strategy is ChunkStrategy.INTRA_FILE:
            if not self.files_per_chunk or self.files_per_chunk < 1:
                raise ConfigError(
                    "intra-file chunking requires files_per_chunk >= 1"
                )
        if self.chunk_strategy is ChunkStrategy.VARIABLE:
            if not self.chunk_schedule:
                raise ConfigError(
                    "variable chunking requires a non-empty chunk_schedule"
                )
            object.__setattr__(
                self, "chunk_schedule", tuple(int(s) for s in self.chunk_schedule)
            )
            if any(s < 1 for s in self.chunk_schedule):
                raise ConfigError("chunk_schedule sizes must be >= 1 byte")
        if self.chunk_strategy is ChunkStrategy.HYBRID:
            if not self.chunk_bytes or self.chunk_bytes < 1:
                raise ConfigError("hybrid chunking requires chunk_bytes >= 1")
        if self.merge_parallelism is not None and self.merge_parallelism < 1:
            raise ConfigError("merge_parallelism must be >= 1")
        if self.checkpoint_dir is not None:
            object.__setattr__(self, "checkpoint_dir", str(self.checkpoint_dir))
        if self.resume and self.checkpoint_dir is None:
            raise ConfigError("resume=True requires checkpoint_dir")
        if self.job_deadline_s is not None and self.job_deadline_s <= 0:
            raise ConfigError("job_deadline_s must be positive")
        if self.num_shards is not None and self.num_shards < 1:
            raise ConfigError("num_shards must be >= 1")
        if self.shard_dir is not None:
            object.__setattr__(self, "shard_dir", str(self.shard_dir))
        if self.spill_merge_fan_in < 2:
            raise ConfigError("spill_merge_fan_in must be >= 2")
        if self.memory_budget is not None:
            budget = parse_size(self.memory_budget)
            if budget < 1:
                raise ConfigError("memory_budget must be >= 1 byte")
            object.__setattr__(self, "memory_budget", budget)
            largest_chunk = self.largest_chunk
            if largest_chunk and budget <= largest_chunk:
                raise ConfigError(
                    f"memory_budget ({budget} B) must exceed one ingest "
                    f"chunk ({largest_chunk} B); a budget smaller than a "
                    "single chunk spills on every mapper wave"
                )
        if self.io_budget is not None:
            io_budget = parse_size(self.io_budget)
            if io_budget < 1:
                raise ConfigError("io_budget must be >= 1 byte/second")
            object.__setattr__(self, "io_budget", io_budget)
        if self.io_burst is not None:
            if self.io_budget is None:
                raise ConfigError("io_burst requires io_budget")
            io_burst = parse_size(self.io_burst)
            if io_burst < 1:
                raise ConfigError("io_burst must be >= 1 byte")
            object.__setattr__(self, "io_burst", io_burst)
        if not self.tenant:
            raise ConfigError("tenant must be a non-empty string")
        transport = str(self.transport).lower()
        if transport not in ("auto", "pipe", "shm"):
            raise ConfigError(
                f"unknown transport {self.transport!r}; "
                "choose one of auto, pipe, shm"
            )
        object.__setattr__(self, "transport", transport)
        if self.peers is not None:
            object.__setattr__(self, "peers", parse_peers(self.peers))
            if self.num_shards is None:
                raise ConfigError(
                    "peers requires num_shards (combine --peers with "
                    "--shards N)"
                )
        if self.net_timeout_s <= 0:
            raise ConfigError("net_timeout_s must be positive")

    @property
    def largest_chunk(self) -> int:
        """Bytes of the largest ingest chunk these options plan (0 when
        the strategy names no size) — what a memory budget must exceed."""
        return max([self.chunk_bytes or 0, *(self.chunk_schedule or ())])

    @property
    def effective_merge_parallelism(self) -> int:
        return self.merge_parallelism or self.num_reducers

    def with_(self, **changes: Any) -> "RuntimeOptions":
        """A modified copy (frozen dataclass convenience)."""
        return replace(self, **changes)

    # -- convenience constructors -----------------------------------------

    @classmethod
    def baseline(cls, num_mappers: int = 4, num_reducers: int = 4) -> "RuntimeOptions":
        """The original runtime: no chunking, pairwise merge."""
        return cls(num_mappers=num_mappers, num_reducers=num_reducers)

    @classmethod
    def supmr_interfile(
        cls,
        chunk_size: int | str,
        num_mappers: int = 4,
        num_reducers: int = 4,
        **kw: Any,
    ) -> "RuntimeOptions":
        """SupMR with inter-file chunking; ``chunk_size`` accepts '1GB' etc."""
        kw.setdefault("merge_algorithm", MergeAlgorithm.PWAY)
        return cls(
            num_mappers=num_mappers,
            num_reducers=num_reducers,
            chunk_strategy=ChunkStrategy.INTER_FILE,
            chunk_bytes=parse_size(chunk_size),
            **kw,
        )

    @classmethod
    def supmr_intrafile(
        cls,
        files_per_chunk: int,
        num_mappers: int = 4,
        num_reducers: int = 4,
        **kw: Any,
    ) -> "RuntimeOptions":
        """SupMR with intra-file (many small files) chunking."""
        kw.setdefault("merge_algorithm", MergeAlgorithm.PWAY)
        return cls(
            num_mappers=num_mappers,
            num_reducers=num_reducers,
            chunk_strategy=ChunkStrategy.INTRA_FILE,
            files_per_chunk=files_per_chunk,
            **kw,
        )

    @classmethod
    def supmr_variable(
        cls,
        schedule: "Sequence[int | str]",
        num_mappers: int = 4,
        num_reducers: int = 4,
        **kw: Any,
    ) -> "RuntimeOptions":
        """SupMR with an explicit chunk-size schedule ('8MB', 4096, ...)."""
        kw.setdefault("merge_algorithm", MergeAlgorithm.PWAY)
        return cls(
            num_mappers=num_mappers,
            num_reducers=num_reducers,
            chunk_strategy=ChunkStrategy.VARIABLE,
            chunk_schedule=tuple(parse_size(s) for s in schedule),
            **kw,
        )

    @classmethod
    def supmr_hybrid(
        cls,
        chunk_size: int | str,
        num_mappers: int = 4,
        num_reducers: int = 4,
        **kw: Any,
    ) -> "RuntimeOptions":
        """SupMR with hybrid inter/intra-file chunking to a byte budget."""
        kw.setdefault("merge_algorithm", MergeAlgorithm.PWAY)
        return cls(
            num_mappers=num_mappers,
            num_reducers=num_reducers,
            chunk_strategy=ChunkStrategy.HYBRID,
            chunk_bytes=parse_size(chunk_size),
            **kw,
        )


#: The fields that ride to a remote shard worker, in declaration order.
WIRE_FIELDS: tuple[Field, ...] = tuple(
    f for f in fields(RuntimeOptions) if f.metadata["wire"]
)
#: The fields that shape journaled state, in fingerprint-slot order.
FINGERPRINT_FIELDS: tuple[Field, ...] = tuple(sorted(
    (f for f in fields(RuntimeOptions) if f.metadata["fingerprint"] is not None),
    key=lambda f: f.metadata["fingerprint"],
))
