"""The runtime options' command-line surface, declared once.

:data:`RUNTIME_FLAGS` is the one table of the flags ``supmr wordcount``
/ ``supmr sort`` (and ``supmr submit <app>``) take: each row carries the
flag's argparse spelling, the :class:`~repro.core.options.RuntimeOptions`
fields it decides (and the function that lowers its group, when it is
not one flag to one field), and whether it rides in a submitted
:class:`~repro.service.jobspec.ServiceJobSpec`.  A row's ``dest`` is
also the spec's field name, so ``vars(namespace)`` and a spec's fields
are the same CLI-shaped mapping and :func:`options_from_flags` lowers
both — the one-shot and the service path cannot drift.  ``repro.cli``
builds its parsers by looping over the table; ``docs/options.md`` is
generated from it.

How far an *option* travels past the spec (to a remote shard worker,
into the journal fingerprint) is marked on the ``RuntimeOptions`` fields
themselves (:func:`repro.core.options._opt`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.core.options import ChunkStrategy, MergeAlgorithm, RuntimeOptions
from repro.faults.plan import parse_faults
from repro.faults.policy import RecoveryPolicy
from repro.util.units import parse_size

#: A lookup over CLI-shaped values: ``get(dest)`` is None when unset.
_Get = Callable[[str], Any]


def lower_chunking(get: _Get) -> dict[str, Any]:
    """``--baseline`` / ``--files-per-chunk`` / ``--chunk-size`` → the
    chunk strategy, its size, and the merge algorithm that goes with it
    (chunked runs take SupMR's p-way merge)."""
    if get("baseline"):
        return {}
    if get("files_per_chunk"):
        return {
            "chunk_strategy": ChunkStrategy.INTRA_FILE,
            "files_per_chunk": get("files_per_chunk"),
            "merge_algorithm": MergeAlgorithm.PWAY,
        }
    if get("chunk_size"):
        return {
            "chunk_strategy": ChunkStrategy.INTER_FILE,
            "chunk_bytes": parse_size(get("chunk_size")),
            "merge_algorithm": MergeAlgorithm.PWAY,
        }
    return {}


def lower_faults(get: _Get) -> dict[str, Any]:
    """``--faults`` / ``--fault-seed`` / ``--retry`` / ``--skip-budget``
    → the fault plan and the recovery policy; the last three mean
    nothing without a plan."""
    if not get("faults"):
        return {}
    policy = {"max_retries": get("retry"), "skip_budget": get("skip_budget")}
    return {
        "fault_plan": parse_faults(get("faults"), seed=get("fault_seed") or 0),
        "recovery": RecoveryPolicy(
            **{k: v for k, v in policy.items() if v is not None}
        ),
    }


def lower_checkpoint(get: _Get) -> dict[str, Any]:
    """``--checkpoint-dir`` / ``--resume``: resuming means nothing
    without a journal directory."""
    if not get("checkpoint_dir"):
        return {}
    return {
        "checkpoint_dir": get("checkpoint_dir"),
        "resume": bool(get("resume")),
    }


@dataclass(frozen=True)
class Flag:
    """One row of :data:`RUNTIME_FLAGS`."""

    #: The flag as typed, e.g. ``"--chunk-size"``.
    name: str
    #: The ``RuntimeOptions`` fields the flag decides; empty for a flag
    #: that only shapes what the one-shot command prints.
    lowers: tuple[str, ...]
    #: None when the value is assigned to the one field as it stands;
    #: else the function that lowers the flag's whole group.
    via: "Callable[[_Get], dict[str, Any]] | None"
    #: Whether a submitted job spec carries it.  The service assigns
    #: checkpoint and shard directories itself, and a report format
    #: means nothing to a daemon, so those flags stay one-shot only.
    in_spec: bool
    #: The apps whose commands take the flag.
    apps: tuple[str, ...]
    #: ``add_argument`` keyword arguments, verbatim.
    argparse: Mapping[str, Any]

    @property
    def dest(self) -> str:
        """The namespace attribute / job-spec field: ``chunk_size``."""
        return self.name[2:].replace("-", "_")


def _flag(
    name: str,
    *lowers: str,
    via: "Callable[[_Get], dict[str, Any]] | None" = None,
    in_spec: bool = True,
    apps: tuple[str, ...] = ("wordcount", "sort"),
    **argparse: Any,
) -> Flag:
    return Flag(name, lowers, via, in_spec, apps, argparse)


#: Every runtime flag, in ``--help`` order.
RUNTIME_FLAGS: tuple[Flag, ...] = (
    _flag("--files-per-chunk", "chunk_strategy", "files_per_chunk", "merge_algorithm",
          via=lower_chunking, apps=("wordcount",), type=int,
          help="intra-file chunking (many small files)"),
    _flag("--top", in_spec=False, apps=("wordcount",), type=int, default=10,
          help="print the first N output pairs"),
    _flag("--mappers", "num_mappers", type=int, default=4),
    _flag("--reducers", "num_reducers", type=int, default=4),
    _flag("--backend", "executor_backend", choices=("serial", "thread", "process"),
          default=None,
          help="execution backend: serial (inline), thread (default; GIL-bound CPU "
               "phases), or process (forked workers, zero-copy mmap ingest)"),
    _flag("--baseline", "chunk_strategy", via=lower_chunking, action="store_true",
          help="original runtime (no ingest chunks)"),
    _flag("--chunk-size", "chunk_strategy", "chunk_bytes", "merge_algorithm",
          via=lower_chunking,
          help="inter-file chunk size, e.g. 4MB"),
    _flag("--memory-budget", "memory_budget",
          help="intermediate container byte budget, e.g. 64MB; spills to disk when "
               "exceeded"),
    _flag("--timeline", in_spec=False, action="store_true",
          help="render the pipeline timeline after the run"),
    _flag("--json", in_spec=False, action="store_true",
          help="emit the result as JSON instead of text"),
    _flag("--faults", "fault_plan", "recovery", via=lower_faults,
          help="fault plan, e.g. 'ingest.read=once,record.corrupt=0.001'"),
    _flag("--fault-seed", "fault_plan", via=lower_faults, type=int, default=0,
          help="seed for the deterministic fault plan"),
    _flag("--retry", "recovery", via=lower_faults, type=int, default=None, metavar="N",
          help="retry budget per fault site (default 3; 0 fails fast)"),
    _flag("--skip-budget", "recovery", via=lower_faults, type=int, default=None,
          metavar="N",
          help="max corrupt records to quarantine before aborting (default 1000)"),
    _flag("--checkpoint-dir", "checkpoint_dir", via=lower_checkpoint, in_spec=False,
          metavar="DIR",
          help="journal completed work under DIR so a killed job can be resumed"),
    _flag("--resume", "resume", via=lower_checkpoint, in_spec=False,
          action="store_true",
          help="resume from the journal in --checkpoint-dir instead of starting fresh"),
    _flag("--job-deadline", "job_deadline_s", type=float, default=None,
          metavar="SECONDS",
          help="stop admitting new work after SECONDS and return the partial result "
               "marked DEGRADED"),
    _flag("--shards", "num_shards", type=int, default=None, metavar="N",
          help="run the job scaled out across N supervised shard worker processes "
               "(fault-tolerant sharded runtime)"),
    _flag("--shard-dir", "shard_dir", in_spec=False, metavar="DIR",
          help="working directory for shard pid files and exchanged run files "
               "(default: a private temporary directory)"),
    _flag("--peers", "peers", metavar="HOST:PORT,...",
          help="place the shard workers on these remote agents (requires --shards; "
               "start each with 'supmr agent --listen HOST:PORT'); unreachable hosts "
               "degrade to local execution with an identical digest"),
    _flag("--net-timeout", "net_timeout_s", type=float, default=None,
          metavar="SECONDS",
          help="liveness and transfer deadline for --peers runs (default 10)"),
    _flag("--io-budget", "io_budget", metavar="RATE",
          help="token-bucket I/O bandwidth cap in bytes/s, e.g. 64MB; throttles ingest "
               "reads and spill writes (default: unthrottled)"),
    _flag("--io-burst", "io_burst", in_spec=False, metavar="SIZE",
          help="token-bucket burst capacity in bytes (default: one second's worth of "
               "--io-budget)"),
    _flag("--tenant", "tenant", default="default",
          help="tenant the job is accounted to (QoS counters, per-tenant service "
               "budgets)"),
    _flag("--io-priority", "io_priority", type=int, default=0,
          help="bandwidth priority class for priority-aware QoS policies (higher gets "
               "bandwidth first)"),
    _flag("--transport", "transport", choices=("auto", "shm", "pipe"), default=None,
          help="process-backend result transport: shared-memory segments (shm), queue "
               "pipes (pipe), or auto (shm when /dev/shm works; the default)"),
)


def options_from_flags(values: Mapping[str, Any]) -> RuntimeOptions:
    """Lower CLI-shaped values to :class:`RuntimeOptions`.

    ``values`` maps flag ``dest`` names to values — ``vars()`` of the
    one-shot parser's namespace, or a job spec's fields.  A name that is
    missing, None or an empty string is unset and takes the
    ``RuntimeOptions`` default.
    """
    def get(dest: str) -> Any:
        value = values.get(dest)
        return None if value == "" else value

    fields: dict[str, Any] = {}
    for via in dict.fromkeys(flag.via for flag in RUNTIME_FLAGS if flag.via):
        fields.update(via(get))
    for flag in RUNTIME_FLAGS:
        if flag.lowers and flag.via is None and get(flag.dest) is not None:
            (field,) = flag.lowers
            fields[field] = get(flag.dest)
    return RuntimeOptions(**fields)
