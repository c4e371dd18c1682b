"""Serializable job specifications for the service.

A :class:`ServiceJobSpec` is the wire form of "run this job with these
knobs": the application name, its inputs, and **every** runtime option
the one-shot CLI exposes (``--backend``, ``--memory-budget``,
``--faults``, ``--shards``, …).  It round-trips through JSON
(:meth:`to_dict`/:meth:`from_dict`), hashes to a stable :meth:`job_id`,
and lowers to the same :class:`~repro.core.options.RuntimeOptions` the
one-shot path builds — its runtime fields are the ``dest`` names of
:data:`repro.core.flags.RUNTIME_FLAGS`, and
:func:`~repro.core.flags.options_from_flags` lowers a spec and an
``argparse`` namespace alike, so a submitted job and the equivalent CLI
invocation cannot drift apart (their output digests are byte-identical).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import types
import typing
from dataclasses import dataclass
from typing import Any

from repro.core.flags import options_from_flags
from repro.core.job import JobSpec
from repro.core.options import RuntimeOptions
from repro.errors import ConfigError

#: Applications a spec may name, mapped to their job factories.
KNOWN_APPS = ("wordcount", "sort")

#: Fields of options that no longer exist.  An older build wrote them
#: into every ``spec.json``; :meth:`ServiceJobSpec.from_dict` drops them
#: whatever their value, so its state dirs still load.
RETIRED_FIELDS = ("ingest_readers", "ingest_depth")


#: Field name -> declared type; resolving the annotations costs more
#: than the rest of ``from_dict`` together, so once per class.
_declared_types = functools.cache(typing.get_type_hints)


def _fits(value: Any, declared: Any) -> bool:
    """Is a JSON ``value`` of a spec field's ``declared`` type?

    Nothing is coerced (the job id hashes the value as submitted): a
    ``bool`` is not an ``int``, an ``int`` is a ``float``, and a JSON
    array stands for a tuple.
    """
    origin = typing.get_origin(declared)
    if origin in (typing.Union, types.UnionType):
        return any(_fits(value, arm) for arm in typing.get_args(declared))
    if origin is tuple:
        return isinstance(value, (list, tuple)) and all(
            _fits(item, typing.get_args(declared)[0]) for item in value
        )
    if isinstance(value, bool):
        return declared is bool
    if declared is float:
        return isinstance(value, (int, float))
    return isinstance(value, declared)


@dataclass(frozen=True)
class ServiceJobSpec:
    """One submittable job: app + inputs + every one-shot CLI knob.

    Field names deliberately mirror the CLI flags (``chunk_size`` ↔
    ``--chunk-size``) so one lowering serves both; every runtime field
    here is a ``RUNTIME_FLAGS`` row marked ``in_spec``.  ``priority``
    orders the service queue (higher first, FIFO within a level) and
    ``tag`` distinguishes deliberate duplicate submissions — two specs
    that differ only in ``tag`` get distinct job ids.
    """

    app: str
    inputs: tuple[str, ...]
    mappers: int = 4
    reducers: int = 4
    baseline: bool = False
    chunk_size: str | None = None
    files_per_chunk: int | None = None
    memory_budget: str | None = None
    backend: str | None = None
    faults: str | None = None
    fault_seed: int = 0
    retry: int | None = None
    skip_budget: int | None = None
    job_deadline: float | None = None
    shards: int | None = None
    #: Remote agent endpoints (``"host:port,..."``) the sharded run may
    #: place worker groups on; requires ``shards``.
    peers: str | None = None
    #: Liveness/transfer deadline for ``peers`` runs, in seconds.
    net_timeout: float | None = None
    priority: int = 0
    tag: str = ""
    #: Tenant the job is accounted to (per-tenant budgets, weighted-fair
    #: queueing, QoS counters).
    tenant: str = "default"
    #: Declared I/O bandwidth demand in bytes/second ("64MB" ok); feeds
    #: the service's dispatch-time share assignment and the runtime's
    #: token-bucket throttle.  None runs unthrottled.
    io_budget: str | None = None
    #: Bandwidth priority class for priority-aware allocation policies.
    io_priority: int = 0
    #: Result transport for the process backend: ``auto`` (shared memory
    #: when ``/dev/shm`` works, else pipes), ``shm``, or ``pipe``.
    transport: str | None = None

    def __post_init__(self) -> None:
        if self.app not in KNOWN_APPS:
            raise ConfigError(
                f"unknown app {self.app!r}; known apps: "
                + ", ".join(KNOWN_APPS)
            )
        object.__setattr__(
            self, "inputs", tuple(str(p) for p in self.inputs)
        )
        if not self.inputs:
            raise ConfigError("a job spec needs at least one input file")
        if not self.tenant:
            raise ConfigError("tenant must be a non-empty string")

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dictionary; :meth:`from_dict` inverts it exactly."""
        data = dataclasses.asdict(self)
        data["inputs"] = list(self.inputs)
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ServiceJobSpec":
        """Parse a submitted spec; unknown keys and values that are not
        of their field's declared type are a typed error, and
        :data:`RETIRED_FIELDS` are dropped."""
        if not isinstance(data, dict):
            raise ConfigError(f"job spec must be an object, got {type(data)}")
        data = {k: v for k, v in data.items() if k not in RETIRED_FIELDS}
        known = _declared_types(cls)
        unknown = set(data) - set(known)
        if unknown:
            raise ConfigError(
                f"unknown job spec field(s): {', '.join(sorted(unknown))}"
            )
        missing = {"app", "inputs"} - set(data)
        if missing:
            raise ConfigError(
                f"job spec missing field(s): {', '.join(sorted(missing))}"
            )
        for name, value in data.items():
            if not _fits(value, known[name]):
                raise ConfigError(
                    f"job spec field {name!r} must be "
                    f"{cls.__dataclass_fields__[name].type}, got {value!r}"
                )
        return cls(**data)

    def canonical_json(self) -> str:
        """The byte-stable encoding :meth:`job_id` hashes."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def job_id(self) -> str:
        """Stable 12-hex-digit id derived from the spec contents.

        Identical specs (same app, inputs, knobs, and ``tag``) get the
        same id, which is what makes "resubmit after a daemon restart"
        reattach to the original job's checkpoint dir and resume from
        its journal instead of starting over.
        """
        digest = hashlib.sha256(self.canonical_json().encode()).hexdigest()
        return digest[:12]

    # -- lowering -----------------------------------------------------------

    def to_options(
        self,
        checkpoint_dir: str | None = None,
        resume: bool = False,
        shard_dir: str | None = None,
        peers: "tuple[str, ...] | str | None" = None,
        net_timeout: float | None = None,
    ) -> RuntimeOptions:
        """The :class:`RuntimeOptions` this spec describes.

        ``checkpoint_dir``/``resume``/``shard_dir`` are service-assigned
        (per-job dirs under the state dir), not part of the submitted
        spec, so they arrive as parameters.  ``peers``/``net_timeout``
        likewise override the spec's own fields when the *service*
        placed the job on its agent pool — placement lives outside the
        spec (and its hash) because the job's identity must not change
        when the pool does.  All five are lowered as if typed on the
        one-shot command line.
        """
        assigned = {
            "checkpoint_dir": checkpoint_dir,
            "resume": resume,
            "shard_dir": shard_dir,
            "peers": peers,
            "net_timeout": net_timeout,
        }
        return options_from_flags({
            **dataclasses.asdict(self),
            **{k: v for k, v in assigned.items() if v is not None},
        })

    def build_job(self) -> JobSpec:
        """The executable :class:`~repro.core.job.JobSpec`."""
        if self.app == "wordcount":
            from repro.apps.wordcount import make_wordcount_job

            return make_wordcount_job(self.inputs)
        from repro.apps.sortapp import make_sort_job

        return make_sort_job(list(self.inputs))
