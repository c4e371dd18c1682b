"""Fault plans: seeded, deterministic specifications of what breaks where.

A :class:`FaultPlan` is pure configuration — a seed plus per-site
:class:`FaultSpec` entries — and is safe to share, hash, and put on the
frozen :class:`~repro.core.options.RuntimeOptions`.  Arming a plan
(:meth:`FaultPlan.arm`) produces a fresh, stateful
:class:`~repro.faults.injector.FaultInjector` per run, so a runtime
object stays reusable and every run with the same seed sees the same
faults.

Determinism does not depend on check *order*: each decision is a pure
function of ``(seed, site, scope, attempt)`` via the same process-stable
FNV hash the partitioner uses, so the pipelined ingest thread and the
mapper pool can race freely without perturbing which faults fire.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable

from repro.errors import ConfigError
from repro.util.hashing import stable_hash

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.faults.injector import FaultInjector
    from repro.faults.policy import RecoveryPolicy

# -- fault sites -----------------------------------------------------------
# Real-runtime sites (checked by the executable pipeline):
SITE_INGEST_READ = "ingest.read"        # io.datafile / chunking.chunk
SITE_RECORD_CORRUPT = "record.corrupt"  # io.records screening
SITE_MAP_TASK = "map.task"              # core.execution
SITE_SPILL_CORRUPT = "spill.corrupt"    # spill.manager run files
SITE_WORKER_CRASH = "worker.crash"      # resilience.supervisor (worker dies)
SITE_TASK_HANG = "task.hang"            # resilience.supervisor (lease expiry)
SITE_SHARD_WORKER_LOSS = "shard.worker_loss"        # shard.coordinator
SITE_SHARD_EXCHANGE_CORRUPT = "shard.exchange_corrupt"  # shard.exchange
SITE_SHARD_STRAGGLER = "shard.straggler"            # shard.coordinator
SITE_QOS_THROTTLE_STALL = "qos.throttle.stall"      # qos.throttle buckets
# Service-daemon sites (checked by repro.service):
SITE_SERVICE_CONN_DROP = "service.conn.drop"   # service.server connections
SITE_SERVICE_JOB_CRASH = "service.job.crash"   # service runner processes
SITE_QOS_TENANT_SURGE = "qos.tenant.surge"     # service.server admission
# Multi-host transport sites (checked by repro.net / shard.coordinator):
SITE_NET_CONN_DROP = "net.conn.drop"           # net.wire send/fetch attempts
SITE_NET_FRAME_CORRUPT = "net.frame.corrupt"   # net.exchange transfers
SITE_NET_PARTIAL_WRITE = "net.partial.write"   # net.wire torn sends
SITE_NET_HOST_LOSS = "net.host.loss"           # net.agent dies mid-job
SITE_NET_PARTITION = "net.partition"           # net.agent live-but-unreachable
# Cluster sites (checked by repro.cluster / service dispatch):
SITE_CLUSTER_AGENT_FLAP = "cluster.agent.flap"       # registry probe results
SITE_CLUSTER_DISPATCH_STALE = "cluster.dispatch.stale"  # dead-on-dispatch peer
#: Observation-only site: the agent's grace reaper records rows under it
#: (``net.agent.reap``) so post-mortems can tell grace-expiry kills from
#: commanded ones.  It is never *injected*, so it stays out of
#: ``KNOWN_SITES`` — a plan naming it would silently do nothing.
SITE_NET_AGENT_REAP = "net.agent.reap"
# Simulated-hardware sites (applied by faults.simdriver / simrt):
SITE_SIM_DISK_SLOW = "sim.disk.slow"
SITE_SIM_DISK_FAIL = "sim.disk.fail"
SITE_SIM_DATANODE_LOSS = "sim.hdfs.datanode_loss"
SITE_SIM_NET_FLAP = "sim.net.flap"
SITE_SIM_STRAGGLER = "sim.map.straggler"
SITE_SIM_WORKER_CRASH = "sim.worker.crash"

RUNTIME_SITES = (
    SITE_INGEST_READ, SITE_RECORD_CORRUPT, SITE_MAP_TASK, SITE_SPILL_CORRUPT,
    SITE_WORKER_CRASH, SITE_TASK_HANG,
    SITE_SHARD_WORKER_LOSS, SITE_SHARD_EXCHANGE_CORRUPT, SITE_SHARD_STRAGGLER,
    SITE_QOS_THROTTLE_STALL,
)
SERVICE_SITES = (
    SITE_SERVICE_CONN_DROP, SITE_SERVICE_JOB_CRASH, SITE_QOS_TENANT_SURGE,
)
NET_SITES = (
    SITE_NET_CONN_DROP, SITE_NET_FRAME_CORRUPT, SITE_NET_PARTIAL_WRITE,
    SITE_NET_HOST_LOSS, SITE_NET_PARTITION,
)
CLUSTER_SITES = (
    SITE_CLUSTER_AGENT_FLAP, SITE_CLUSTER_DISPATCH_STALE,
)
SIM_SITES = (
    SITE_SIM_DISK_SLOW, SITE_SIM_DISK_FAIL, SITE_SIM_DATANODE_LOSS,
    SITE_SIM_NET_FLAP, SITE_SIM_STRAGGLER, SITE_SIM_WORKER_CRASH,
)
KNOWN_SITES = (
    RUNTIME_SITES + SERVICE_SITES + NET_SITES + CLUSTER_SITES + SIM_SITES
)

#: Fault flavors (``FaultSpec.kind``); sites ignore kinds they do not model.
KIND_ERROR = "error"  # transient I/O error (ingest.read default)
KIND_SHORT = "short"  # short read: fewer bytes than asked for


@dataclass(frozen=True)
class FaultDecision:
    """One positive injection decision handed to the checking site."""

    site: str
    kind: str
    spec: "FaultSpec"

    def describe(self) -> str:
        """Short human-readable label for logs."""
        return f"{self.site} fault ({self.kind})"


@dataclass(frozen=True)
class FaultSpec:
    """When and how one site misbehaves.

    Exactly one trigger discipline applies per spec:

    * ``once_per_scope=True`` — fire on the *first* check of every
      distinct scope (e.g. one transient read error per ingest chunk);
      retries of the same scope pass.
    * otherwise — fire with ``probability`` on every check, re-rolled
      per attempt so retries can succeed.

    ``max_fires`` caps total fires either way.  The ``at_s`` /
    ``duration_s`` / ``factor`` / ``target`` fields configure the timed
    simulated-hardware sites and are ignored by the runtime sites.
    """

    site: str
    probability: float = 1.0
    once_per_scope: bool = False
    max_fires: int | None = None
    kind: str = KIND_ERROR
    #: Simulated time the fault strikes (sim.* sites).
    at_s: float | None = None
    #: How long a slowdown/flap lasts before restoration (sim.* sites).
    duration_s: float | None = None
    #: Bandwidth multiplier during a slowdown, or the straggler's
    #: task-time multiplier (sim.* sites).
    factor: float | None = None
    #: Datanode index to kill (sim.hdfs.datanode_loss); None = next alive.
    target: int | None = None

    def __post_init__(self) -> None:
        if not self.site:
            raise ConfigError("FaultSpec needs a site name")
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigError(
                f"{self.site}: probability must be in [0, 1], "
                f"got {self.probability}"
            )
        if self.max_fires is not None and self.max_fires < 0:
            raise ConfigError(f"{self.site}: max_fires must be >= 0")
        if self.factor is not None and self.factor <= 0:
            raise ConfigError(f"{self.site}: factor must be positive")
        if self.duration_s is not None and self.duration_s < 0:
            raise ConfigError(f"{self.site}: duration_s must be >= 0")
        if self.at_s is not None and self.at_s < 0:
            raise ConfigError(f"{self.site}: at_s must be >= 0")


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the per-site specs; pure configuration, reusable."""

    seed: int = 0
    specs: tuple[FaultSpec, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        seen: set[str] = set()
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise ConfigError(f"not a FaultSpec: {spec!r}")
            if spec.site in seen:
                raise ConfigError(f"duplicate fault spec for site {spec.site!r}")
            seen.add(spec.site)

    def spec_for(self, site: str) -> FaultSpec | None:
        """The spec armed for ``site``, or None when the site runs clean."""
        for spec in self.specs:
            if spec.site == site:
                return spec
        return None

    def sites(self) -> tuple[str, ...]:
        """The site names this plan arms, in spec order."""
        return tuple(s.site for s in self.specs)

    @classmethod
    def from_wire(cls, data: dict) -> "FaultPlan":
        """Rebuild a plan from its JSON form (``seed`` plus one dict per
        spec) — bit-identical, so a remote worker rolls the same seeded
        sites with the same scopes as a local one."""
        return cls(
            seed=int(data.get("seed", 0)),
            specs=tuple(FaultSpec(**spec) for spec in data["specs"]),
        )

    def roll(self, site: str, scope: Hashable, attempt: int) -> float:
        """The deterministic uniform draw for one check, in [0, 1).

        A pure function of ``(seed, site, scope, attempt)`` — independent
        of check order, thread interleaving, and PYTHONHASHSEED.
        """
        h = stable_hash((self.seed, site, scope, attempt))
        return (h % (2 ** 53)) / float(2 ** 53)

    def arm(
        self,
        policy: "RecoveryPolicy | None" = None,
        clock=None,
    ) -> "FaultInjector":
        """A fresh stateful injector for one run of this plan."""
        from repro.faults.injector import FaultInjector
        from repro.faults.policy import RecoveryPolicy

        return FaultInjector(self, policy or RecoveryPolicy(), clock=clock)


def parse_faults(text: str, seed: int = 0) -> FaultPlan:
    """Parse the CLI ``--faults`` syntax into a :class:`FaultPlan`.

    Comma-separated entries, each ``site[=trigger][/kind]``:

    * ``site`` alone — fire on every check (probability 1);
    * ``site=0.001`` — fire with that probability per check;
    * ``site=once`` — fire once per scope (e.g. once per ingest chunk);
    * ``/kind`` suffix — fault flavor (``error``, ``short``).

    Example: ``ingest.read=once,record.corrupt=0.001,map.task=0.05/error``
    """
    specs: list[FaultSpec] = []
    for raw_entry in text.split(","):
        entry = raw_entry.strip()
        if not entry:
            continue
        kind = KIND_ERROR
        if "/" in entry:
            entry, kind = entry.rsplit("/", 1)
            if not kind:
                raise ConfigError(f"empty fault kind in {raw_entry!r}")
        site, _, trigger = entry.partition("=")
        site = site.strip()
        if site not in KNOWN_SITES:
            raise ConfigError(
                f"unknown fault site {site!r}; known sites: "
                + ", ".join(KNOWN_SITES)
            )
        trigger = trigger.strip()
        if not trigger:
            specs.append(FaultSpec(site=site, kind=kind))
        elif trigger == "once":
            specs.append(FaultSpec(site=site, once_per_scope=True, kind=kind))
        else:
            try:
                probability = float(trigger)
            except ValueError:
                raise ConfigError(
                    f"bad fault trigger {trigger!r} in {raw_entry!r} "
                    "(want a probability or 'once')"
                ) from None
            specs.append(FaultSpec(site=site, probability=probability, kind=kind))
    if not specs:
        raise ConfigError(f"no fault specs in {text!r}")
    return FaultPlan(seed=seed, specs=tuple(specs))
