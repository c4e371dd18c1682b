"""Bandwidth allocation policies: deterministic, unit-conserving.

A :class:`BandwidthAllocator` answers one question: given a capacity and
a set of registered flows (each with a demand, a weight, and a priority),
what rate does each flow get *right now*?  The same answer is used in
two places:

* the **simulator** (:class:`repro.simhw.resources.BandwidthResource`)
  re-allocates every time the flow set changes, so concurrent simulated
  jobs contend the way concurrent real jobs do;
* the **service** computes dispatch-time shares of the configured node
  bandwidth and feeds them to per-tenant token buckets
  (:mod:`repro.qos.throttle`) that enforce them on the real I/O paths.

Every policy is a pure function of the registered flows — no clocks, no
randomness — and *unit-conserving*: the allocations never sum past the
capacity (modulo float epsilon), and no flow is ever handed more than it
asked for.  Registration order does not change the result beyond float
associativity.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Hashable

from repro.errors import ConfigError

#: Float slop shared with the simulator's fluid-flow kernel.
EPSILON = 1e-9


@dataclass
class _Registration:
    """One flow's current request."""

    flow: Hashable
    demand: float  # units/second wanted; math.inf = "everything"
    weight: float
    priority: int


def waterfill(
    regs: "list[_Registration]", capacity: float
) -> dict[Hashable, float]:
    """Weighted max-min fair (water-filling) rates, demand-capped.

    Repeatedly hands unsatisfied flows an equal weighted share of the
    leftover capacity; flows whose demand falls below their share are
    granted exactly their demand and drop out, freeing the surplus for
    the rest.  This is the same loop the simulator's fluid-flow channel
    runs — kept verbatim (same epsilon, same capping comparison) so the
    two stay numerically identical.
    """
    rates: dict[Hashable, float] = {r.flow: 0.0 for r in regs}
    unallocated = float(capacity)
    pending = [r for r in regs if r.demand > EPSILON]
    while pending and unallocated > EPSILON:
        total_weight = sum(r.weight for r in pending)
        share_per_weight = unallocated / total_weight
        capped = [
            r for r in pending
            if r.weight * share_per_weight >= r.demand - EPSILON
        ]
        if not capped:
            for r in pending:
                rates[r.flow] = r.weight * share_per_weight
            unallocated = 0.0
            break
        for r in capped:
            rates[r.flow] = r.demand
            unallocated -= r.demand
        pending = [r for r in pending if r not in capped]
    return rates


class BandwidthAllocator(ABC):
    """Base class: register flows, then compute their allocated rates.

    Mirrors the register/compute/lookup shape of the psim allocator
    hierarchy: :meth:`reset` clears the registration set, each
    :meth:`register` files one flow's demand, :meth:`allocate` computes
    every rate at once, and :meth:`share` looks one up afterwards.
    """

    #: Policy name (the ``--qos-policy`` CLI value).
    policy = "abstract"

    def __init__(self, capacity: float) -> None:
        if not capacity > 0:
            raise ConfigError(
                f"{type(self).__name__}: capacity must be positive, "
                f"got {capacity!r}"
            )
        self.capacity = float(capacity)
        self._regs: list[_Registration] = []
        self._allocations: dict[Hashable, float] = {}

    # -- registration ------------------------------------------------------

    def reset(self) -> None:
        """Forget every registered flow and computed allocation."""
        self._regs.clear()
        self._allocations.clear()

    def set_capacity(self, capacity: float) -> None:
        """Change the capacity (device degradation, reconfiguration)."""
        if not capacity > 0:
            raise ConfigError(
                f"{type(self).__name__}: capacity must be positive"
            )
        self.capacity = float(capacity)

    def register(
        self,
        flow: Hashable,
        demand: float,
        weight: float = 1.0,
        priority: int = 0,
    ) -> None:
        """File one flow's request; ``demand=math.inf`` asks for everything."""
        if demand < 0:
            raise ConfigError(f"flow {flow!r}: demand must be >= 0")
        if weight <= 0:
            raise ConfigError(f"flow {flow!r}: weight must be positive")
        for reg in self._regs:
            if reg.flow == flow:
                raise ConfigError(f"flow {flow!r} registered twice")
        self._regs.append(
            _Registration(flow=flow, demand=float(demand),
                          weight=float(weight), priority=int(priority))
        )

    # -- results -----------------------------------------------------------

    def allocate(self) -> dict[Hashable, float]:
        """Compute (and cache) every registered flow's rate."""
        self._allocations = self._compute()
        return dict(self._allocations)

    @abstractmethod
    def _compute(self) -> dict[Hashable, float]:
        """Policy body: flow -> allocated rate."""

    def share(self, flow: Hashable) -> float:
        """One flow's rate from the last :meth:`allocate` (0.0 if absent)."""
        return self._allocations.get(flow, 0.0)

    @property
    def total_allocated(self) -> float:
        """Sum of the last computed allocations."""
        return sum(self._allocations.values())

    @property
    def utilization(self) -> float:
        """Allocated fraction of capacity, in [0, 1]."""
        return min(1.0, self.total_allocated / self.capacity)


class FairShare(BandwidthAllocator):
    """Plain weighted fair share, demand-capped, surplus *not* recycled.

    Every flow gets ``capacity * weight / total_weight``, clipped to its
    demand.  Capacity a demand-limited flow leaves on the table is not
    redistributed — the simplest conserving policy, and the baseline the
    max-min tests compare against (max-min always allocates at least as
    much in aggregate).
    """

    policy = "fair-share"

    def _compute(self) -> dict[Hashable, float]:
        if not self._regs:
            return {}
        total_weight = sum(r.weight for r in self._regs)
        return {
            r.flow: min(r.demand, self.capacity * r.weight / total_weight)
            for r in self._regs
        }


class MaxMinFairShare(BandwidthAllocator):
    """Weighted max-min fairness via demand-capped water-filling.

    The policy both the fluid-flow simulator and the service default to:
    no flow can raise its rate without lowering that of a flow with an
    equal-or-smaller rate, and surplus from demand-satisfied flows is
    recycled until the capacity or every demand is exhausted.
    """

    policy = "max-min"

    def _compute(self) -> dict[Hashable, float]:
        return waterfill(self._regs, self.capacity)


class PriorityLevels(BandwidthAllocator):
    """Strict priority levels; max-min water-filling within each level.

    Higher ``priority`` values are served first: level *k* water-fills
    whatever capacity levels above it left over.  A saturated high level
    starves lower ones entirely — which is why the *service* pairs this
    policy with queue-side priority aging, not why the allocator should
    soften it.
    """

    policy = "priority"

    def _compute(self) -> dict[Hashable, float]:
        rates: dict[Hashable, float] = {r.flow: 0.0 for r in self._regs}
        remaining = self.capacity
        for level in sorted({r.priority for r in self._regs}, reverse=True):
            if remaining <= EPSILON:
                break
            level_regs = [r for r in self._regs if r.priority == level]
            level_rates = waterfill(level_regs, remaining)
            for flow, rate in level_rates.items():
                rates[flow] = rate
                remaining -= rate
        return rates


class HostCapacityAllocator(BandwidthAllocator):
    """Per-host capacity composition over one inner policy.

    The cluster-aware service's allocator: every flow is registered
    with the ``host`` its job was placed on, each host owns its *own*
    capacity (the constructor capacity by default — the node bandwidth
    models one host's disk, so ten agents have ten disks — overridable
    per host via ``host_capacity``), and the configured inner policy
    splits each host's capacity among the flows placed there.  Two jobs
    on the same agent split that host's share; jobs on different hosts
    do not contend at all.

    Conservation therefore holds *per host*, not globally:
    ``total_allocated`` may exceed the constructor capacity once flows
    span multiple hosts, by design.
    """

    policy = "per-host"

    def __init__(
        self,
        capacity: float,
        inner_policy: str = "max-min",
        host_capacity: "dict[str, float] | None" = None,
    ) -> None:
        super().__init__(capacity)
        if inner_policy not in POLICIES:
            raise ConfigError(
                f"unknown inner policy {inner_policy!r}; known policies: "
                + ", ".join(sorted(POLICIES))
            )
        self.inner_policy = inner_policy
        self._host_capacity = dict(host_capacity or {})
        self._hosts: dict[Hashable, str] = {}

    def reset(self) -> None:
        """Forget every registered flow plus the host assignments."""
        super().reset()
        self._hosts.clear()

    def register(
        self,
        flow: Hashable,
        demand: float,
        weight: float = 1.0,
        priority: int = 0,
        host: str = "local",
    ) -> None:
        """File one flow's request against its host's capacity."""
        super().register(flow, demand, weight=weight, priority=priority)
        self._hosts[flow] = host

    def _compute(self) -> dict[Hashable, float]:
        by_host: dict[str, list[_Registration]] = {}
        for reg in self._regs:
            by_host.setdefault(
                self._hosts.get(reg.flow, "local"), []
            ).append(reg)
        rates: dict[Hashable, float] = {}
        for host, regs in by_host.items():
            inner = make_allocator(
                self.inner_policy,
                self._host_capacity.get(host, self.capacity),
            )
            for reg in regs:
                inner.register(
                    reg.flow, reg.demand,
                    weight=reg.weight, priority=reg.priority,
                )
            rates.update(inner.allocate())
        return rates


#: Policy-name -> class registry (the ``--qos-policy`` surface).
POLICIES: dict[str, type[BandwidthAllocator]] = {
    FairShare.policy: FairShare,
    MaxMinFairShare.policy: MaxMinFairShare,
    PriorityLevels.policy: PriorityLevels,
}


def make_allocator(policy: str, capacity: float) -> BandwidthAllocator:
    """Instantiate a policy by name; unknown names are a typed error."""
    cls = POLICIES.get(policy)
    if cls is None:
        raise ConfigError(
            f"unknown QoS policy {policy!r}; known policies: "
            + ", ".join(sorted(POLICIES))
        )
    return cls(capacity)


def brute_force_max_min(
    demands: "list[float]", capacity: float, iterations: int = 64
) -> "list[float]":
    """Reference max-min computation by bisection on the water level.

    Independent of :func:`waterfill`'s loop structure (it searches for
    the level ``L`` where ``sum(min(d, L))`` meets the capacity), so the
    property tests can cross-check the production algorithm against a
    structurally different implementation.  Equal weights only.
    """
    finite_total = sum(d for d in demands if not math.isinf(d))
    if all(not math.isinf(d) for d in demands) and finite_total <= capacity:
        return list(demands)
    lo, hi = 0.0, capacity
    for _ in range(iterations):
        mid = (lo + hi) / 2.0
        if sum(min(d, mid) for d in demands) > capacity:
            hi = mid
        else:
            lo = mid
    return [min(d, lo) for d in demands]
