"""Analytic scale-out (Hadoop-shaped) comparator.

The paper's conclusion frames utilization and energy as "significant
factors in comparing this approach to an 'equivalent' scale-out
implementation", citing the scale-up-vs-scale-out studies [2], [7].
This module provides that comparator: a deliberately simple, documented
analytic model of an N-node Hadoop-style job, good enough to place the
scale-up numbers in context (absolute fidelity to any particular cluster
is out of scope — the model's role is the crossover shape).

Model (per phase, all nodes symmetric, data pre-distributed in HDFS with
node-local reads — Hadoop's happy path):

* **map** — each node streams its 1/N share off local disk while mapping
  (Hadoop pipelines record reading into map), so the phase is limited by
  the slower of local disk and the node's map throughput;
* **shuffle** — the intermediate set crosses the network once; each node
  receives ~1/N of it through its NIC (full-bisection assumption); the
  paper notes this is "notoriously slow on scale-out";
* **reduce+merge** — each node sorts/merges its share at the same rates
  the scale-up profile uses, scaled to the node's context count;
* a fixed per-job coordination overhead (job setup, heartbeats,
  straggler slack) that scale-up does not pay.

Energy: node power model x N x job duration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigError
from repro.simrt.costmodel import AppCostProfile, GB_SI, MB_SI


@dataclass(frozen=True)
class ScaleOutSpec:
    """One commodity worker node and the cluster fabric."""

    nodes: int = 16
    contexts_per_node: int = 8
    node_disk_bw: float = 100 * MB_SI
    node_nic_bw: float = 119 * MB_SI  # 1 Gbit goodput
    node_idle_w: float = 80.0
    node_active_w_per_ctx: float = 6.0
    #: Fixed coordination overhead per job (setup, heartbeats, stragglers).
    coordination_s: float = 15.0

    def __post_init__(self) -> None:
        if self.nodes < 1 or self.contexts_per_node < 1:
            raise ConfigError("nodes and contexts_per_node must be >= 1")
        if min(self.node_disk_bw, self.node_nic_bw) <= 0:
            raise ConfigError("node bandwidths must be positive")


@dataclass(frozen=True)
class ScaleOutEstimate:
    """Phase breakdown and energy for one scale-out job."""

    nodes: int
    map_s: float
    shuffle_s: float
    reduce_merge_s: float
    coordination_s: float
    mean_power_w: float

    @property
    def total_s(self) -> float:
        return self.map_s + self.shuffle_s + self.reduce_merge_s + self.coordination_s

    @property
    def energy_j(self) -> float:
        return self.mean_power_w * self.total_s

    @property
    def energy_wh(self) -> float:
        return self.energy_j / 3600.0


def estimate_scaleout_job(
    profile: AppCostProfile,
    input_bytes: float,
    spec: ScaleOutSpec | None = None,
) -> ScaleOutEstimate:
    """Analytic phase times for the Hadoop-shaped equivalent job.

    Per-context application rates are taken from the scale-up
    ``profile`` — the same code doing the same work per byte — so the
    comparison isolates the architecture, not the implementation.
    """
    spec = spec or ScaleOutSpec()
    if input_bytes <= 0:
        raise ConfigError("input_bytes must be positive")
    share = input_bytes / spec.nodes

    # Map: streaming read + map, pipelined; slower stage governs.
    node_map_bw = profile.map_bw_per_ctx * spec.contexts_per_node
    map_s = share / min(spec.node_disk_bw, node_map_bw)

    # Shuffle: intermediate set crosses the fabric once, NIC-bound.
    inter = profile.intermediate_bytes(input_bytes)
    shuffle_s = (inter / spec.nodes) / spec.node_nic_bw

    # Reduce + merge on each node's share (p-way single pass; Hadoop's
    # reducers merge-sort streams, modelled at the profile's scan rates).
    inter_share = inter / spec.nodes
    reduce_s = profile.reduce_s_per_gb * (share / GB_SI)
    block_sort_s = inter_share / spec.contexts_per_node / profile.sort_block_bw
    pway_s = inter_share / (
        spec.contexts_per_node * profile.pway_scan_bw(spec.contexts_per_node)
    )
    reduce_merge_s = reduce_s + block_sort_s + pway_s

    # Power: map/reduce phases run hot, shuffle mostly idles the CPUs.
    total = map_s + shuffle_s + reduce_merge_s + spec.coordination_s
    busy_fraction = (map_s + reduce_merge_s) / total if total > 0 else 0.0
    node_power = (spec.node_idle_w
                  + busy_fraction * spec.contexts_per_node
                  * spec.node_active_w_per_ctx)
    return ScaleOutEstimate(
        nodes=spec.nodes,
        map_s=map_s,
        shuffle_s=shuffle_s,
        reduce_merge_s=reduce_merge_s,
        coordination_s=spec.coordination_s,
        mean_power_w=node_power * spec.nodes,
    )


def crossover_nodes(
    profile: AppCostProfile,
    input_bytes: float,
    scaleup_total_s: float,
    spec: ScaleOutSpec | None = None,
    max_nodes: int = 1024,
) -> int | None:
    """Smallest cluster size whose estimated total beats the scale-up run.

    Returns None if no size up to ``max_nodes`` wins (shuffle and
    coordination floors can make scale-out never catch up for
    merge-light jobs).
    """
    spec = spec or ScaleOutSpec()
    for n in range(1, max_nodes + 1):
        candidate = replace(spec, nodes=n)
        if estimate_scaleout_job(profile, input_bytes, candidate).total_s \
                < scaleup_total_s:
            return n
    return None
