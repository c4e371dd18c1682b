"""Timed fault driver for the simulated testbed.

Runtime sites are *checked* by code paths as they execute; simulated
hardware faults instead *strike at a simulated time* — a disk slows at
t=40 s, a datanode dies at t=100 s, the client link flaps for 5 s.
:class:`SimFaultDriver` turns the ``sim.*`` specs of a
:class:`~repro.faults.plan.FaultPlan` into scheduled simulator callbacks
against a :class:`~repro.simhw.machine.ScaleUpMachine` and/or an
:class:`~repro.simhw.hdfs.HdfsCluster`, logging every degradation and
restoration to the shared :class:`~repro.faults.log.FaultLog`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import SimulationError
from repro.faults.log import ACTION_DEGRADED, ACTION_INJECTED, ACTION_RECOVERED, FaultLog
from repro.faults.plan import (
    SITE_SIM_DATANODE_LOSS,
    SITE_SIM_DISK_FAIL,
    SITE_SIM_DISK_SLOW,
    SITE_SIM_NET_FLAP,
    FaultPlan,
    FaultSpec,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simhw.hdfs import HdfsCluster
    from repro.simhw.machine import ScaleUpMachine

#: Default link rate multiplier during a network flap.
DEFAULT_FLAP_FACTOR = 0.05


class SimFaultDriver:
    """Arms a plan's ``sim.*`` specs onto simulated hardware."""

    def __init__(
        self,
        plan: FaultPlan,
        log: FaultLog,
        machine: "ScaleUpMachine | None" = None,
        cluster: "HdfsCluster | None" = None,
    ) -> None:
        if machine is None and cluster is None:
            raise SimulationError("SimFaultDriver needs a machine or a cluster")
        self.plan = plan
        self.log = log
        self.machine = machine
        self.cluster = cluster
        sim = machine.sim if machine is not None else cluster.sim
        if cluster is not None and machine is not None and cluster.sim is not sim:
            raise SimulationError("machine and cluster span simulators")
        self.sim = sim

    def arm(self) -> int:
        """Schedule every applicable spec; returns how many were armed."""
        armed = 0
        for spec in self.plan.specs:
            if spec.site == SITE_SIM_DISK_SLOW and self.machine is not None:
                self._arm_disk_slow(spec)
            elif spec.site == SITE_SIM_DISK_FAIL and self.machine is not None:
                self._arm_disk_fail(spec)
            elif spec.site == SITE_SIM_DATANODE_LOSS and self.cluster is not None:
                self._arm_datanode_loss(spec)
            elif spec.site == SITE_SIM_NET_FLAP and self.cluster is not None:
                self._arm_net_flap(spec)
            else:
                continue
            armed += 1
        return armed

    # -- individual fault shapes -------------------------------------------

    def _arm_disk_slow(self, spec: FaultSpec) -> None:
        disk = self.machine.disk
        factor = spec.factor if spec.factor is not None else 0.25
        at = spec.at_s or 0.0

        def strike() -> None:
            disk.degrade(factor)
            self.log.record(
                spec.site, ACTION_INJECTED,
                f"disk slowed to {factor:g}x at t={self.sim.now:g}s",
            )

        def restore() -> None:
            disk.restore()
            self.log.record(
                spec.site, ACTION_RECOVERED,
                f"disk bandwidth restored at t={self.sim.now:g}s",
            )

        self.sim.call_at(at, strike)
        if spec.duration_s is not None:
            self.sim.call_at(at + spec.duration_s, restore)

    def _arm_disk_fail(self, spec: FaultSpec) -> None:
        disk = self.machine.disk
        at = spec.at_s or 0.0

        def strike() -> None:
            try:
                survivors = disk.fail_member()
            except SimulationError as exc:
                # Degraded mode draws the line at the last spindle.
                self.log.record(spec.site, ACTION_DEGRADED, f"refused: {exc}")
                return
            self.log.record(
                spec.site, ACTION_INJECTED,
                f"disk member lost at t={self.sim.now:g}s; "
                f"{survivors} spindle(s) carry the load",
            )
            self.log.record(
                spec.site, ACTION_DEGRADED,
                f"array bandwidth now {disk.read_bw:g} B/s",
            )

        self.sim.call_at(at, strike)

    def _arm_datanode_loss(self, spec: FaultSpec) -> None:
        cluster = self.cluster
        losses = spec.max_fires if spec.max_fires is not None else 1
        interval = spec.duration_s if spec.duration_s is not None else 0.0
        at = spec.at_s or 0.0

        def strike() -> None:
            try:
                lost = cluster.fail_datanode(spec.target)
            except SimulationError as exc:
                # Degraded mode draws the line at the last survivor.
                self.log.record(spec.site, ACTION_DEGRADED, f"refused: {exc}")
                return
            self.log.record(
                spec.site, ACTION_INJECTED,
                f"datanode dn{lost} lost at t={self.sim.now:g}s",
            )
            self.log.record(
                spec.site, ACTION_DEGRADED,
                f"reads rebalanced across {cluster.surviving} surviving "
                "datanode(s)",
            )

        for i in range(max(1, losses)):
            self.sim.call_at(at + i * interval, strike)

    def _arm_net_flap(self, spec: FaultSpec) -> None:
        link = self.cluster.link
        factor = spec.factor if spec.factor is not None else DEFAULT_FLAP_FACTOR
        at = spec.at_s or 0.0
        duration = spec.duration_s if spec.duration_s is not None else 1.0

        def strike() -> None:
            link.degrade(factor)
            self.log.record(
                spec.site, ACTION_INJECTED,
                f"link flapped to {factor:g}x at t={self.sim.now:g}s",
            )

        def restore() -> None:
            link.restore()
            self.log.record(
                spec.site, ACTION_RECOVERED,
                f"link restored at t={self.sim.now:g}s",
            )

        self.sim.call_at(at, strike)
        self.sim.call_at(at + duration, restore)
