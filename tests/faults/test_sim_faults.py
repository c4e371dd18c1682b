"""Simulated-hardware faults: degradation, rebalancing, speculation."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.faults.log import FaultLog
from repro.faults.plan import (
    SITE_SIM_DATANODE_LOSS,
    SITE_SIM_DISK_FAIL,
    SITE_SIM_DISK_SLOW,
    SITE_SIM_NET_FLAP,
    SITE_SIM_STRAGGLER,
    FaultPlan,
    FaultSpec,
)
from repro.faults.policy import RecoveryPolicy
from repro.faults.simdriver import SimFaultDriver
from repro.simhw.events import Simulator
from repro.simhw.hdfs import HdfsCluster, HdfsSpec
from repro.simhw.machine import paper_machine
from repro.simrt.costmodel import GB_SI, PAPER_WORDCOUNT
from repro.simrt.hdfs_case import simulate_hdfs_case_study
from repro.simrt.supmr_sim import simulate_supmr_job

WC = 10 * GB_SI
INTERVAL = 10.0


def _run(fault_plan=None, recovery=None, **kw):
    return simulate_supmr_job(
        PAPER_WORDCOUNT, WC, 1 * GB_SI, monitor_interval=INTERVAL,
        fault_plan=fault_plan, recovery=recovery, **kw,
    )


class TestDiskFaults:
    def test_disk_slowdown_lengthens_job_then_restores(self):
        clean = _run()
        plan = FaultPlan(seed=0, specs=(
            FaultSpec(site=SITE_SIM_DISK_SLOW, at_s=2.0,
                      duration_s=10.0, factor=0.25),
        ))
        slowed = _run(fault_plan=plan)
        log = slowed.extras["fault_log"]
        assert log.count("injected", site=SITE_SIM_DISK_SLOW) == 1
        assert log.count("recovered", site=SITE_SIM_DISK_SLOW) == 1
        assert slowed.timings.total_s > clean.timings.total_s

    def test_member_loss_keeps_a_slowdown_in_progress(self):
        slow = FaultSpec(site=SITE_SIM_DISK_SLOW, at_s=2.0,
                         duration_s=100.0, factor=0.25)
        fail = FaultSpec(site=SITE_SIM_DISK_FAIL, at_s=5.0)
        clean = _run()
        failed = _run(fault_plan=FaultPlan(seed=0, specs=(fail,)))
        slowed = _run(fault_plan=FaultPlan(seed=0, specs=(slow,)))
        both = _run(fault_plan=FaultPlan(seed=0, specs=(slow, fail)))
        log = both.extras["fault_log"]
        assert log.count("injected", site=SITE_SIM_DISK_FAIL) == 1
        assert log.count("degraded", site=SITE_SIM_DISK_FAIL) == 1
        assert failed.timings.total_s > clean.timings.total_s
        # Losing a spindle under a slowdown can only make it worse.
        assert both.timings.total_s >= slowed.timings.total_s

    def test_restore_after_member_loss_is_the_survivors_bandwidth(self):
        machine = paper_machine(Simulator())
        disk = machine.disk
        per_spindle = disk.read_bw / len(disk.disks)
        disk.degrade(0.25)
        disk.fail_member()
        assert disk._read_chan.total_rate == pytest.approx(per_spindle * 2 * 0.25)
        disk.fail_member()
        disk.restore()
        assert disk._read_chan.total_rate == pytest.approx(per_spindle)

    def test_last_spindle_is_refused_not_fatal(self):
        machine = paper_machine(Simulator(), monitor_interval=INTERVAL,
                                data_disks=1)
        plan = FaultPlan(seed=0, specs=(
            FaultSpec(site=SITE_SIM_DISK_FAIL, at_s=5.0),
        ))
        result = _run(fault_plan=plan, machine=machine)
        log = result.extras["fault_log"]
        assert log.count("injected", site=SITE_SIM_DISK_FAIL) == 0
        refusals = [
            e for e in log.events
            if e.site == SITE_SIM_DISK_FAIL and e.action == "degraded"
            and e.detail.startswith("refused")
        ]
        assert len(refusals) == 1
        assert machine.disk.read_bw == machine.spec.disk_read_bw


class TestDatanodeLoss:
    def _cluster(self, nodes=4):
        sim = Simulator()
        cluster = HdfsCluster(sim, HdfsSpec(nodes=nodes))
        return sim, cluster

    def test_loss_rebalances_reads_across_survivors(self):
        sim, cluster = self._cluster(nodes=4)
        plan = FaultPlan(seed=0, specs=(
            FaultSpec(site=SITE_SIM_DATANODE_LOSS, at_s=0.0,
                      max_fires=2, duration_s=1.0),
        ))
        log = FaultLog(clock=lambda: sim.now)
        SimFaultDriver(plan, log, cluster=cluster).arm()
        sim.run()
        assert cluster.surviving == 2
        assert log.count("injected", site=SITE_SIM_DATANODE_LOSS) == 2
        assert log.count("degraded", site=SITE_SIM_DATANODE_LOSS) == 2
        # aggregate read bandwidth shrank with the dead nodes
        assert cluster.aggregate_disk_bw == pytest.approx(
            2 * cluster.spec.node_disk_bw
        )
        # the block-placement cursor only lands on surviving nodes
        for _ in range(8):
            assert cluster._next_alive().name not in ("dn0", "dn1")

    def test_last_survivor_is_refused(self):
        sim, cluster = self._cluster(nodes=2)
        cluster.fail_datanode(0)
        with pytest.raises(SimulationError):
            cluster.fail_datanode(1)
        assert cluster.surviving == 1

    def test_driver_logs_refusal_as_degraded(self):
        sim, cluster = self._cluster(nodes=2)
        plan = FaultPlan(seed=0, specs=(
            FaultSpec(site=SITE_SIM_DATANODE_LOSS, at_s=0.0,
                      max_fires=3, duration_s=1.0),
        ))
        log = FaultLog(clock=lambda: sim.now)
        SimFaultDriver(plan, log, cluster=cluster).arm()
        sim.run()
        assert cluster.surviving == 1
        assert log.count("injected", site=SITE_SIM_DATANODE_LOSS) == 1
        refusals = [
            e for e in log.events
            if e.action == "degraded" and e.detail.startswith("refused")
        ]
        assert len(refusals) == 2

    def test_case_study_runs_degraded_end_to_end(self):
        plan = FaultPlan(seed=0, specs=(
            FaultSpec(site=SITE_SIM_DATANODE_LOSS, at_s=1.0,
                      max_fires=3, duration_s=2.0),
            FaultSpec(site=SITE_SIM_NET_FLAP, at_s=10.0,
                      duration_s=5.0, factor=0.1),
        ))
        result = simulate_hdfs_case_study(
            input_bytes=3e9, chunk_bytes=1e9, monitor_interval=INTERVAL,
            fault_plan=plan,
        )
        for log in (result.baseline_cluster_log, result.supmr_cluster_log):
            assert log is not None
            assert log.count("injected", site=SITE_SIM_DATANODE_LOSS) == 3
            assert log.count("injected", site=SITE_SIM_NET_FLAP) == 1
            assert log.count("recovered", site=SITE_SIM_NET_FLAP) == 1
        # both runs still complete, just slower than the fault-free pair
        clean = simulate_hdfs_case_study(
            input_bytes=3e9, chunk_bytes=1e9, monitor_interval=INTERVAL,
        )
        assert result.baseline.timings.total_s >= clean.baseline.timings.total_s
        assert result.supmr.timings.total_s >= clean.supmr.timings.total_s


class TestStragglers:
    def _plan(self):
        return FaultPlan(seed=0, specs=(
            FaultSpec(site=SITE_SIM_STRAGGLER, once_per_scope=True,
                      max_fires=1, factor=4.0),
        ))

    def test_speculation_caps_straggler_cost(self):
        # the ablation (unpipelined) rounds put map time on the critical
        # path; with overlap a straggler can hide under the next ingest
        clean = _run(pipelined=False)
        speculative = _run(
            pipelined=False,
            fault_plan=self._plan(),
            recovery=RecoveryPolicy(speculative=True, straggler_threshold=1.5),
        )
        plodding = _run(
            pipelined=False,
            fault_plan=self._plan(),
            recovery=RecoveryPolicy(speculative=False),
        )
        assert clean.timings.total_s < speculative.timings.total_s
        assert speculative.timings.total_s < plodding.timings.total_s
        log = speculative.extras["fault_log"]
        assert log.count("speculative", site=SITE_SIM_STRAGGLER) == 1
        assert plodding.extras["fault_log"].count("speculative") == 0
