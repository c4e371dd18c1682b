"""Disk and RAID-0 models.

A :class:`Disk` is a fluid-flow bandwidth channel; :class:`Raid0` stripes
across member disks, so its aggregate sequential bandwidth is the sum of
the members' and — because stripes interleave — a *single* sequential
stream can saturate the whole array.  The paper's testbed reports a 3-HDD
RAID-0 sustaining 384 MB/s reads, i.e. 128 MB/s per spindle.

Concurrent streams share the array fluidly; this is what makes the ingest
phase a *bottleneck* rather than a fixed cost: an ingest thread reading
chunk ``i+1`` while nothing else touches the disk gets the full 384 MB/s.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.qos.allocator import make_allocator
from repro.simhw.events import SimEvent, Simulator
from repro.simhw.resources import BandwidthResource

MB = 1024 * 1024
GB = 1024 * MB


class Disk:
    """A single spindle with symmetric sequential bandwidth.

    ``qos_policy`` selects the contention model for concurrent streams
    (a :data:`repro.qos.allocator.POLICIES` name); the default
    ``max-min`` water-filling is the paper's processor-sharing model.
    """

    def __init__(
        self,
        sim: Simulator,
        read_bw: float,
        write_bw: float | None = None,
        name: str = "hdd",
        qos_policy: str = "max-min",
    ) -> None:
        if read_bw <= 0:
            raise SimulationError(f"{name}: read bandwidth must be positive")
        self.sim = sim
        self.name = name
        self.qos_policy = qos_policy
        self.read_bw = float(read_bw)
        self.write_bw = float(write_bw if write_bw is not None else read_bw)
        self._read_chan = BandwidthResource(
            sim, self.read_bw, name=f"{name}.rd",
            allocator=make_allocator(qos_policy, self.read_bw),
        )
        self._write_chan = BandwidthResource(
            sim, self.write_bw, name=f"{name}.wr",
            allocator=make_allocator(qos_policy, self.write_bw),
        )

    def read(self, nbytes: float, priority: int = 0) -> SimEvent:
        """Transfer ``nbytes`` off the spindle (shared fluidly)."""
        return self._read_chan.transfer(nbytes, tag="read", priority=priority)

    def write(self, nbytes: float, priority: int = 0) -> SimEvent:
        """Transfer ``nbytes`` onto the spindle."""
        return self._write_chan.transfer(
            nbytes, tag="write", priority=priority
        )

    @property
    def read_utilization(self) -> float:
        return self._read_chan.utilization

    @property
    def write_utilization(self) -> float:
        return self._write_chan.utilization

    @property
    def active_reads(self) -> int:
        return self._read_chan.active_flows

    @property
    def active_writes(self) -> int:
        return self._write_chan.active_flows


class Raid0:
    """Striped array: aggregate bandwidth, shared fluidly among streams."""

    def __init__(
        self,
        disks: list[Disk],
        name: str = "raid0",
        qos_policy: str = "max-min",
    ) -> None:
        if not disks:
            raise SimulationError(f"{name}: need at least one member disk")
        sims = {d.sim for d in disks}
        if len(sims) != 1:
            raise SimulationError(f"{name}: member disks span simulators")
        self.sim = disks[0].sim
        self.disks = disks
        self.name = name
        self.qos_policy = qos_policy
        self.read_bw = sum(d.read_bw for d in disks)
        self.write_bw = sum(d.write_bw for d in disks)
        self._alive = len(disks)
        self._factor = 1.0
        # Striping interleaves every stream across all members, so the
        # array behaves as one channel with the summed rate.
        self._read_chan = BandwidthResource(
            self.sim, self.read_bw, name=f"{name}.rd",
            allocator=make_allocator(qos_policy, self.read_bw),
        )
        self._write_chan = BandwidthResource(
            self.sim, self.write_bw, name=f"{name}.wr",
            allocator=make_allocator(qos_policy, self.write_bw),
        )

    def read(self, nbytes: float, priority: int = 0) -> SimEvent:
        """Read ``nbytes`` across the stripe set."""
        return self._read_chan.transfer(nbytes, tag="read", priority=priority)

    def write(self, nbytes: float, priority: int = 0) -> SimEvent:
        """Write ``nbytes`` across the stripe set."""
        return self._write_chan.transfer(
            nbytes, tag="write", priority=priority
        )

    def degrade(self, factor: float) -> None:
        """Scale the array's channels to ``factor`` of its bandwidth.

        The factor holds until :meth:`restore`, across member losses.
        """
        if factor <= 0:
            raise SimulationError(f"{self.name}: degrade factor must be > 0")
        self._factor = factor
        self._apply_rates()

    def restore(self) -> None:
        """Return the array to its full (alive-member) bandwidth."""
        self._factor = 1.0
        self._apply_rates()

    def _apply_rates(self) -> None:
        self._read_chan.set_rate(self.read_bw * self._factor)
        self._write_chan.set_rate(self.write_bw * self._factor)

    def fail_member(self) -> int:
        """Lose one spindle; returns how many survive.

        RAID-0 has no parity, so a real member loss kills the volume —
        the model is softer on purpose: it represents the recovery mode
        of re-reading from a mirror/backup at the surviving spindles'
        aggregate rate, which is what degraded-mode experiments measure.
        A :meth:`degrade` in progress still applies to the survivors.
        """
        if self._alive <= 1:
            raise SimulationError(f"{self.name}: cannot fail the last member")
        per_disk_read = self.read_bw / self._alive
        per_disk_write = self.write_bw / self._alive
        self._alive -= 1
        self.read_bw = per_disk_read * self._alive
        self.write_bw = per_disk_write * self._alive
        self._apply_rates()
        return self._alive

    @property
    def read_utilization(self) -> float:
        return self._read_chan.utilization

    @property
    def write_utilization(self) -> float:
        return self._write_chan.utilization

    @property
    def active_reads(self) -> int:
        return self._read_chan.active_flows

    @property
    def active_writes(self) -> int:
        return self._write_chan.active_flows
