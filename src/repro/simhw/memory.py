"""Main-memory model: capacity accounting plus a shared memory bus.

Two concerns, matching the paper's "memory bandwidth bottleneck" framing:

* **Capacity** — scale-up MapReduce holds the whole input plus the
  intermediate container in RAM (384 GB on the testbed).  Allocations are
  tracked and overcommit raises, because a run that would have swapped is
  a different experiment, not a slower one.
* **Bandwidth** — merge-phase key scans stream through the memory bus.
  Each scanning thread is capped at a per-thread rate (calibrated in the
  cost model) while the bus enforces an aggregate ceiling; this is what
  produces the step-down utilization curve of iterative 2-way merging
  (fewer threads each round => lower aggregate scan rate).
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.simhw.events import SimEvent, Simulator
from repro.simhw.resources import BandwidthResource


class MemoryBus:
    """RAM with a fluid-flow bus and strict capacity accounting."""

    def __init__(
        self,
        sim: Simulator,
        capacity_bytes: float,
        bus_bw: float,
        name: str = "mem",
    ) -> None:
        if capacity_bytes <= 0:
            raise SimulationError(f"{name}: capacity must be positive")
        self.sim = sim
        self.name = name
        self.capacity_bytes = float(capacity_bytes)
        self._chan = BandwidthResource(sim, bus_bw, name=f"{name}.bus")
        self._allocated = 0.0
        self.peak_allocated = 0.0

    # -- capacity ---------------------------------------------------------

    @property
    def allocated(self) -> float:
        return self._allocated

    @property
    def available(self) -> float:
        return self.capacity_bytes - self._allocated

    def allocate(self, nbytes: float) -> None:
        """Claim ``nbytes`` of RAM; raises on overcommit."""
        if nbytes < 0:
            raise SimulationError(f"{self.name}: negative allocation")
        if self._allocated + nbytes > self.capacity_bytes:
            raise SimulationError(
                f"{self.name}: out of memory — requested {nbytes:.3e} B with "
                f"{self.available:.3e} B free of {self.capacity_bytes:.3e} B"
            )
        self._allocated += nbytes
        self.peak_allocated = max(self.peak_allocated, self._allocated)

    def free(self, nbytes: float) -> None:
        """Return ``nbytes`` of RAM."""
        if nbytes < 0 or nbytes > self._allocated + 1e-6:
            raise SimulationError(
                f"{self.name}: freeing {nbytes:.3e} B but only "
                f"{self._allocated:.3e} B allocated"
            )
        self._allocated = max(0.0, self._allocated - nbytes)

    # -- bandwidth ---------------------------------------------------------

    def scan(self, nbytes: float, per_thread_bw: float) -> SimEvent:
        """Stream ``nbytes`` through the bus at most ``per_thread_bw`` B/s."""
        if per_thread_bw <= 0:
            raise SimulationError(f"{self.name}: per-thread bandwidth must be positive")
        return self._chan.transfer(nbytes, cap=per_thread_bw, tag="scan")

    @property
    def active_scans(self) -> int:
        return self._chan.active_flows
