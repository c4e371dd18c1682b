"""``repro.cluster``: the job service's self-healing agent pool.

Glues three existing layers together: the ``supmr agent`` daemons of
:mod:`repro.net`, the long-lived job service of :mod:`repro.service`,
and the QoS allocator of :mod:`repro.qos`.  The registry tracks every
known agent, actively health-checks it between jobs, and hands the
scheduler healthy, load-ordered placements; the health module is the
per-agent ``healthy → suspect → quarantined`` state machine with
flap damping and jittered quarantine backoff.
"""

from repro.cluster.health import (
    HEALTH_STATES,
    STATE_HEALTHY,
    STATE_QUARANTINED,
    STATE_SUSPECT,
    AgentHealth,
)
from repro.cluster.registry import AgentRecord, AgentRegistry

__all__ = [
    "AgentHealth",
    "AgentRecord",
    "AgentRegistry",
    "HEALTH_STATES",
    "STATE_HEALTHY",
    "STATE_QUARANTINED",
    "STATE_SUSPECT",
]
