"""Long-lived multi-job daemon (``repro.service``).

The paper argues one scale-up box replaces a cluster for most MapReduce
jobs — but a production box serves *many* jobs from many users, not one
CLI invocation at a time.  This package wraps the existing runtimes
(:class:`~repro.core.supmr.SupMRRuntime`,
:class:`~repro.core.phoenix.PhoenixRuntime`,
:class:`~repro.shard.ShardedRuntime`) in a persistent daemon:

* :mod:`repro.service.protocol` — length-prefixed, CRC-framed JSON and
  binary messages over TCP, versioned;
* :mod:`repro.service.server` — an ``asyncio`` daemon with a
  FIFO+priority job queue, admission control, per-job checkpoint dirs
  (every submitted job is crash-resumable), and graceful SIGTERM drain:
  the shell around the next two;
* :mod:`repro.service.core` — the daemon's decisions (admission, the
  dispatch-time bandwidth share, what becomes of a job whose attempt
  ended) as pure functions, testable without a daemon;
* :mod:`repro.service.zygote` — the daemon's end of the runner zygote:
  spawn requests out; pids, wait statuses and rusage back; signals;
* :mod:`repro.service.runner` — the pre-imported zygote the daemon
  execs once, and the per-attempt runner forked from it that actually
  executes a job, crash-isolated from the daemon;
* :mod:`repro.service.client` + :mod:`repro.service.jobspec` — a typed
  blocking client and a serializable job spec that round-trips every
  one-shot CLI knob;
* :mod:`repro.service.cli` — ``serve`` / ``submit`` / ``status`` /
  ``result`` / ``cancel`` / ``shutdown`` subcommand implementations.
"""

from repro.service.client import ServiceClient
from repro.service.jobspec import ServiceJobSpec
from repro.service.protocol import PROTOCOL_VERSION, decode_frame, encode_frame
from repro.service.state import (
    STATE_CANCELLED,
    STATE_DONE,
    STATE_FAILED,
    STATE_QUEUED,
    STATE_RUNNING,
    JobRecord,
    ServiceState,
)

__all__ = [
    "ServiceClient",
    "ServiceJobSpec",
    "ServiceState",
    "JobRecord",
    "PROTOCOL_VERSION",
    "encode_frame",
    "decode_frame",
    "STATE_QUEUED",
    "STATE_RUNNING",
    "STATE_DONE",
    "STATE_FAILED",
    "STATE_CANCELLED",
]
