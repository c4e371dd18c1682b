"""Exception hierarchy for the SupMR reproduction.

All library-raised errors derive from :class:`ReproError` so callers can
catch one base class at API boundaries without swallowing interpreter
errors (``TypeError`` etc. still propagate for genuine programming bugs).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ReproError):
    """A runtime/machine/workload configuration is invalid."""


class ChunkingError(ReproError):
    """Ingest-chunk planning or boundary adjustment failed."""


class ContainerError(ReproError):
    """Misuse of an intermediate key-value container."""


class RuntimeStateError(ReproError):
    """A runtime was driven through an invalid state transition."""


class DeadlineExceeded(RuntimeStateError):
    """A whole-job deadline (``RuntimeOptions.job_deadline_s``) expired.

    Raised internally to stop admitting new work; the runtimes catch it
    and return the partial result with a ``degraded`` marker rather than
    letting it propagate.
    """


class CheckpointError(ReproError):
    """A job journal could not be read, written, or matched to the job.

    Raised on fingerprint mismatches (resuming a checkpoint that was
    written by a *different* job or option set) and on structurally
    invalid journal files whose corruption cannot be safely ignored.
    """


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class WorkloadError(ReproError):
    """A data generator or record codec was asked for something invalid."""


class ExperimentError(ReproError):
    """An experiment harness was configured or run incorrectly."""


class SpillError(ReproError):
    """The out-of-core spill subsystem hit an invalid state or a bad run
    file (truncated, corrupted, or misframed)."""


class ParallelError(ReproError):
    """The process-backed execution engine (:mod:`repro.parallel`) could
    not run: fork unavailable, a worker died without reporting a result,
    or a worker's failure could not be transported back."""


class ServiceError(ReproError):
    """Base class for the long-lived job service (:mod:`repro.service`):
    daemon, framed transport, and client failures."""


class ProtocolError(ServiceError):
    """A transport frame violated the wire protocol.

    Carries a ``reason`` tag (``truncated`` | ``bad-magic`` | ``bad-crc``
    | ``version`` | ``oversize`` | ``bad-payload`` | ``stalled``) so
    tests and retry logic can branch on *how* the frame was bad, not
    just that it was.
    """

    def __init__(self, message: str, reason: str = "") -> None:
        super().__init__(message)
        self.reason = reason


class AdmissionError(ServiceError):
    """The service refused to admit a submitted job.

    ``code`` is the typed rejection class (``queue-full`` |
    ``budget-exceeded`` | ``draining``) — over-admission is answered
    with this error instead of unbounded queuing.
    """

    def __init__(self, message: str, code: str = "") -> None:
        super().__init__(message)
        self.code = code


class JobNotFound(ServiceError):
    """A status/result/cancel request named a job the service does not
    know (never submitted, or already garbage-collected)."""


class NetError(ServiceError):
    """Base class for the multi-host transport (:mod:`repro.net`):
    agent links, remote worker dispatch, and the remote run exchange."""


class PeerUnreachable(NetError):
    """A configured peer could not be reached.

    At coordinator startup this is a usage error (the ``--peers`` list
    names a host that is not running an agent — exit code 2); mid-job it
    is handled internally by the degradation ladder (local respawn or
    full local fallback) and never escapes to the caller.
    """

    def __init__(self, message: str, peer: str = "") -> None:
        super().__init__(message)
        self.peer = peer


class FaultError(ReproError):
    """Base class for the fault-injection and recovery subsystem
    (:mod:`repro.faults`)."""


class FaultInjected(FaultError):
    """A fault armed by a :class:`~repro.faults.plan.FaultPlan` fired.

    Carries the site name so recovery wrappers and tests can tell an
    injected fault from an organic one.
    """

    def __init__(self, message: str, site: str = "") -> None:
        super().__init__(message)
        self.site = site


class RetryExhausted(FaultError):
    """A recovery retry loop used up its budget without succeeding.

    Always raised ``from`` the last underlying failure, so the original
    cause stays on the exception chain (``__cause__``).
    """

    def __init__(self, message: str, site: str = "", attempts: int = 0) -> None:
        super().__init__(message)
        self.site = site
        self.attempts = attempts


class QuarantineOverflow(FaultError):
    """More records were quarantined than the skip budget allows."""

    def __init__(self, message: str, site: str = "", quarantined: int = 0) -> None:
        super().__init__(message)
        self.site = site
        self.quarantined = quarantined
