"""Recovery policy: how the runtime answers each injected (or real) fault.

One frozen dataclass covers every recovery mechanism the subsystem
implements, so a single knob on :class:`~repro.core.options.RuntimeOptions`
(and the ``--retry`` / ``--skip-budget`` CLI flags) configures them all:

* **bounded retry with exponential backoff** — transient ingest errors
  and injected map-task faults are retried up to ``max_retries`` times;
* **bad-record quarantine** — detected-corrupt records are skipped and
  logged, up to ``skip_budget`` per job (Hadoop's skip-bad-records);
* **checksum-verify-then-re-spill** — spill runs are re-read and
  re-written when their CRC does not survive the disk;
* **speculative re-execution** — the simulator launches a backup copy of
  a straggling map task once it exceeds ``straggler_threshold`` times
  the expected wall time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError, FaultInjected

#: Exception types the retry loops treat as transient by default.
#: ``OSError`` covers genuine I/O flakiness; ``FaultInjected`` covers the
#: deterministic testbed.  Application errors (TypeError, user
#: exceptions) always propagate — retrying those would mask bugs.
DEFAULT_RETRYABLE: tuple[type[BaseException], ...] = (FaultInjected, OSError)


@dataclass(frozen=True)
class RecoveryPolicy:
    """Knobs for every recovery mechanism, validated eagerly."""

    #: Retries after the first failure (0 = fail fast: the first
    #: transient fault raises :class:`~repro.errors.RetryExhausted`).
    max_retries: int = 3
    #: First backoff delay: attempt ``k`` waits an equal-jitter draw in
    #: ``[raw/2, raw)`` with ``raw = min(base * factor**k, backoff_max_s)``
    #: (:func:`repro.util.backoff.exponential_jitter`).  The default is
    #: tiny so deterministic tests stay fast; production callers raise it.
    backoff_base_s: float = 0.001
    backoff_factor: float = 2.0
    backoff_max_s: float = 0.25
    #: Quarantined records allowed per job before
    #: :class:`~repro.errors.QuarantineOverflow` aborts the run.
    skip_budget: int = 1000
    #: Re-read every spill run after writing and re-spill on checksum
    #: mismatch (only exercised when a fault plan arms ``spill.corrupt``;
    #: clean runs never pay the verify read).
    verify_spills: bool = True
    #: Simulator: launch a backup copy of straggling map tasks.
    speculative: bool = True
    #: Simulator: a task is a straggler once it runs this multiple of
    #: the expected task wall time without finishing.
    straggler_threshold: float = 1.5
    #: Supervisor: seconds a dispatched task may run without reporting a
    #: result before its lease expires and the worker is presumed hung.
    lease_timeout_s: float = 30.0
    #: Supervisor: total worker respawns allowed per supervised wave
    #: before the pool is declared unrecoverable (feeds the degradation
    #: ladder rather than respawning forever).
    worker_respawn_budget: int = 8

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ConfigError("backoff delays must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigError("backoff_factor must be >= 1.0")
        if self.skip_budget < 0:
            raise ConfigError("skip_budget must be >= 0")
        if self.straggler_threshold < 1.0:
            raise ConfigError("straggler_threshold must be >= 1.0")
        if self.lease_timeout_s <= 0:
            raise ConfigError("lease_timeout_s must be positive")
        if self.worker_respawn_budget < 0:
            raise ConfigError("worker_respawn_budget must be >= 0")
