"""Graceful degradation: the backend ladder and the whole-job deadline.

When worker supervision itself gives up — the respawn budget is spent,
or the platform's fork support is broken in a way no retry fixes — the
job is still worth finishing slower.  :func:`run_with_degradation` steps
the executor backend down one rung at a time and re-runs the job; with
a checkpoint directory configured the retry resumes from the journal
instead of starting over.  The process backend gets intermediate rungs
first: a failure under fork-based workers is often load-induced (OOM
kills, fd exhaustion), so the ladder retries the *same* backend with
the mapper count halved — repeatedly, down to a single worker — before
conceding to the thread backend (process → process/half-width → …
→ thread → serial).  Every
step-down is logged, counted in ``JobResult.counters`` (``degraded``,
``degraded_backend``, ``pool_failures``) and appended to the result's
fault log, so a degraded run is never mistaken for a healthy one.

:class:`Deadline` backs the ``--job-deadline`` knob: the runtimes check
it between pipeline rounds and stop admitting new work once it expires,
returning the partial result with an explicit ``degraded`` marker
rather than hanging past the operator's budget.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable

from repro.errors import DeadlineExceeded, ParallelError
from repro.faults.log import ACTION_DEGRADED, FaultLog
from repro.parallel.backends import ExecutorBackend
from repro.util.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.job import JobSpec
    from repro.core.options import RuntimeOptions
    from repro.core.result import JobResult

logger = get_logger(__name__)

#: Pseudo-site used for degradation events in the fault log.
SITE_POOL = "executor.pool"


class Deadline:
    """A monotonic whole-job deadline; inert when ``seconds`` is None."""

    def __init__(self, seconds: float | None) -> None:
        self.seconds = seconds
        self._expiry = (
            time.monotonic() + seconds if seconds is not None else None
        )

    def expired(self) -> bool:
        """True once the deadline has passed (never, when unset)."""
        return self._expiry is not None and time.monotonic() > self._expiry

    def check(self, what: str) -> None:
        """Raise :class:`~repro.errors.DeadlineExceeded` once expired."""
        if self.expired():
            raise DeadlineExceeded(
                f"job deadline of {self.seconds:.3g}s expired before {what}"
            )


def next_backend(backend: ExecutorBackend) -> ExecutorBackend | None:
    """The next rung down the ladder, or None at the bottom."""
    if backend is ExecutorBackend.PROCESS:
        return ExecutorBackend.THREAD
    if backend is ExecutorBackend.THREAD:
        return ExecutorBackend.SERIAL
    return None


def next_rung(options: "RuntimeOptions") -> "RuntimeOptions | None":
    """The option set for the next ladder rung, or None at the bottom.

    Process-backend failures first retry the process backend with the
    mapper count halved (load-induced failures — OOM kills, fd
    exhaustion — often clear at lower parallelism) until a single
    worker remains; only then does the ladder change backend.
    """
    if (
        options.executor_backend is ExecutorBackend.PROCESS
        and options.num_mappers > 1
    ):
        return options.with_(num_mappers=options.num_mappers // 2)
    fallback = next_backend(options.executor_backend)
    if fallback is None:
        return None
    return options.with_(executor_backend=fallback)


def run_with_degradation(
    run_once: "Callable[[JobSpec, RuntimeOptions], JobResult]",
    job: "JobSpec",
    options: "RuntimeOptions",
) -> "JobResult":
    """Run a job, stepping the backend down on unrecoverable pool failure.

    ``run_once`` is one full runtime execution under explicit options.
    A :class:`~repro.errors.ParallelError` — the supervisor's "I give
    up" signal — triggers a retry on the next rung (process-backend
    failures first retry at half the mapper count, see
    :func:`next_rung`); with a checkpoint directory the retry resumes
    from the journal, so rounds that finished under the failed rung are
    not recomputed.  Any other exception propagates untouched.
    """
    attempts: list[tuple[str, str]] = []
    current = options
    while True:
        try:
            result = run_once(job, current)
        except ParallelError as exc:
            fallback = next_rung(current)
            if fallback is None:
                raise
            if fallback.executor_backend is current.executor_backend:
                step = (
                    f"halved the {current.executor_backend.value} pool: "
                    f"{current.num_mappers} -> {fallback.num_mappers} "
                    f"worker(s)"
                )
            else:
                step = (
                    f"stepped down from the "
                    f"{current.executor_backend.value} backend"
                )
            attempts.append((step, str(exc)))
            logger.warning(
                "pool failure on the %s backend with %d worker(s) (%s); "
                "retrying on %s with %d worker(s)",
                current.executor_backend.value, current.num_mappers, exc,
                fallback.executor_backend.value, fallback.num_mappers,
            )
            if current.checkpoint_dir is not None:
                fallback = fallback.with_(resume=True)
            current = fallback
            continue
        if attempts:
            result.counters["degraded"] = True
            result.counters["degraded_backend"] = (
                current.executor_backend.value
            )
            result.counters["degraded_workers"] = current.num_mappers
            result.counters["pool_failures"] = len(attempts)
            if result.fault_log is None:
                result.fault_log = FaultLog()
            for step, detail in attempts:
                result.fault_log.record(
                    SITE_POOL, ACTION_DEGRADED, f"{step}: {detail}",
                )
        return result
