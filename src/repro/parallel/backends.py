"""Execution backends: how map/reduce/merge tasks actually run.

CPython's GIL means the repo's original ``ThreadPoolExecutor`` waves are
concurrent but not *parallel* for CPU-bound phases — the direct analog of
the bandwidth bottleneck SupMR circumvents, one layer down.  This module
names the three disciplines and builds their parent-side pools.  Every
backend runs the same map task — a private container, drained into a
delta the round thread absorbs in task order — so they differ only in
who runs it:

* ``serial`` — inline on the calling thread, one task at a time as the
  wave takes its delta.  Zero overhead; the reference for equivalence
  tests.
* ``thread`` — the historical default: a ``ThreadPoolExecutor``.  Real
  overlap for I/O (file reads release the GIL), fake overlap for
  CPU-bound map work.
* ``process`` — genuine multicore via forked workers
  (:mod:`repro.resilience.supervisor`): map tasks read their input splits
  through ``mmap`` in the worker (zero-copy ingest) and return their
  deltas over a transport.

The parent-side pool built here runs every backend's reduce phase (the
partitions are already in the parent) and the serial / thread map waves;
the process backend's map waves go to forked workers instead (they
inherit the job and its closures by fork, so nothing needs to be
picklable except results), so its ``make_pool`` entry is an inert
:class:`SerialExecutor`.
"""

from __future__ import annotations

import enum
import multiprocessing
from concurrent.futures import Executor, Future, ThreadPoolExecutor

from repro.errors import ConfigError


class ExecutorBackend(enum.Enum):
    """Which execution engine runs mapper/reducer/merge tasks."""

    #: Inline on the calling thread (deterministic reference).
    SERIAL = "serial"
    #: ``ThreadPoolExecutor`` — concurrency without CPU parallelism.
    THREAD = "thread"
    #: Forked worker processes — real multicore, zero-copy ingest.
    PROCESS = "process"


def resolve_backend(value: "ExecutorBackend | str") -> ExecutorBackend:
    """``value`` as an :class:`ExecutorBackend` (accepts the CLI strings)."""
    if isinstance(value, ExecutorBackend):
        return value
    try:
        return ExecutorBackend(str(value).lower())
    except ValueError:
        raise ConfigError(
            f"unknown executor backend {value!r}; choose one of "
            + ", ".join(b.value for b in ExecutorBackend)
        ) from None


def fork_available() -> bool:
    """True when the platform can fork worker processes (POSIX)."""
    return "fork" in multiprocessing.get_all_start_methods()


def require_process_backend() -> None:
    """Raise :class:`~repro.errors.ConfigError` where fork is missing.

    The process backend inherits the job (including closures) by fork —
    a spawn-based pool would need every callback picklable, which the
    Phoenix++-style API deliberately does not require.  Platforms
    without fork (Windows) must use ``thread`` or ``serial``.
    """
    if not fork_available():
        raise ConfigError(
            "the 'process' executor backend requires os.fork (POSIX); "
            "use --backend thread or serial on this platform"
        )


class SerialExecutor(Executor):
    """`concurrent.futures` executor that runs everything inline.

    ``submit`` executes immediately on the calling thread and returns an
    already-resolved future, and ``map`` runs each call as its result is
    taken, so code written against the executor protocol (mapper waves,
    reducers) runs serially without a second code path — and a mapper
    wave holds one task's delta at a time.
    """

    def submit(self, fn, /, *args, **kwargs) -> Future:
        """Run ``fn`` now, inline; the returned future is already done."""
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # noqa: BLE001 - parked on the future
            future.set_exception(exc)
        return future

    def map(self, fn, *iterables, timeout=None, chunksize=1):
        """``fn`` over ``iterables``, lazily: nothing runs before its
        result is taken."""
        return map(fn, *iterables)


def make_pool(
    backend: "ExecutorBackend | str", max_workers: int
) -> Executor:
    """The parent-side pool for ``backend`` (use as a context manager).

    ``thread`` gets a real :class:`ThreadPoolExecutor`; ``serial`` and
    ``process`` get a :class:`SerialExecutor` — the process backend's
    parallelism is its forked map workers, so what runs on the parent
    pool (reduce, the pipeline bookkeeping) must not multiply threads
    under it.
    """
    backend = resolve_backend(backend)
    if backend is ExecutorBackend.THREAD:
        return ThreadPoolExecutor(max_workers=max_workers)
    if backend is ExecutorBackend.PROCESS:
        require_process_backend()
    return SerialExecutor()
