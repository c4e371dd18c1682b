"""Fork-based task fan-out: real multicore without a picklable API.

The Phoenix++-style job contract is built on closures (``make_sort_job``
and friends capture their codec in ``map_fn``), so a conventional
``ProcessPoolExecutor`` — which pickles the callable — cannot run it.
:func:`fork_map` sidesteps pickling entirely: the workers are **forked
at call time**, so the function, the job, and any input buffers are
inherited copy-on-write; only *results* cross a pipe back to the
parent, through a :mod:`repro.xfer` transport.

It is one supervised wave of a fresh
:class:`~repro.resilience.supervisor.WorkerPool`, closed however the
wave ends: a worker death is retried like in any supervised wave, and
only a task that keeps killing its worker raises
:class:`~repro.errors.ParallelError`.
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

from repro.xfer.transport import PipeTransport, ShmTransport

T = TypeVar("T")
R = TypeVar("R")


def fork_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    workers: int,
    transport: "PipeTransport | ShmTransport | None" = None,
) -> list[R]:
    """Run ``fn`` over ``items`` in forked worker processes.

    Returns results in item order.  ``fn``, ``items``, and everything
    they close over are inherited by fork (never pickled); each result
    crosses back once through ``transport`` (default: the pipe codec).
    Raises the lowest-index item's exception after the whole wave has
    reported, or :class:`~repro.errors.ParallelError` naming the worker
    and its exit code once a task has killed its worker past the
    default :class:`~repro.faults.policy.RecoveryPolicy` retries.
    """
    # Imported here: the supervisor imports repro.parallel.backends,
    # and this module loads with the repro.parallel package.
    from repro.resilience.supervisor import WorkerPool

    items = list(items)
    pool = WorkerPool(lambda i: fn(items[i]), workers, transport=transport)
    try:
        return pool.run_wave(range(len(items))).results
    finally:
        pool.close()
