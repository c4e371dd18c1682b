"""Process-backed execution engine: real multicore for the runtimes.

The package splits into three small layers:

* :mod:`repro.parallel.backends` — the backend vocabulary
  (``serial`` / ``thread`` / ``process``) and parent-side pool factory.
* :mod:`repro.parallel.fork_pool` — fork-at-call-time task fan-out (one
  supervised wave) that inherits jobs and buffers copy-on-write instead
  of pickling them.
* :mod:`repro.parallel.splits` — ``(path, offset, length)`` split
  descriptors so workers mmap their own input (zero-copy ingest).
"""

from repro.parallel.backends import (
    ExecutorBackend,
    SerialExecutor,
    fork_available,
    make_pool,
    require_process_backend,
    resolve_backend,
)
from repro.parallel.fork_pool import fork_map
from repro.parallel.splits import ChunkHandle, SplitRef, split_refs_for_chunk

__all__ = [
    "ChunkHandle",
    "ExecutorBackend",
    "SerialExecutor",
    "SplitRef",
    "fork_available",
    "fork_map",
    "make_pool",
    "require_process_backend",
    "resolve_backend",
    "split_refs_for_chunk",
]
