"""Fault-tolerant distributed sharding (``repro.shard``).

Scales one SupMR job *out* across supervised worker process groups
while keeping the paper's scale-up execution model inside each shard:

* :class:`ShardMap` — every reducer partition's owning shard: its
  home shard, dealt round-robin (balanced by construction), and a
  consistent-hash ring among the survivors once the home has died —
  minimally disturbed by shard loss;
* :class:`ShardPlan` / :class:`ShardSpec` / :func:`chunk_blocks` —
  contiguous chunk-block planning that keeps the merged output
  byte-identical across shard counts;
* :mod:`repro.shard.exchange` — intermediate state exchanged as the
  existing checksummed spill-run files, CRC-verified on adoption with
  verify-then-refetch on mismatch;
* :class:`ShardedRuntime` / :func:`run_sharded` — the coordinator:
  per-shard leases with heartbeats, bounded worker respawn with
  journal resume, speculative re-execution of stragglers, and
  reduce-side partition reassignment over the ring.
"""

from repro.shard.exchange import (
    ExchangeRun,
    fetch_run,
    merged_partition_groups,
    reduce_partition,
    run_name,
    write_partition_runs,
)
from repro.shard.hashring import DEFAULT_REPLICAS, ShardMap
from repro.shard.plan import ShardPlan, ShardSpec, chunk_blocks

__all__ = [
    "DEFAULT_REPLICAS",
    "ExchangeRun",
    "ShardMap",
    "ShardPlan",
    "ShardSpec",
    "ShardedRuntime",
    "chunk_blocks",
    "fetch_run",
    "merged_partition_groups",
    "reduce_partition",
    "run_name",
    "run_sharded",
    "write_partition_runs",
]


def __getattr__(name: str):
    """Lazily import the coordinator exports (PEP 562).

    The coordinator imports the worker entrypoint
    (``repro.parallel.shard_worker``), which itself imports
    :mod:`repro.shard.exchange`; importing the coordinator eagerly here
    would close that loop into a circular import whenever the worker
    module happens to be imported first (as the API-doc generator's
    module walk does).
    """
    if name in ("ShardedRuntime", "run_sharded"):
        from repro.shard import coordinator

        return getattr(coordinator, name)
    raise AttributeError(f"module 'repro.shard' has no attribute {name!r}")
