"""The sharded coordinator's decisions, as transitions over one table.

No process, no channel, no file, no clock — the style of
:mod:`repro.cluster.health` and :mod:`repro.service.core`.  The shell
(:mod:`repro.shard.coordinator`) owns the processes, their channels
and the fault injector; it feeds what happened in here with an explicit
``now`` and carries out what comes back (spawn, kill, send, log, raise).
What the coordinator *knows* about shard ``sid`` is one :class:`Shard`
row; what it *decides* is one function each:

* :func:`seat`, :func:`renew`, :func:`mapped` — a worker starts its
  map block, is heard from, finishes it (first ``map_done`` wins);
* :func:`map_death` — what becomes of a shard whose worker died mid-map;
* :func:`stragglers` — which shards get a speculative twin;
* :func:`assign`, :func:`reduced`, :func:`reassign` — partitions in
  flight on a shard, queued behind it, orphaned by its death;
* :func:`fetch_faults` — the pre-rolled fetch-fault tables of a dispatch.

A worker's lease and its sweep are the map pool's too
(:mod:`repro.resilience.core`).

A round's result is a function of the messages delivered, not of their
order, so any interleaving of these transitions must end with every
partition reduced once — ``tests/shard/test_core.py`` checks exactly
that, with a fake clock and no process.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from itertools import takewhile
from typing import Callable, Hashable, Iterable, NamedTuple, Sequence

from repro.errors import ParallelError
from repro.faults.log import (
    ACTION_REASSIGNED,
    ACTION_RESPAWNED,
    ACTION_RETRIED,
    ACTION_SPECULATIVE,
)
from repro.faults.plan import (
    SITE_NET_HOST_LOSS,
    SITE_SHARD_STRAGGLER,
    SITE_SHARD_WORKER_LOSS,
)
from repro.faults.policy import RecoveryPolicy
from repro.resilience import core as lease
from repro.shard.hashring import ShardMap


@dataclass
class Worker(lease.Worker):
    """One shard worker process (local fork or remote) and its lease."""

    sid: int
    wid: int
    #: Where this worker's published runs can be fetched from: empty in
    #: a single-host run (plain file copies), else its host's exporter.
    fetch_addr: str = ""
    attempt: int = 0


@dataclass
class Shard:
    """Everything the coordinator knows about one shard id."""

    sid: int
    #: The worker reduce work goes to (None once lost mid-reduce).
    primary: Worker | None = None
    #: Its speculative twin, while one runs the same map block.
    twin: Worker | None = None
    next_attempt: int = 0
    speculated: bool = False
    #: Lost in the reduce phase: nothing is routed here any more.
    lost: bool = False
    #: The adopted ``map_done`` payload (``done["outbox"]`` holds the
    #: runs) and the address they are fetched through ("" = this host).
    done: dict | None = None
    via: str = ""
    #: Partitions dispatched to this shard, and those waiting their turn.
    in_flight: list[int] = field(default_factory=list)
    queued: list[int] = field(default_factory=list)

    def workers(self) -> list[Worker]:
        """Sweep order within a shard: primary before twin."""
        return [w for w in (self.primary, self.twin) if w is not None]


@dataclass
class Tally(lease.Tally):
    """Survival counters that are sums (per-shard facts live in rows)."""

    respawns: int = 0
    refetches: int = 0
    reassigned_partitions: int = 0
    host_losses: int = 0
    hosts_lost: set = field(default_factory=set)


class Entry(NamedTuple):
    """One fault-log line for the shell to record (scope: ``(sid,)``)."""

    site: str
    action: str
    detail: str
    sid: int


# -- map phase ---------------------------------------------------------------


def seat(row: Shard, worker: Worker, now: float, twin: bool = False) -> None:
    """A freshly spawned worker takes its place and its attempt number."""
    worker.attempt = row.next_attempt
    row.next_attempt += 1
    if twin:
        row.twin = worker
    else:
        row.primary = worker
    worker.engage(now)


def renew(row: Shard, attempt: int, now: float) -> None:
    """Renew the lease of whichever worker of the shard spoke.

    An attempt no longer registered (already settled) renews the
    primary, so a late heartbeat never kills the shard's active worker.
    """
    spoke = [w for w in row.workers() if w.attempt == attempt]
    worker = spoke[0] if spoke else row.primary
    if worker is not None:
        worker.renew(now)


def mapped(
    row: Shard, attempt: int, payload: dict, now: float, duration: float
) -> tuple[Worker | None, bool]:
    """First ``map_done`` wins: ``(loser to kill, twin promoted?)``.

    Both twins computed the same deterministic block, so either outbox
    is byte-identical — the tie-break only picks a process.  The
    winner's host is where the outbox lives; reducers fetch through it.
    """
    renew(row, attempt, now)
    if row.done is not None:
        return None, False
    payload["duration"] = duration
    row.done = payload
    primary, twin, row.twin = row.primary, row.twin, None
    if twin is not None and twin.attempt == attempt:
        twin.busy = False
        row.primary, row.via = twin, twin.fetch_addr
        return primary, True
    if primary is not None and primary.attempt == attempt:
        primary.busy = False
        row.via = primary.fetch_addr
    return twin, False


#: :func:`map_death` verdicts.  The last three leave the shard without
#: a primary; the shell spawns one for the first two of them.
TWIN_DROPPED = "twin-dropped"
TWIN_PROMOTED = "twin-promoted"
BROUGHT_HOME = "brought-home"
RESPAWNED = "respawned"
OVER_BUDGET = "over-budget"


def map_death(
    row: Shard,
    worker: Worker,
    detail: str,
    lost_host: str,
    policy: RecoveryPolicy,
    tally: Tally,
) -> tuple[str, Entry | None]:
    """What becomes of a shard whose ``worker`` died mid-map.

    ``lost_host`` names the worker's agent when that is what died (or
    was partitioned away).  A dead twin costs nothing; a live twin is
    promoted rather than spending a respawn; a lost host brings the
    shard home without charging the budget, which bounds worker
    pathology, not network weather; anything else is a respawn, until
    the budget is spent (the shell logs the entry, then raises).
    """
    sid = row.sid
    if worker is row.twin:
        row.twin = None
        return TWIN_DROPPED, None
    row.primary, row.twin = row.twin, None
    if row.primary is not None:
        return TWIN_PROMOTED, Entry(
            SITE_SHARD_WORKER_LOSS, ACTION_RETRIED,
            f"shard {sid} primary died ({detail}); "
            "its speculative twin carries on", sid,
        )
    if lost_host:
        tally.host_losses += 1
        tally.hosts_lost.add(lost_host)
        return BROUGHT_HOME, Entry(
            SITE_NET_HOST_LOSS, ACTION_RESPAWNED,
            f"shard {sid} was on unreachable host {lost_host} ({detail}); "
            "respawned locally", sid,
        )
    tally.respawns += 1
    over = tally.respawns > policy.worker_respawn_budget
    return OVER_BUDGET if over else RESPAWNED, Entry(
        SITE_SHARD_WORKER_LOSS, ACTION_RESPAWNED,
        f"shard {sid} worker replaced: {detail}", sid,
    )


def stragglers(
    now: float, rows: Sequence[Shard], policy: RecoveryPolicy, floor: float
) -> list[Entry]:
    """The shards that get a speculative twin now, each at most once.

    Once half the shards finished, a shard running past
    ``straggler_threshold`` × the median finish time (never under
    ``floor`` seconds) is a straggler.
    """
    if not policy.speculative or len(rows) < 2:
        return []
    done = [row.done["duration"] for row in rows if row.done is not None]
    if len(done) < max(1, len(rows) // 2):
        return []
    threshold = max(floor, policy.straggler_threshold * statistics.median(done))
    entries = []
    for row in rows:
        if row.done is not None or row.twin is not None or row.speculated:
            continue
        running = now - row.primary.started
        if running > threshold:
            row.speculated = True
            entries.append(Entry(
                SITE_SHARD_STRAGGLER, ACTION_SPECULATIVE,
                f"shard {row.sid} running {running:.2f}s "
                f"(> {threshold:.2f}s); launching a speculative twin", row.sid,
            ))
    return entries


# -- reduce phase ------------------------------------------------------------


def assign(row: Shard, partitions: Sequence[int], now: float) -> None:
    """``partitions`` go out to the shard's (idle) primary."""
    row.in_flight.extend(partitions)
    row.primary.engage(now)


def reduced(row: Shard, got: Iterable[int], now: float) -> list[int]:
    """The shard reduced ``got``; the batch to send it next, if any.

    A shard already written off (a done racing its own lease-expiry
    kill) has nothing queued: :func:`reassign` re-routed it.
    """
    if row.primary is None:
        return []
    got = set(got)
    row.primary.busy = False
    row.primary.renew(now)
    row.in_flight = [p for p in row.in_flight if p not in got]
    batch, row.queued = row.queued, []
    if batch:
        assign(row, batch, now)
    return batch


def reassign(
    now: float,
    shards: dict[int, Shard],
    ring: ShardMap,
    dead: int,
    detail: str,
    tally: Tally,
) -> list[tuple[int, list[int], bool, Entry]]:
    """Move a dead reducer's partitions to their ring successors.

    Returns ``(new owner, partitions, dispatch now?, log entry)`` per
    surviving owner; a busy owner has them queued behind what it holds.
    Both the in-flight partitions AND those queued behind the dead
    shard are orphaned — dropping the queue would hang the phase.
    """
    row = shards[dead]
    row.lost, row.primary = True, None
    orphans, row.in_flight, row.queued = row.in_flight + row.queued, [], []
    lost = sorted(sid for sid, r in shards.items() if r.lost)
    if len(lost) == len(shards):
        raise ParallelError(
            f"every shard worker died during the reduce phase (last: {detail})"
        )
    survivors = ring.without(lost)
    moved: dict[int, list[int]] = {}
    for p in orphans:
        moved.setdefault(survivors.owner(p), []).append(p)
    tally.reassigned_partitions += len(orphans)
    moves = []
    for owner, ps in sorted(moved.items()):
        target = shards[owner]
        dispatch = not target.primary.busy
        if dispatch:
            assign(target, ps, now)
        else:
            target.queued.extend(ps)
        moves.append((owner, ps, dispatch, Entry(
            SITE_SHARD_WORKER_LOSS, ACTION_REASSIGNED,
            f"shard {dead} lost ({detail}); partition(s) "
            f"{','.join(map(str, ps))} reassigned to shard {owner}", dead,
        )))
    return moves


def fetch_faults(
    fired: Callable[[str, Hashable, int], bool],
    sites: Sequence[str],
    scope: tuple,
    partitions: Iterable[int],
    sources: Sequence[int],
    max_retries: int,
) -> dict[str, dict[tuple[int, int], list[int]]]:
    """Pre-roll, per site, the fetch attempts each ``(p, src)`` loses.

    Rolled lazily — attempt ``k+1`` is only consulted when attempt
    ``k`` fired — exactly mirroring the worker's verify-then-refetch
    loop, so injected counts match fetch counts.  The injector's scope
    is ``scope + (p, src)``.
    """
    tables: dict[str, dict] = {site: {} for site in sites}
    for p in partitions:
        for src in sources:
            for site in sites:
                attempts = list(takewhile(
                    lambda a: fired(site, scope + (p, src), a),
                    range(max_retries + 1),
                ))
                if attempts:
                    tables[site][(p, src)] = attempts
    return tables
