"""The coordinator's decisions: tables of inputs, a fake clock, no process.

Nothing here forks, opens a queue or reads the wall clock — that
:mod:`repro.shard.core` needs none of them is the point of the module.
The tables cover every arm of every decision; the state machine at the
bottom feeds the core random interleavings of heartbeats, results,
deaths and sweeps and checks the job's one sentence: every partition
ends reduced, whatever the order.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

import repro.shard.core as core
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
from repro.resilience.core import casualties
from repro.shard.core import Shard, Tally, Worker
from repro.shard.hashring import ShardMap

LEASE = 10.0
POLICY = RecoveryPolicy(lease_timeout_s=LEASE, worker_respawn_budget=2)


def test_the_core_imports_no_io():
    tree = ast.parse(Path(core.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module.split(".")[0])
    assert not imported & {
        "multiprocessing", "queue", "time", "os", "pathlib", "socket",
        "pickle", "threading", "subprocess",
    }


def seated(n: int, now: float = 0.0, addr: str = "") -> "dict[int, Shard]":
    """``n`` rows, each with a primary mapping since ``now``."""
    rows = {sid: Shard(sid) for sid in range(n)}
    for sid, row in rows.items():
        core.seat(row, Worker(sid, wid=sid, fetch_addr=addr), now)
    return rows


def twin_of(row: Shard, now: float, addr: str = "") -> Worker:
    twin = Worker(row.sid, wid=100 + row.sid, fetch_addr=addr)
    core.seat(row, twin, now, twin=True)
    return twin


def payload(outbox: str = "out") -> dict:
    return {"outbox": outbox}


# -- seat / renew ---------------------------------------------------------------


def test_seat_hands_out_attempts_and_starts_the_lease():
    row = seated(1, now=3.0)[0]
    twin = twin_of(row, now=5.0)
    assert (row.primary.attempt, twin.attempt, row.next_attempt) == (0, 1, 2)
    assert row.twin is twin and row.primary is not twin
    assert (twin.busy, twin.started, twin.last_heard) == (True, 5.0, 5.0)


def test_renew_finds_the_speaker_or_falls_back_to_the_primary():
    row = seated(1)[0]
    twin = twin_of(row, now=0.0)
    core.renew(row, twin.attempt, 4.0)
    assert (row.primary.last_heard, twin.last_heard) == (0.0, 4.0)
    core.renew(row, 0, 5.0)
    assert (row.primary.last_heard, twin.last_heard) == (5.0, 4.0)
    # an attempt already settled: a late heartbeat keeps the primary alive
    core.renew(row, 7, 6.0)
    assert (row.primary.last_heard, twin.last_heard) == (6.0, 4.0)
    core.renew(Shard(9), 0, 1.0)  # a shard written off: nobody to renew


# -- casualties -----------------------------------------------------------------
# The lease rule itself is tests/resilience/test_core.py's property; here a
# shard's rows feed it the way the coordinator does, primary before twin.

#: (seconds since last heard, busy, alive) -> buried?, lease text?
CASUALTY_TABLE = [
    (LEASE, True, True, None),  # exactly at the timeout: still leased
    (LEASE + 0.001, True, True, "exceeded its 10s lease"),
    (LEASE + 5, False, True, None),  # idle workers hold no lease
    (0.0, True, False, ""),
    (0.0, False, False, ""),  # a dead idle worker is still dead
    (LEASE + 5, True, False, ""),  # dead outranks expired
]


@pytest.mark.parametrize("silent_s, busy, alive, expected", CASUALTY_TABLE)
def test_casualties(silent_s, busy, alive, expected):
    row = seated(1)[0]
    row.primary.busy = busy
    tally = Tally()
    found = casualties(
        silent_s, row.workers(), lambda w: alive, LEASE, tally
    )
    if expected is None:
        assert found == [] and (tally.crashes, tally.lease_expiries) == (0, 0)
    else:
        assert found == [(row.primary, expected)]
        assert (tally.crashes, tally.lease_expiries) == (
            (1, 0) if expected == "" else (0, 1)
        )


def test_casualties_sweep_in_shard_order_primary_before_twin():
    rows = seated(3)
    twins = {sid: twin_of(rows[sid], 0.0) for sid in (0, 2)}
    # a respawn replaces a primary; the sweep order does not move
    core.seat(rows[0], Worker(0, wid=50), 0.0)
    found = casualties(
        0.0, [w for row in rows.values() for w in row.workers()],
        lambda w: False, LEASE, Tally(),
    )
    assert [w for w, _ in found] == [
        rows[0].primary, twins[0], rows[1].primary, rows[2].primary, twins[2],
    ]
    # only the rows handed in are swept (a mapped shard is not, mid-map)
    assert casualties(0.0, [], lambda w: False, LEASE, Tally()) == []


# -- mapped ---------------------------------------------------------------------


def test_primary_wins_the_twin_is_the_loser():
    row = seated(1, addr="here")[0]
    twin = twin_of(row, 1.0, addr="there")
    primary = row.primary
    assert core.mapped(row, 0, payload(), 2.0, 2.0) == (twin, False)
    assert (row.primary, row.twin, row.via) == (primary, None, "here")
    assert not primary.busy and row.done == {"outbox": "out", "duration": 2.0}


def test_twin_wins_and_is_promoted():
    row = seated(1, addr="here")[0]
    twin = twin_of(row, 1.0, addr="there")
    primary = row.primary
    assert core.mapped(row, twin.attempt, payload(), 2.0, 2.0) == (primary, True)
    assert (row.primary, row.twin, row.via) == (twin, None, "there")
    assert not twin.busy


def test_a_second_map_done_changes_nothing_but_the_lease():
    row = seated(1)[0]
    core.mapped(row, 0, payload("first"), 2.0, 2.0)
    twin = twin_of(row, 2.0)
    assert core.mapped(row, twin.attempt, payload("second"), 3.0, 3.0) == (
        None, False
    )
    assert row.done["outbox"] == "first" and row.twin is twin
    assert twin.last_heard == 3.0


def test_a_replaced_attempts_map_done_is_adopted_and_the_twin_retired():
    row = seated(1)[0]
    core.map_death(row, row.primary, "x", "", POLICY, Tally())
    core.seat(row, Worker(0, wid=9), 1.0)  # attempt 1 replaces attempt 0
    twin = twin_of(row, 1.0)
    # attempt 0's result was already on the wire when it was buried
    assert core.mapped(row, 0, payload(), 2.0, 2.0) == (twin, False)
    assert row.done is not None and row.twin is None and row.via == ""
    assert row.primary.busy  # still running its block; it will be ignored


# -- map_death ------------------------------------------------------------------


def death(row, worker, lost_host="", policy=POLICY, tally=None):
    return core.map_death(
        row, worker, "w exited with code 37", lost_host, policy,
        Tally() if tally is None else tally,
    )


def test_a_dead_twin_costs_nothing():
    row, tally = seated(1)[0], Tally()
    twin = twin_of(row, 0.0)
    assert death(row, twin, tally=tally) == (core.TWIN_DROPPED, None)
    assert row.twin is None and row.primary is not None
    assert tally == Tally()


def test_a_live_twin_is_promoted_instead_of_a_respawn():
    row, tally = seated(1)[0], Tally()
    twin = twin_of(row, 0.0)
    # even off a lost host: the twin is already here
    arm, entry = death(row, row.primary, lost_host="10.0.0.1:7", tally=tally)
    assert arm == core.TWIN_PROMOTED and tally == Tally()
    assert (row.primary, row.twin) == (twin, None)
    assert entry[:2] + entry[3:] == (SITE_SHARD_WORKER_LOSS, ACTION_RETRIED, 0)
    assert entry.detail == (
        "shard 0 primary died (w exited with code 37); "
        "its speculative twin carries on"
    )


def test_host_loss_brings_the_shard_home_without_charging_the_budget():
    row, tally = seated(1)[0], Tally(respawns=POLICY.worker_respawn_budget)
    arm, entry = death(row, row.primary, lost_host="10.0.0.1:7", tally=tally)
    assert arm == core.BROUGHT_HOME and row.primary is None
    assert (tally.respawns, tally.host_losses, tally.hosts_lost) == (
        POLICY.worker_respawn_budget, 1, {"10.0.0.1:7"}
    )
    assert (entry.site, entry.action) == (SITE_NET_HOST_LOSS, ACTION_RESPAWNED)
    assert entry.detail == (
        "shard 0 was on unreachable host 10.0.0.1:7 "
        "(w exited with code 37); respawned locally"
    )


def test_the_budgets_last_unit_respawns_the_next_death_is_over_budget():
    row, tally = seated(1)[0], Tally(respawns=POLICY.worker_respawn_budget - 1)
    arm, entry = death(row, row.primary, tally=tally)
    assert arm == core.RESPAWNED and row.primary is None
    assert (entry.site, entry.action, entry.detail) == (
        SITE_SHARD_WORKER_LOSS, ACTION_RESPAWNED,
        "shard 0 worker replaced: w exited with code 37",
    )
    core.seat(row, Worker(0, wid=1), 0.0)
    arm, entry = death(row, row.primary, tally=tally)
    assert arm == core.OVER_BUDGET and entry.action == ACTION_RESPAWNED
    assert tally.respawns == POLICY.worker_respawn_budget + 1


def test_a_zero_budget_refuses_the_first_respawn():
    row = seated(1)[0]
    policy = RecoveryPolicy(worker_respawn_budget=0)
    assert death(row, row.primary, policy=policy)[0] == core.OVER_BUDGET


# -- stragglers -----------------------------------------------------------------


def finish(row: Shard, at: float) -> None:
    core.mapped(row, row.primary.attempt, payload(), at, at)


def flagged(now, rows, policy=RecoveryPolicy(straggler_threshold=2.0),
            floor=1.0):
    return [
        e.sid for e in core.stragglers(now, list(rows.values()), policy, floor)
    ]


def test_nobody_straggles_before_half_the_shards_finished():
    rows = seated(4)
    finish(rows[0], 1.0)
    assert flagged(100.0, rows) == []
    finish(rows[1], 1.0)
    assert flagged(100.0, rows) == [2, 3]


def test_the_threshold_is_a_multiple_of_the_median_never_under_the_floor():
    rows = seated(2)
    finish(rows[0], 3.0)
    assert flagged(6.0, rows) == []  # exactly 2 x 3.0 s: not yet
    assert flagged(6.01, rows) == [1]
    rows = seated(2)
    finish(rows[0], 0.1)
    assert flagged(1.0, rows) == []  # 2 x 0.1 s is under the 1 s floor
    (entry,) = core.stragglers(
        1.5, list(rows.values()), RecoveryPolicy(straggler_threshold=2.0), 1.0
    )
    assert entry[:2] + entry[3:] == (SITE_SHARD_STRAGGLER, ACTION_SPECULATIVE, 1)
    assert entry.detail == (
        "shard 1 running 1.50s (> 1.00s); launching a speculative twin"
    )


def test_a_shard_is_speculated_on_once_and_never_beside_a_twin():
    rows = seated(2)
    finish(rows[0], 1.0)
    assert flagged(9.0, rows) == [1] and rows[1].speculated
    assert flagged(9.0, rows) == []  # the twin died since; no second one
    rows = seated(2)
    finish(rows[0], 1.0)
    twin_of(rows[1], 1.0)
    assert flagged(9.0, rows) == []


def test_speculation_can_be_off_and_needs_two_shards():
    rows = seated(2)
    finish(rows[0], 1.0)
    assert flagged(9.0, rows, RecoveryPolicy(speculative=False)) == []
    assert flagged(9.0, seated(1)) == []


# -- assign / reduced / reassign ------------------------------------------------


def reducing(n: int, partitions: int, now: float = 0.0):
    """``n`` mapped shards, each reducing the partitions it owns."""
    rows, ring = seated(n), ShardMap(range(n))
    for sid, ps in ring.assign(partitions).items():
        finish(rows[sid], now)
        core.assign(rows[sid], ps, now)
    return rows, ring


def held(row: Shard) -> "list[int]":
    return sorted(row.in_flight + row.queued)


def test_reduced_idles_the_worker_or_sends_what_was_queued():
    rows, _ = reducing(2, 4)
    rows[0].queued = [7, 8]
    assert core.reduced(rows[0], [0, 2], 5.0) == [7, 8]
    assert (rows[0].in_flight, rows[0].queued) == ([7, 8], [])
    assert rows[0].primary.busy and rows[0].primary.started == 5.0
    assert core.reduced(rows[0], [7, 8], 6.0) == []
    assert not rows[0].primary.busy and rows[0].primary.last_heard == 6.0
    # a done racing its own lease-expiry kill: nothing left to drain
    core.reassign(7.0, rows, ShardMap(range(2)), 0, "x", Tally())
    assert core.reduced(rows[0], [7, 8], 8.0) == []


class TestReassign:
    def test_reassign_preserves_survivor_ownership(self):
        rows, ring = reducing(4, 32)
        before = {sid: set(row.in_flight) for sid, row in rows.items()}
        tally = Tally()
        moves = core.reassign(1.0, rows, ring, 1, "w died", tally)
        assert rows[1].lost and rows[1].primary is None and held(rows[1]) == []
        for sid in (0, 2, 3):
            assert before[sid] <= set(held(rows[sid]))
        assert sorted(p for row in rows.values() for p in held(row)) == list(
            range(32)
        )
        assert sorted(p for _, ps, _, _ in moves for p in ps) == sorted(
            before[1]
        )
        assert tally.reassigned_partitions == len(before[1])
        # every survivor was busy: the orphans wait behind what it holds
        assert all(not dispatch for _, _, dispatch, _ in moves)
        owner, ps, _, entry = moves[0]
        assert entry[:2] + entry[3:] == (
            SITE_SHARD_WORKER_LOSS, ACTION_REASSIGNED, 1
        )
        assert entry.detail == (
            f"shard 1 lost (w died); partition(s) "
            f"{','.join(map(str, ps))} reassigned to shard {owner}"
        )

    def test_an_idle_survivor_is_dispatched_to_at_once(self):
        rows, ring = reducing(2, 4)
        core.reduced(rows[1], rows[1].in_flight, 1.0)
        ((owner, ps, dispatch, _),) = core.reassign(
            2.0, rows, ring, 0, "w died", Tally()
        )
        assert (owner, ps, dispatch) == (1, [0, 2], True)
        assert (rows[1].in_flight, rows[1].queued) == ([0, 2], [])
        assert rows[1].primary.busy and rows[1].primary.last_heard == 2.0

    def test_second_death_rescues_what_was_queued_behind_it(self):
        """Regression: a dead reducer's *queued* partitions must be
        re-routed too, or the reduce phase waits on them forever."""
        rows, ring = reducing(3, 9)
        first = list(rows[0].in_flight)
        moves = core.reassign(1.0, rows, ring, 0, "test kill", Tally())
        # a survivor ("mid") that shard 0's death routed work to; it was
        # busy, so the orphans are queued behind it
        mid = moves[0][0]
        last = 3 - mid
        assert rows[mid].queued == moves[0][1] and not moves[0][2]
        core.reassign(2.0, rows, ring, mid, "test kill", Tally())
        # both `mid`'s in-flight partitions and the queue behind it land
        # with the survivor — nothing may be dropped
        assert held(rows[last]) == list(range(9))
        assert set(first) <= set(rows[last].queued)
        assert held(rows[0]) == held(rows[mid]) == []

    def test_a_shard_with_nothing_in_hand_is_written_off_quietly(self):
        rows, ring = reducing(2, 4)
        core.reduced(rows[0], rows[0].in_flight, 1.0)
        tally = Tally()
        assert core.reassign(2.0, rows, ring, 0, "w died", tally) == []
        assert rows[0].lost and tally.reassigned_partitions == 0

    def test_the_last_death_aborts_the_job(self):
        rows, ring = reducing(2, 4)
        core.reassign(1.0, rows, ring, 0, "a died", Tally())
        with pytest.raises(ParallelError, match=r"every shard worker died "
                           r"during the reduce phase \(last: b died\)"):
            core.reassign(2.0, rows, ring, 1, "b died", Tally())


# -- fetch_faults ---------------------------------------------------------------


def test_fetch_faults_roll_lazily_per_pair_site_by_site():
    asked = []
    doomed = {("a", ("x", 0, 1)): 2, ("b", ("x", 1, 3)): 9}

    def fired(site, scope, attempt):
        asked.append((site, scope, attempt))
        return attempt < doomed.get((site, scope), 0)

    tables = core.fetch_faults(fired, ("a", "b"), ("x",), [0, 1], [1, 3], 3)
    assert tables == {"a": {(0, 1): [0, 1]}, "b": {(1, 3): [0, 1, 2, 3]}}
    # attempt k+1 is consulted only when attempt k fired; both sites of a
    # pair are rolled before the next pair
    assert asked[:5] == [
        ("a", ("x", 0, 1), 0), ("a", ("x", 0, 1), 1), ("a", ("x", 0, 1), 2),
        ("b", ("x", 0, 1), 0), ("a", ("x", 0, 3), 0),
    ]
    assert core.fetch_faults(fired, ("a",), (), [0], [], 3) == {"a": {}}


# -- any interleaving ends with every partition reduced -------------------------


@dataclass
class FakeHandle:
    alive: bool = True
    #: set when the worker's *host* is what died
    lost_host: str = ""
    #: reduce batches commanded and not yet answered, oldest first
    inbox: list = field(default_factory=list)
    mapping: bool = True


class Interleavings(RuleBasedStateMachine):
    """The shell, simulated: workers that answer, die or fall silent in
    any order, a network that delivers in any order, a clock that only
    moves when told to."""

    def __init__(self) -> None:
        super().__init__()
        self.now = 0.0
        self.tally = Tally()
        self.rows: "dict[int, Shard]" = {}
        self.wire: list = []  # sent, not yet delivered
        self.parts: "set[int]" = set()
        self.phase = "map"
        self.aborted = ""
        self.wids = 0
        #: what the budget should have been charged, by the model
        self.charged = 0
        self.brought_home = 0

    @initialize(
        shards=st.integers(1, 5), partitions=st.integers(1, 8),
        budget=st.integers(0, 4), calm_map=st.booleans(),
    )
    def start(self, shards, partitions, budget, calm_map):
        self.policy = RecoveryPolicy(
            lease_timeout_s=LEASE, worker_respawn_budget=budget,
            straggler_threshold=1.0,
        )
        self.partitions = partitions
        self.ring = ShardMap(range(shards))
        self.rows = {sid: Shard(sid) for sid in range(shards)}
        for sid in self.rows:
            self.spawn(sid)
        if calm_map:  # straight to the reduce phase, where the routing is
            for worker in self.workers():
                worker.handle.mapping = False
                self.deliver(("map_done", worker.sid, worker.attempt))

    # -- the shell's half, on fakes ------------------------------------------

    def spawn(self, sid, speculative=False):
        self.wids += 1
        worker = Worker(sid, self.wids, handle=FakeHandle())
        core.seat(self.rows[sid], worker, self.now, twin=speculative)

    def workers(self, **want):
        return [
            w for row in self.rows.values() for w in row.workers()
            if w.handle.alive
            and all(getattr(w.handle, k) == v for k, v in want.items())
        ]

    def send_reduce(self, sid, batch):
        row = self.rows[sid]
        assert not row.lost and batch, "work routed to a lost shard"
        row.primary.handle.inbox.append(list(batch))

    def start_reduce(self):
        self.phase = "reduce"
        for sid, ps in self.ring.assign(self.partitions).items():
            core.assign(self.rows[sid], ps, self.now)
            self.rows[sid].primary.handle.inbox.append(list(ps))

    def on_death(self, worker, detail):
        row = self.rows[worker.sid]
        if self.phase == "reduce":
            for owner, ps, dispatch, _ in core.reassign(
                self.now, self.rows, self.ring, worker.sid, detail, self.tally
            ):
                if dispatch:
                    self.send_reduce(owner, ps)
            return
        lost_host = worker.handle.lost_host
        if worker is row.primary and row.twin is None:
            if lost_host:
                self.brought_home += 1
            else:
                self.charged += 1
        arm, _ = core.map_death(
            row, worker, detail, lost_host, self.policy, self.tally
        )
        if arm == core.OVER_BUDGET:
            raise ParallelError("over budget")
        if arm in (core.RESPAWNED, core.BROUGHT_HOME):
            self.spawn(row.sid)

    def sweep(self):
        watched = [
            w for r in self.rows.values()
            if self.phase == "reduce" or r.done is None
            for w in r.workers()
        ]
        try:
            for worker, _ in casualties(
                self.now, watched, lambda w: w.handle.alive,
                self.policy.lease_timeout_s, self.tally,
            ):
                worker.handle.alive = False  # an expired lease is a kill
                self.on_death(worker, "died")
            if self.phase == "map":
                for entry in core.stragglers(
                    self.now, list(self.rows.values()), self.policy, 1.0
                ):
                    self.spawn(entry.sid, speculative=True)
        except ParallelError as exc:
            self.aborted = str(exc)

    def deliver(self, msg):
        kind, sid = msg[0], msg[1]
        row = self.rows[sid]
        if kind == "hb":
            core.renew(row, msg[2], self.now)
        elif kind == "map_done" and self.phase == "map":
            loser, _ = core.mapped(row, msg[2], {}, self.now, self.now)
            if loser is not None:
                loser.handle.alive = False
            if all(r.done is not None for r in self.rows.values()):
                self.start_reduce()
        elif kind == "reduce_done" and self.phase == "reduce":
            self.parts.update(msg[2])
            batch = core.reduced(row, msg[2], self.now)
            if batch:
                self.send_reduce(sid, batch)

    # -- events ----------------------------------------------------------------

    running = precondition(
        lambda self: self.rows and not self.aborted
        and len(self.parts) < self.partitions
    )

    #: which of the candidates an event happens to (modulo how many)
    pick = st.integers(0, 59)

    @running
    @rule(pick=pick)
    def worker_finishes_its_map_block(self, pick):
        mapping = self.workers(mapping=True)
        if mapping:
            worker = mapping[pick % len(mapping)]
            worker.handle.mapping = False
            self.wire.append(("map_done", worker.sid, worker.attempt))

    @running
    @rule(pick=pick)
    def worker_finishes_a_reduce_batch(self, pick):
        # a shard worker serves one command at a time: reduces wait
        # behind a map block still running
        busy = [w for w in self.workers(mapping=False) if w.handle.inbox]
        if busy:
            worker = busy[pick % len(busy)]
            self.wire.append(
                ("reduce_done", worker.sid, worker.handle.inbox.pop(0))
            )

    @running
    @rule(pick=pick)
    def worker_heartbeats(self, pick):
        if self.workers():
            worker = self.workers()[pick % len(self.workers())]
            self.wire.append(("hb", worker.sid, worker.attempt))

    @running
    @rule(pick=pick, host=st.booleans(), noticed=st.booleans())
    def worker_dies(self, pick, host, noticed):
        if self.workers():
            worker = self.workers()[pick % len(self.workers())]
            worker.handle.alive = False
            worker.handle.lost_host = "10.0.0.1:7" if host else ""
            if noticed:  # before anything else happens
                self.sweep()

    @running
    @rule(pick=pick)
    def a_message_arrives(self, pick):
        if self.wire:
            self.deliver(self.wire.pop(pick % len(self.wire)))

    @rule(dt=st.sampled_from([0.0, 0.5, 2.0, LEASE + 1]))
    def the_clock_moves_and_the_shell_sweeps(self, dt):
        self.now += dt
        if not self.aborted and len(self.parts) < self.partitions:
            self.sweep()

    # -- what must hold --------------------------------------------------------

    @invariant()
    def no_partition_is_lost_or_held_twice(self):
        if self.phase != "reduce" or self.aborted:
            return
        holders: "dict[int, int]" = {}
        for row in self.rows.values():
            assert not set(row.in_flight) & set(row.queued)
            if row.lost:
                assert not row.in_flight and not row.queued
            for p in row.in_flight + row.queued:
                assert p not in holders, f"partition {p} is held twice"
                holders[p] = row.sid
                assert row.primary.busy, f"{p} waits behind an idle worker"
        missing = set(range(self.partitions)) - self.parts - set(holders)
        assert not missing, f"partitions {sorted(missing)} are nobody's"

    @invariant()
    def the_budget_is_charged_for_worker_deaths_only(self):
        assert self.tally.respawns == self.charged
        assert self.tally.host_losses == self.brought_home
        if self.rows and not self.aborted:
            assert self.tally.respawns <= self.policy.worker_respawn_budget

    def teardown(self):
        """No more faults: left alone, the job finishes (or has aborted
        for a reason the protocol names)."""
        for _ in range(200):
            if not self.rows or self.aborted or (
                len(self.parts) >= self.partitions
            ):
                break
            for worker in self.workers():
                handle = worker.handle
                if handle.mapping:
                    handle.mapping = False
                    self.wire.append(("map_done", worker.sid, worker.attempt))
                while handle.inbox:
                    self.wire.append(
                        ("reduce_done", worker.sid, handle.inbox.pop(0))
                    )
            while self.wire:
                self.deliver(self.wire.pop(0))
            self.sweep()
            self.no_partition_is_lost_or_held_twice()
        if self.aborted:
            assert self.aborted == "over budget" or (
                "every shard worker died" in self.aborted
            )
            if self.aborted == "over budget":
                assert self.tally.respawns == (
                    self.policy.worker_respawn_budget + 1
                )
        elif self.rows:
            assert self.parts == set(range(self.partitions))


TestInterleavings = Interleavings.TestCase
#: 300 schedules find a reverted reduce-hang fix on every run (100 miss
#: it two times in five); the soak profile asks for more.
TestInterleavings.settings = settings(
    max_examples=max(300, settings.default.max_examples)
)
