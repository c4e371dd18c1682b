"""The lease core both worker shells share: data and one pure sweep.

No process, no queue, no clock: the map pool's supervisor and the shard
coordinator hand :func:`repro.resilience.core.casualties` their workers
in their own order with an explicit ``now``.
"""

from __future__ import annotations

import ast
from pathlib import Path

from hypothesis import example, given
from hypothesis import strategies as st

import repro.resilience.core as core
from repro.resilience.core import Tally, Worker, casualties


def test_the_core_imports_no_io():
    tree = ast.parse(Path(core.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module.split(".")[0])
    assert imported <= {"__future__", "dataclasses", "typing"}


def test_engage_starts_the_lease_and_renew_extends_it():
    worker = Worker()
    assert not worker.busy
    worker.engage(3.0)
    assert (worker.busy, worker.started, worker.last_heard) == (True, 3.0, 3.0)
    worker.renew(5.0)
    assert (worker.started, worker.last_heard) == (3.0, 5.0)
    task = object()
    worker.engage(7.0, task)
    assert (worker.busy, worker.started, worker.last_heard) == (task, 7.0, 7.0)


#: One worker: (alive, what it holds, when it was last heard from).
_WORKER = st.tuples(
    st.booleans(), st.sampled_from([False, None, True, "task"]),
    st.integers(0, 40),
)


@given(
    table=st.lists(_WORKER, max_size=12),
    now=st.integers(0, 60),
    lease=st.integers(1, 20),
    before=st.tuples(st.integers(0, 3), st.integers(0, 3)),
)
# The boundary rows: exactly at the lease is still leased; one tick past
# it expires; an idle worker holds no lease; dead outranks expired.
@example(table=[(True, True, 0)], now=10, lease=10, before=(0, 0))
@example(table=[(True, True, 0)], now=11, lease=10, before=(0, 0))
@example(table=[(True, False, 0)], now=15, lease=10, before=(0, 0))
@example(table=[(False, True, 0)], now=15, lease=10, before=(0, 0))
@example(table=[(False, False, 0)], now=0, lease=10, before=(0, 0))
def test_casualties_are_the_dead_and_the_silent_in_input_order(
    table, now, lease, before
):
    workers = [Worker(busy=held, last_heard=heard) for _, held, heard in table]
    alive = {id(w): row[0] for w, row in zip(workers, table)}
    tally = Tally(*before)
    found = casualties(now, workers, lambda w: alive[id(w)], lease, tally)

    dead = [i for i, (up, _, _) in enumerate(table) if not up]
    silent = [
        i for i, (up, held, heard) in enumerate(table)
        if up and held and now - heard > lease
    ]
    text = f"exceeded its {lease:.3g}s lease"
    assert [(id(w), why) for w, why in found] == [
        (id(workers[i]), "" if i in dead else text)
        for i in sorted(dead + silent)
    ]
    assert (tally.crashes, tally.lease_expiries) == (
        before[0] + len(dead), before[1] + len(silent)
    )
