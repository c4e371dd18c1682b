"""The worker-fault schedule writes the same rows however it is stepped.

``gate_worker_sites`` (serial / thread) steps a task's
:class:`~repro.resilience.gates.WorkerSiteSchedule` in a blocking loop;
the process supervisor steps it once per worker it sees die or overrun
its lease.  Per scope, the (site, action, attempt) rows must be equal
either way, and every backend must report the tasks the schedule
declared poison.
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.apps.wordcount import make_wordcount_job
from repro.core.options import RuntimeOptions
from repro.core.supmr import SupMRRuntime
from repro.faults import parse_faults
from repro.faults.log import (
    ACTION_EXHAUSTED,
    ACTION_QUARANTINED,
    ACTION_RECOVERED,
    ACTION_RESPAWNED,
    ACTION_RETRIED,
)
from repro.faults.policy import RecoveryPolicy
from repro.parallel.backends import fork_available
from repro.resilience.gates import gate_worker_sites
from repro.resilience.supervisor import WorkerPool

needs_fork = pytest.mark.skipif(not fork_available(), reason="needs os.fork")

#: One wave of twelve map tasks of chunk 0.
SCOPES = [(0, task_id) for task_id in range(12)]


def _square(x: int) -> int:
    return x * x


def _one_wave(fn, items, workers, **wave_kw):
    """One supervised wave of a fresh pool forked around ``fn(items[i])``."""
    items = list(items)
    pool = WorkerPool(lambda i: fn(items[i]), workers)
    try:
        return pool.run_wave(range(len(items)), **wave_kw)
    finally:
        pool.close()


def _armed(seed: int):
    policy = RecoveryPolicy(
        max_retries=1, lease_timeout_s=0.5, worker_respawn_budget=100
    )
    plan = parse_faults("worker.crash=0.5,task.hang=0.3", seed=seed)
    return plan.arm(policy)


def _rows_by_scope(injector) -> dict[str, list[tuple[str, str, int]]]:
    rows: dict[str, list[tuple[str, str, int]]] = defaultdict(list)
    for event in injector.log.events:
        if event.action != ACTION_RESPAWNED:
            rows[event.scope].append((event.site, event.action, event.attempt))
    return dict(rows)


@needs_fork
def test_gate_and_supervisor_write_the_same_rows_per_scope(fault_seed):
    gate = _armed(fault_seed)
    ran = [gate_worker_sites(gate, scope, allow_skip=True) for scope in SCOPES]

    supervised = _armed(fault_seed)
    outcome = _one_wave(
        _square, range(len(SCOPES)), workers=2,
        policy=supervised.policy, injector=supervised,
        scope_of=SCOPES.__getitem__, allow_skip=True,
    )

    expected = _rows_by_scope(gate)
    actions = {action for rows in expected.values() for _, action, _ in rows}
    assert {
        ACTION_RETRIED, ACTION_RECOVERED, ACTION_EXHAUSTED, ACTION_QUARANTINED,
    } <= actions, "the plan must walk every branch of the protocol"
    assert _rows_by_scope(supervised) == expected
    assert outcome.skipped == tuple(i for i, ok in enumerate(ran) if not ok)


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_every_backend_reports_skipped_poison_tasks(
    backend, text_file, fault_seed
):
    if backend == "process" and not fork_available():
        pytest.skip("needs os.fork")
    options = RuntimeOptions.supmr_interfile("50KB", num_mappers=4).with_(
        executor_backend=backend,
        fault_plan=parse_faults("worker.crash=0.6", seed=fault_seed),
        recovery=RecoveryPolicy(max_retries=1),
    )
    result = SupMRRuntime(options).run(make_wordcount_job([text_file]))
    # Only worker sites are armed: each quarantined record is one task.
    skipped = result.counters.get("tasks_skipped", 0)
    assert skipped == result.counters["records_quarantined"] > 0
