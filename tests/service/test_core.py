"""The daemon's pure decisions: tables of inputs, no daemon.

Nothing here starts an event loop, opens a socket or touches a
directory — that :mod:`repro.service.core` needs none of them is the
point of the module.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro.service.core as core
from repro.service.core import (
    Outcome,
    admission_verdict,
    attempt_outcome,
    io_share,
)
from repro.service.jobspec import ServiceJobSpec
from repro.service.protocol import (
    ERR_BUDGET_EXCEEDED,
    ERR_OVERLOADED,
    ERR_QUEUE_FULL,
    ERR_TENANT_BUDGET,
)
from repro.service.server import ServiceConfig
from repro.service.state import (
    STATE_CANCELLED,
    STATE_DONE,
    STATE_FAILED,
    STATE_QUEUED,
)


def config(**kw) -> ServiceConfig:
    return ServiceConfig(state_dir="never-created", **kw)


def spec(n=0, **kw) -> ServiceJobSpec:
    return ServiceJobSpec(app="wordcount", inputs=("in.txt",), tag=str(n), **kw)


def test_the_core_imports_no_io():
    tree = ast.parse(Path(core.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module.split(".")[0])
            if node.module == "repro.service.protocol":
                # the error codes, never the frame I/O
                assert all(a.name.startswith("ERR_") for a in node.names)
    assert not imported & {
        "asyncio", "socket", "os", "pathlib", "time", "subprocess", "signal",
    }


# -- admission_verdict --------------------------------------------------------

ACME = {"tenant": "acme"}

#: (config, active specs, queue depth, submitted spec) -> (code, counters),
#: each limit at its boundary and one under it.
ADMISSION_TABLE = [
    ({"max_queue_depth": 2}, [], 1, {}, None),
    ({"max_queue_depth": 2}, [], 2, {},
     (ERR_QUEUE_FULL, ("rejected",))),
    ({"tenant_max_concurrent": 2}, [ACME, {}], 0, ACME, None),
    ({"tenant_max_concurrent": 2}, [ACME, ACME], 0, ACME,
     (ERR_TENANT_BUDGET, ("tenant_rejected", "rejected"))),
    ({"tenant_max_concurrent": 2}, [ACME, ACME], 0, {}, None),
    ({"tenant_budget": 1000}, [{**ACME, "memory_budget": "600"}], 0,
     {**ACME, "memory_budget": "400"}, None),
    ({"tenant_budget": 1000}, [{**ACME, "memory_budget": "600"}], 0,
     {**ACME, "memory_budget": "401"},
     (ERR_TENANT_BUDGET, ("tenant_rejected", "rejected"))),
    ({"tenant_budget": 1000}, [{"memory_budget": "600"}], 0,
     {**ACME, "memory_budget": "401"}, None),
    ({"service_budget": 1000}, [], 0, {},
     (ERR_BUDGET_EXCEEDED, ("rejected",))),  # must declare a budget
    ({"service_budget": 1000, "default_job_budget": 500}, [{}], 0, {}, None),
    ({"service_budget": 1000, "default_job_budget": 501}, [{}], 0, {},
     (ERR_BUDGET_EXCEEDED, ("rejected",))),
    ({"service_budget": 1000}, [{**ACME, "memory_budget": "600"}], 0,
     {"memory_budget": "400"}, None),
    ({"service_budget": 1000}, [{**ACME, "memory_budget": "600"}], 0,
     {"memory_budget": "401"}, (ERR_BUDGET_EXCEEDED, ("rejected",))),
    ({"node_bandwidth": 1000, "shed_factor": 2.0}, [{"io_budget": "1500"}],
     0, {"io_budget": "500"}, None),
    ({"node_bandwidth": 1000, "shed_factor": 2.0}, [{"io_budget": "1500"}],
     0, {"io_budget": "501"}, (ERR_OVERLOADED, ("shed", "rejected"))),
    # no declared demand, nothing to shed
    ({"node_bandwidth": 1000}, [{"io_budget": "5000"}], 0, {}, None),
]


@pytest.mark.parametrize("limits, active, depth, submitted, expected",
                         ADMISSION_TABLE)
def test_admission_verdict(limits, active, depth, submitted, expected):
    verdict = admission_verdict(
        spec(99, **submitted),
        [spec(n, **kw) for n, kw in enumerate(active)],
        depth, config(**limits),
    )
    if expected is None:
        assert verdict is None
    else:
        assert (verdict.code, verdict.counters) == expected
        assert verdict.message


def test_admission_without_limits_never_walks_the_table():
    def table():
        raise AssertionError("the job table was iterated")
        yield

    assert admission_verdict(spec(), table(), 0, config()) is None
    # the queue-depth check needs no pass either
    full = admission_verdict(spec(), table(), 16, config(max_queue_depth=16))
    assert full.code == ERR_QUEUE_FULL


def test_admission_walks_the_table_once():
    active = iter([spec(1, memory_budget="1"), spec(2, io_budget="1")])
    assert admission_verdict(
        spec(3, memory_budget="1", io_budget="1", tenant="acme"), active, 0,
        config(service_budget=10, tenant_budget=10, tenant_max_concurrent=5,
               node_bandwidth=10),
    ) is None
    assert list(active) == []


# -- io_share -----------------------------------------------------------------


def test_io_share_counts_every_contender_on_the_host():
    cfg = config(node_bandwidth=1000)
    thirsty = spec(io_budget="1000")
    a, b = ("10.0.0.1:7000",), ("10.0.0.2:7000",)
    assert io_share("j", {"j": (thirsty, ())}, cfg) == 1000
    assert io_share("j", {"i": (thirsty, ()), "j": (thirsty, ())}, cfg) == 500
    # other hosts bring their own disk; undeclared jobs take nothing
    assert io_share("j", {"i": (thirsty, a), "j": (thirsty, b)}, cfg) == 1000
    assert io_share("j", {"i": (spec(), ()), "j": (thirsty, ())}, cfg) == 1000
    assert io_share("j", {"j": (spec(), ())}, cfg) is None
    assert io_share("j", {"j": (thirsty, ())}, config()) is None


# -- attempt_outcome ----------------------------------------------------------

PEERS = ("10.0.0.1:7000", "10.0.0.2:7000")
UNREACHABLE = "PeerUnreachable: cannot reach 10.0.0.2:7000"
CRASHED = ("runner_crashes",)
STALE = ("stale_dispatches",)

#: attempt_outcome(**inputs) == Outcome(...), every arm; attempts are
#: out of ``max_attempts=3``.
OUTCOME_TABLE = [
    # what the daemon did to the runner outranks what the runner says
    (dict(rc=-9, timed_out=True, draining=True, cancelling=True),
     Outcome(STATE_FAILED, 4,
             "runner exceeded the service job timeout (5.0s)")),
    (dict(rc=-15, draining=True, cancelling=True), Outcome(STATE_QUEUED)),
    (dict(rc=-15, cancelling=True),
     Outcome(STATE_CANCELLED, -15, "cancelled while running")),
    (dict(rc=0, cancelling=True),
     Outcome(STATE_CANCELLED, 0, "cancelled while running")),
    (dict(rc=None, cancelling=True),  # cancelled, then the zygote died
     Outcome(STATE_CANCELLED, None, "cancelled while running")),
    # the runner's own verdict
    (dict(rc=0), Outcome(STATE_DONE, 0)),
    (dict(rc=4), Outcome(STATE_DONE, 4)),
    (dict(rc=1, error="JobError: boom"),
     Outcome(STATE_FAILED, 1, "JobError: boom")),
    (dict(rc=3, error="JobError: boom", attempt=3),
     Outcome(STATE_FAILED, 3, "JobError: boom")),
    (dict(rc=2, error=UNREACHABLE),  # the user's own --peers: their mistake
     Outcome(STATE_FAILED, 2, UNREACHABLE)),
    (dict(rc=1, error=UNREACHABLE, placement=PEERS),
     Outcome(STATE_FAILED, 1, UNREACHABLE)),
    # stale dispatch: ours, retried while attempts are left
    (dict(rc=2, error=UNREACHABLE, placement=PEERS, attempt=2),
     Outcome(STATE_QUEUED, counters=STALE, lost_hosts=PEERS[1:])),
    (dict(rc=2, error="PeerUnreachable: no agent answered", placement=PEERS),
     Outcome(STATE_QUEUED, counters=STALE, lost_hosts=PEERS)),
    (dict(rc=2, error=UNREACHABLE, placement=PEERS, attempt=3),
     Outcome(STATE_FAILED, 2, UNREACHABLE + "; attempts exhausted (3)",
             counters=STALE, lost_hosts=PEERS[1:])),
    # signal death, unclassified exit, never forked: relaunch, bounded
    (dict(rc=-9, attempt=2),
     Outcome(STATE_QUEUED, counters=CRASHED, crashed="exit -9")),
    (dict(rc=-9, attempt=3),
     Outcome(STATE_FAILED, 1,
             "runner crashed (exit -9) 3 time(s); attempts exhausted",
             counters=CRASHED, crashed="exit -9")),
    (dict(rc=70), Outcome(STATE_QUEUED, counters=CRASHED, crashed="exit 70")),
    (dict(rc=None),
     Outcome(STATE_QUEUED, counters=CRASHED,
             crashed="the zygote died before the fork")),
    (dict(rc=None, attempt=3),
     Outcome(STATE_FAILED, 1,
             "runner crashed (the zygote died before the fork) 3 time(s); "
             "attempts exhausted",
             counters=CRASHED, crashed="the zygote died before the fork")),
]


@pytest.mark.parametrize("inputs, expected", OUTCOME_TABLE)
def test_attempt_outcome(inputs, expected):
    defaults = dict(
        timed_out=False, draining=False, cancelling=False, error=None,
        placement=(), attempt=1,
    )
    assert attempt_outcome(
        **{**defaults, **inputs},
        config=config(max_attempts=3, job_timeout_s=5.0),
    ) == expected
