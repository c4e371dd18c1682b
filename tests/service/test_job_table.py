"""The daemon's job table: one in-memory source of truth, the disk its log.

The daemon is the only writer of ``record.json`` / ``spec.json``, so
after ``_recover()`` it must never read them back; every transition it
makes must be on disk before it is in the table; and whatever a daemon
hands one attempt (placement, bandwidth share) must die with that
attempt.  The tests drive a :class:`JobService` in this process — over
TCP with real runners for the counting test, with a scripted zygote for
everything that needs a runner parked or ended on cue.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import random
import shutil
import signal
import tempfile
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

import repro.service.runner as runner_mod
import repro.service.server as server_mod
import repro.service.state as state_mod
from repro.errors import AdmissionError
from repro.resilience.journal import JobJournal
from repro.service.client import ServiceClient
from repro.service.core import io_share
from repro.service.jobspec import ServiceJobSpec
from repro.service.protocol import (
    ERR_BUDGET_EXCEEDED,
    ERR_OVERLOADED,
    ERR_TENANT_BUDGET,
)
from repro.service.server import JobService, ServiceConfig
from repro.service.state import (
    STATE_CANCELLED,
    STATE_DONE,
    STATE_FAILED,
    STATE_QUEUED,
    STATE_RUNNING,
    JobRecord,
    ServiceState,
)
from repro.service.zygote import Runner
from repro.util.units import parse_size


def make_service(tmp_path, **kw) -> JobService:
    return JobService(ServiceConfig(state_dir=str(tmp_path / "state"), **kw))


def make_spec(tmp_path, n=0, **kw) -> ServiceJobSpec:
    path = tmp_path / "input.txt"
    if not path.exists():
        path.write_text("alpha beta gamma\n")
    return ServiceJobSpec(
        app="wordcount", inputs=(str(path),), tag=f"job-{n}", **kw
    )


class ScriptedZygote:
    """Stands in for ``Zygote``: a spawn parks until the test lets it
    through, and the runner it returns ends when the test says so — or
    when the daemon signals it (see :func:`scripted_signals`)."""

    #: made-up pids no process has, unique across zygotes
    pids = itertools.count(10**7)
    #: the zygotes a signal may be meant for (one test's worth)
    instances: "list[ScriptedZygote]" = []

    def __init__(self, service: JobService, parked: bool = False) -> None:
        self.requests: list[dict] = []
        self.live: dict[str, Runner] = {}
        self.gate = asyncio.Event()
        if not parked:
            self.gate.set()
        service._ensure_zygote = lambda: self
        self.instances.append(self)

    async def spawn(self, request: dict) -> Runner:
        self.requests.append(dict(request))
        await self.gate.wait()
        runner = self.live[request["job_id"]] = Runner(next(self.pids))
        return runner

    def end(self, job_id: str, returncode: int) -> None:
        self.live.pop(job_id)._end(returncode)

    def signalled(self, pid: int, sig: int) -> None:
        """The scripted runner obeys: it dies of the signal."""
        for job_id, runner in list(self.live.items()):
            if runner.pid == pid:
                self.end(job_id, -sig)


async def settle() -> None:
    """Let every ready callback and task step run."""
    for _ in range(20):
        await asyncio.sleep(0)


def scripted_signals(sent: list):
    """A ``signal_runner_tree`` for made-up pids: records the kill in
    ``sent`` and ends the scripted runner it names, delivering nothing."""

    def signal_runner_tree(pid: int, sig: int = signal.SIGKILL) -> None:
        sent.append((pid, sig))
        for zygote in ScriptedZygote.instances:
            zygote.signalled(pid, sig)

    return signal_runner_tree


@pytest.fixture
def no_signals(monkeypatch):
    """The kills the daemon sent its (scripted) runners, in order."""
    sent: list[tuple[int, int]] = []
    monkeypatch.setattr(ScriptedZygote, "instances", [])
    monkeypatch.setattr(server_mod, "signal_runner_tree", scripted_signals(sent))
    return sent


# -- (a) the daemon never reads its own records back --------------------------


class LiveDaemon:
    """A started ``JobService`` on its own event-loop thread."""

    def __init__(self, state_dir, **kw) -> None:
        self.service = JobService(ServiceConfig(state_dir=str(state_dir), **kw))
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        self._loop.run_until_complete(self.service.start())
        self._ready.set()
        self._loop.run_until_complete(self.service.run_until_stopped())
        self._loop.close()

    def __enter__(self) -> "LiveDaemon":
        self._thread.start()
        assert self._ready.wait(30), "daemon never came up"
        return self

    def __exit__(self, *exc) -> None:
        self._loop.call_soon_threadsafe(self.service.request_stop)
        self._thread.join(60)


def test_no_record_or_spec_is_read_back_after_recovery(tmp_path, monkeypatch):
    state_dir = tmp_path / "state"
    # something for _recover() to read: a job from an earlier daemon
    earlier = ServiceState(state_dir)
    earlier.create_job(
        make_spec(tmp_path, 999),
        JobRecord(job_id="earlier", state=STATE_DONE, exit_code=0),
    )
    reads: list[str] = []
    real_read = state_mod.read_json_crc

    def counting_read(path):
        reads.append(path.name)
        return real_read(path)

    monkeypatch.setattr(state_mod, "read_json_crc", counting_read)
    writes: list[tuple] = []
    real_write = state_mod.write_json_crc

    def counting_write(path, payload):
        writes.append(
            (path.name, payload.get("state"), payload.get("result_fetched"))
        )
        real_write(path, payload)

    monkeypatch.setattr(state_mod, "write_json_crc", counting_write)
    with LiveDaemon(state_dir, max_concurrent=2, max_queue_depth=64) as daemon:
        assert sorted(reads) == ["record.json", "spec.json"]  # _recover()
        client = ServiceClient.from_state_dir(state_dir)
        reads.clear()  # the client read endpoint.json
        per_fetch: list[int] = []
        per_trip: list[list[tuple]] = []
        for n in range(30):
            writes.clear()
            job_id = client.submit(make_spec(tmp_path, n))["job_id"]
            assert client.status(job_id)["job"]["job_id"] == job_id
            assert client.wait(job_id, timeout_s=120).state == STATE_DONE
            before = len(reads)
            assert client.result(job_id)["report"]["digest"]
            per_fetch.append(len(reads) - before)
            assert client.cancel(job_id)["job"]["state"] == STATE_DONE
            assert client.submit(make_spec(tmp_path, n))["reattached"]
            per_trip.append(list(writes))
        listed = client.status()["jobs"]
        assert [job["seq"] for job in listed] == sorted(j["seq"] for j in listed)
        assert len(listed) == 31 == len(daemon.service.state.jobs)
    # a result fetch costs the same — nothing — at 1 job and at 30
    assert per_fetch == [0] * 30
    # and a trip's durable writes are these, in this order
    assert per_trip == [[
        ("spec.json", None, None),
        ("record.json", STATE_QUEUED, False),
        ("record.json", STATE_RUNNING, False),
        ("record.json", STATE_DONE, False),
        ("record.json", STATE_DONE, True),
    ]] * 30
    assert [name for name in reads if name in ("record.json", "spec.json")] == []


# -- satellite: a dispatching job is active -----------------------------------


class TestDispatchingJobCountsAgainstLimits:
    """Between ``_pop_next`` and the runner's fork a job is out of the
    queue and has no runner; admission must still count it."""

    def _park_first(self, tmp_path, first_kw, **config):
        svc = make_service(tmp_path, **config)
        zygote = ScriptedZygote(svc, parked=True)
        first, _ = svc.admit(make_spec(tmp_path, 0, **first_kw))
        return svc, zygote, first

    async def _assert_rejected(self, svc, zygote, first, spec, code):
        await settle()
        assert zygote.requests and not zygote.live  # parked in spawn
        assert svc.queue_depth() == 0
        assert svc._attempts[first.job_id].runner is None
        with pytest.raises(AdmissionError) as rejected:
            svc.admit(spec)
        assert rejected.value.code == code
        # once the attempt is over the same submission is admitted
        zygote.gate.set()
        await settle()
        zygote.end(first.job_id, -9)
        await settle()
        assert svc.state.jobs[first.job_id].record.state == STATE_FAILED
        assert not svc.admit(spec)[1]

    def test_tenant_max_concurrent(self, tmp_path, no_signals):
        async def scenario():
            svc, zygote, first = self._park_first(
                tmp_path, {"tenant": "acme"},
                tenant_max_concurrent=1, max_attempts=1,
            )
            await self._assert_rejected(
                svc, zygote, first, make_spec(tmp_path, 1, tenant="acme"),
                ERR_TENANT_BUDGET,
            )

        asyncio.run(scenario())

    def test_tenant_budget(self, tmp_path, no_signals):
        async def scenario():
            svc, zygote, first = self._park_first(
                tmp_path, {"tenant": "acme", "memory_budget": "600KB"},
                tenant_budget="1MB", max_attempts=1,
            )
            await self._assert_rejected(
                svc, zygote, first,
                make_spec(tmp_path, 1, tenant="acme", memory_budget="600KB"),
                ERR_TENANT_BUDGET,
            )

        asyncio.run(scenario())

    def test_service_budget(self, tmp_path, no_signals):
        async def scenario():
            svc, zygote, first = self._park_first(
                tmp_path, {"memory_budget": "600KB"},
                service_budget="1MB", max_attempts=1,
            )
            await self._assert_rejected(
                svc, zygote, first,
                make_spec(tmp_path, 1, memory_budget="600KB"),
                ERR_BUDGET_EXCEEDED,
            )

        asyncio.run(scenario())

    def test_bandwidth_shed_sum(self, tmp_path, no_signals):
        async def scenario():
            svc, zygote, first = self._park_first(
                tmp_path, {"io_budget": "1500"},
                node_bandwidth=1000, shed_factor=2.0, max_attempts=1,
            )
            await self._assert_rejected(
                svc, zygote, first, make_spec(tmp_path, 1, io_budget="1500"),
                ERR_OVERLOADED,
            )

        asyncio.run(scenario())


# -- satellite: nothing of one attempt reaches the next -----------------------


def test_share_of_an_earlier_daemon_never_reaches_a_later_runner(
    tmp_path, no_signals, monkeypatch
):
    spec = make_spec(tmp_path, 0, io_budget="4KB")
    job_dir = tmp_path / "state" / "jobs" / spec.job_id()

    def runner_options(request):
        """Run the job as a runner forked for ``request`` would; returns
        the exit code and the options the runtime was handed."""
        seen = []
        real_run_job = runner_mod.run_job

        def run_job(job, options):
            seen.append(options)
            return real_run_job(job, options)

        monkeypatch.setattr(runner_mod, "run_job", run_job)
        code = runner_mod.run_job_dir(job_dir, request)
        monkeypatch.setattr(runner_mod, "run_job", real_run_job)
        return code, seen[0]

    async def attempt_under(**config) -> dict:
        """One daemon over the state dir, killed (not drained) with the
        attempt it dispatched still running; returns the spawn request."""
        svc = make_service(tmp_path, **config)
        zygote = ScriptedZygote(svc)
        svc._recover()
        if spec.job_id() not in svc.state.jobs:
            svc.admit(spec)
        svc._schedule()
        await settle()
        assert svc.state.jobs[spec.job_id()].record.state == STATE_RUNNING
        (request,) = zygote.requests
        for attempt in list(svc._attempts.values()):
            attempt.task.cancel()
        await settle()
        return request

    request_a = asyncio.run(attempt_under(node_bandwidth=3000))
    assert request_a["io_budget"] == 3000  # its share, not its 4 KB ask
    code, options = runner_options(request_a)
    assert (code, options.io_budget) == (0, 3000)

    # daemon B: restarted over the same dir without --node-bandwidth
    request_b = asyncio.run(attempt_under())
    assert "io_budget" not in request_b
    code, options = runner_options(request_b)
    assert (code, options.io_budget) == (0, parse_size("4KB"))
    assert options.tenant == spec.tenant
    assert not (job_dir / "qos.json").exists()


# -- the dispatch window: popped, its runner still forking --------------------


def forbid_leaving_a_terminal_state(svc: JobService) -> dict[str, list[str]]:
    """Fail the transition that follows a terminal one; returns the
    states each job was saved in, in order."""
    history: dict[str, list[str]] = {}
    real_save = svc.state.save_record

    def save_record(record: JobRecord) -> None:
        was = svc.state.jobs[record.job_id].record
        assert not was.finished or record.state == was.state, (was, record)
        history.setdefault(record.job_id, []).append(record.state)
        real_save(record)

    svc.state.save_record = save_record
    return history


class TestDispatchWindow:
    def test_cancel_while_the_runner_is_forking(self, tmp_path, no_signals):
        async def scenario():
            svc = make_service(tmp_path)
            zygote = ScriptedZygote(svc, parked=True)
            history = forbid_leaving_a_terminal_state(svc)
            record, _ = svc.admit(make_spec(tmp_path, 0))
            await settle()
            assert zygote.requests and not zygote.live  # parked in spawn
            reply = svc._handle_cancel({"job_id": record.job_id})
            assert reply["cancelling"]
            assert reply["job"]["state"] == STATE_QUEUED  # what the disk says
            assert no_signals == []  # nothing to signal yet
            zygote.gate.set()
            await settle()
            # the runner was told as soon as it existed, and obeyed
            assert [sig for _, sig in no_signals] == [signal.SIGTERM]
            final = svc.state.jobs[record.job_id].record
            assert (final.state, final.exit_code) == (STATE_CANCELLED, -15)
            assert final.attempts == 1
            assert history[record.job_id] == [STATE_RUNNING, STATE_CANCELLED]
            assert svc.counters["cancelled"] == 1 and svc._attempts == {}
            assert not (svc.state.job_dir(record.job_id) / "runner.pid").exists()

        asyncio.run(scenario())

    def test_jobs_popped_in_one_pass_share_as_if_dispatched_in_turn(
        self, tmp_path, no_signals
    ):
        async def scenario():
            svc = make_service(
                tmp_path, max_concurrent=2, node_bandwidth=1000, max_attempts=1,
            )
            zygote = ScriptedZygote(svc, parked=True)
            svc._schedule = lambda: None
            first, _ = svc.admit(make_spec(tmp_path, 0, io_budget="1000"))
            second, _ = svc.admit(make_spec(tmp_path, 1, io_budget="1000"))
            del svc._schedule
            svc._schedule()  # one pass pops both
            await settle()
            assert not zygote.live  # both still forking
            assert [r.get("io_budget") for r in zygote.requests] == [1000, 500]
            # the later one got what the allocator gives it among everyone
            assert svc._attempts[second.job_id].io_share == io_share(
                second.job_id,
                {
                    job_id: (svc.state.jobs[job_id].spec, ())
                    for job_id in (first.job_id, second.job_id)
                },
                svc.config,
            )
            assert svc._handle_ping({})["io_assigned_bps"] == 1500
            zygote.gate.set()
            await settle()
            for job_id in (first.job_id, second.job_id):
                zygote.end(job_id, -9)
            await settle()
            assert svc._handle_ping({})["io_assigned_bps"] == 0

        asyncio.run(scenario())


# -- (b) table == disk, at every quiescent point ------------------------------


def assert_table_is_the_disk(svc: JobService) -> None:
    fresh = ServiceState(svc.state.state_dir)
    on_disk = fresh.load_all_records()
    assert [r.job_id for r in on_disk] == list(svc.state.jobs)
    for record in on_disk:
        entry = svc.state.jobs[record.job_id]
        assert record == entry.record
        assert fresh.load_spec(record.job_id) == entry.spec


def assert_recovers_to_the_same_table(svc: JobService, tmp_path, n: int) -> None:
    """A second daemon over a copy of the dir (as after kill -9) builds
    the same table, interrupted jobs requeued."""
    copy = tmp_path / f"recovered-{n}"
    shutil.copytree(svc.state.state_dir, copy)
    revived = JobService(ServiceConfig(state_dir=str(copy)))
    revived._schedule = lambda: None
    revived._recover()
    expected = {
        job_id: (
            entry.spec,
            entry.record.with_(state=STATE_QUEUED)
            if entry.record.state == STATE_RUNNING else entry.record,
        )
        for job_id, entry in svc.state.jobs.items()
    }
    assert {
        job_id: (entry.spec, entry.record)
        for job_id, entry in revived.state.jobs.items()
    } == expected
    assert list(revived.state.jobs) == list(svc.state.jobs)
    assert revived.queue_depth() == sum(
        record.state == STATE_QUEUED for _, record in expected.values()
    )
    shutil.rmtree(copy)


@pytest.mark.parametrize("seed", range(6))
def test_table_equals_disk_over_a_seeded_history(tmp_path, no_signals, seed):
    rng = random.Random(seed)

    async def scenario():
        svc = make_service(
            tmp_path, max_concurrent=2, max_queue_depth=64, retention=2,
        )
        zygote = ScriptedZygote(svc)
        specs: dict[str, ServiceJobSpec] = {}
        forbid_leaving_a_terminal_state(svc)
        window_cancels = 0

        def jobs_in(*states):
            return sorted(
                job_id for job_id, entry in svc.state.jobs.items()
                if entry.record.state in states
            )

        def end(job_id, rc, **files):
            for name, payload in files.items():
                path = svc.state.job_dir(job_id) / f"{name}.json"
                path.write_text(json.dumps(payload))
            zygote.end(job_id, rc)

        for step in range(80):
            op = rng.choice([
                "admit", "admit", "finish", "finish", "fail", "crash",
                "cancel", "cancel", "rerun", "fetch", "park", "unpark",
            ])
            running = sorted(zygote.live)
            finished = jobs_in(STATE_DONE, STATE_FAILED, STATE_CANCELLED)
            if op == "park":
                zygote.gate.clear()  # spawns from here on sit in the window
            elif op == "unpark":
                zygote.gate.set()
            elif op == "admit":
                # never run, so a made-up input: the job ids, and with
                # them every choice below, depend on the seed alone
                spec = ServiceJobSpec(
                    app="wordcount", inputs=("input.txt",),
                    tag=f"job-{len(specs)}",
                )
                specs[spec.job_id()] = spec
                svc.admit(spec)
            elif op == "finish" and running:
                end(rng.choice(running), 0,
                    result={"digest": f"d{step}", "counters": {}})
            elif op == "fail" and running:
                end(rng.choice(running), 1,
                    error={"type": "JobError", "message": "scripted"})
            elif op == "crash" and running:
                end(rng.choice(running), -9)
            elif op == "cancel" and (live := jobs_in(STATE_QUEUED, STATE_RUNNING)):
                # at a random point of a job's life: queued, forking
                # (the dispatch window) or running
                job_id = rng.choice(live)
                attempt = svc._attempts.get(job_id)
                reply = svc._handle_cancel({"job_id": job_id})
                if attempt is None:
                    assert reply["job"]["state"] == STATE_CANCELLED
                else:
                    assert reply["cancelling"] and attempt.cancelling
                    window_cancels += attempt.runner is None
            elif op == "rerun" and finished:
                job_id = rng.choice(finished)
                record, reattached = svc.admit(specs[job_id], rerun=True)
                assert not reattached and record.attempts == 0
            elif op == "fetch" and finished:
                reply = svc._handle_result({"job_id": rng.choice(finished)})
                assert reply["job"]["result_fetched"]
            await settle()
            assert_table_is_the_disk(svc)
            if step % 16 == 15:
                assert_recovers_to_the_same_table(svc, tmp_path, step)
        # the history exercised what it set out to
        assert svc.counters["completed"] and svc.counters["runner_crashes"]
        assert window_cancels
        assert_recovers_to_the_same_table(svc, tmp_path, 80)
        zygote.gate.set()
        svc.request_stop()
        await svc._drain()
        assert_table_is_the_disk(svc)
        assert svc._attempts == {} and not jobs_in(STATE_RUNNING)

    asyncio.run(scenario())


# -- every attempt settles, whatever the interleaving --------------------------


class AttemptLifecycle(RuleBasedStateMachine):
    """Admissions, fork answers, runner exits, cancels and a drain in any
    order: the slots are never over-filled, and once everything has been
    let through nothing is left dispatched."""

    MAX_CONCURRENT = 2

    def __init__(self) -> None:
        super().__init__()
        self.tmp = Path(tempfile.mkdtemp(prefix="attempt-lifecycle-"))
        self.loop = asyncio.new_event_loop()
        self.patches = [
            mock.patch.object(ScriptedZygote, "instances", []),
            mock.patch.object(
                server_mod, "signal_runner_tree", scripted_signals([])
            ),
        ]
        for patch in self.patches:
            patch.start()
        self.svc = make_service(
            self.tmp, max_concurrent=self.MAX_CONCURRENT, max_queue_depth=64,
            node_bandwidth=1000, shed_factor=100.0,
        )
        self.zygote = ScriptedZygote(self.svc, parked=True)
        forbid_leaving_a_terminal_state(self.svc)
        self.admitted = 0

    def run(self, step=None) -> None:
        """Run ``step`` on the daemon's loop, then let everything ready run."""

        async def stepped():
            if step is not None:
                step()
            await settle()

        self.loop.run_until_complete(stepped())

    def teardown(self) -> None:
        # let every parked fork through and every runner end: then a
        # drain finds the daemon as quiet as a finished one
        self.zygote.gate.set()
        self.run()
        while self.zygote.live:
            self.run(lambda: self.zygote.end(next(iter(self.zygote.live)), -9))
        self.svc.request_stop()
        self.loop.run_until_complete(self.svc._drain())
        assert self.svc._attempts == {}
        assert self.svc._handle_ping({})["io_assigned_bps"] == 0
        assert all(
            entry.record.state != STATE_RUNNING
            for entry in self.svc.state.jobs.values()
        )
        assert_table_is_the_disk(self.svc)
        for patch in self.patches:
            patch.stop()
        self.loop.close()
        shutil.rmtree(self.tmp)

    @precondition(lambda self: not self.svc._draining)
    @rule(thirsty=st.booleans())
    def admit(self, thirsty):
        # never run, so a made-up input: job ids (and the order they sort
        # in) must not vary with the temp dir from one replay to the next
        spec = ServiceJobSpec(
            app="wordcount", inputs=("input.txt",),
            tag=f"job-{self.admitted}", io_budget="1000" if thirsty else None,
        )
        self.admitted += 1
        self.run(lambda: self.svc.admit(spec))

    @rule()
    def fork_answers(self):
        """The zygote answers every spawn it was sent so far."""
        self.zygote.gate.set()
        self.run()
        self.zygote.gate.clear()

    @precondition(lambda self: self.zygote.live)
    @rule(data=st.data(), rc=st.sampled_from([0, 1, 2, -9, 70]))
    def runner_exits(self, data, rc):
        job_id = data.draw(st.sampled_from(sorted(self.zygote.live)))
        job_dir = self.svc.state.job_dir(job_id)
        (job_dir / "result.json").write_text('{"digest": "d", "counters": {}}')
        (job_dir / "error.json").write_text('{"type": "E", "message": "m"}')
        self.run(lambda: self.zygote.end(job_id, rc))

    @precondition(lambda self: self.svc.state.jobs)
    @rule(data=st.data())
    def cancel(self, data):
        job_id = data.draw(st.sampled_from(sorted(self.svc.state.jobs)))
        self.run(lambda: self.svc._handle_cancel({"job_id": job_id}))

    @precondition(lambda self: not self.svc._draining and self.admitted >= 3)
    @rule()
    def drain_begins(self):
        """SIGTERM / ``shutdown``: running runners are told at once,
        forking ones when their fork answers."""
        self.run(self.svc.request_stop)
        for attempt in self.svc._attempts.values():
            if attempt.runner is not None:
                server_mod.signal_runner_tree(attempt.runner.pid, signal.SIGTERM)
        self.run()

    @invariant()
    def slots_are_never_overfilled(self):
        assert len(self.svc._attempts) <= self.MAX_CONCURRENT
        # a dispatched job is out of the queue, and never finished
        for job_id in self.svc._attempts:
            assert not self.svc.state.jobs[job_id].record.finished
        # whoever has a runner is exactly who the zygote has live
        assert {
            job_id for job_id, attempt in self.svc._attempts.items()
            if attempt.runner is not None
        } == set(self.zygote.live)
        # a runner that was to be told (cancel, drain) has been, whether
        # it existed at the time or was still forking — and it obeyed
        for attempt in self.svc._attempts.values():
            if attempt.cancelling or self.svc._draining:
                assert attempt.runner is None


AttemptLifecycle.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None,
)
TestAttemptLifecycle = AttemptLifecycle.TestCase


# -- (c) reaping: what the parent's scan reaped, in its order ------------------


def scan_and_reap(state_dir, retention: int) -> list[str]:
    """The per-fetch reap as it was before the table: read every record
    in the state dir, sort, drop the excess."""
    state = ServiceState(state_dir)
    finished = [
        r for r in state.load_all_records()
        if r.finished and r.result_fetched
        and state.checkpoint_dir(r.job_id).exists()
    ]
    finished.sort(key=lambda r: r.seq)
    reaped = []
    for record in finished[:max(0, len(finished) - max(0, retention))]:
        if JobJournal.purge_dir(state.checkpoint_dir(record.job_id)):
            reaped.append(record.job_id)
    return reaped


@pytest.mark.parametrize("retention", [0, 2, 20])
def test_reaps_what_the_scan_reaped_in_the_same_order(tmp_path, retention):
    rng = random.Random(retention)
    table = ServiceState(tmp_path / "table")
    scanned = ServiceState(tmp_path / "scanned")
    records = []
    for n in range(50):
        prefetched = n % 7 == 0  # fetched under an earlier daemon
        record = JobRecord(
            job_id=f"job-{n:02d}", seq=n, exit_code=0,
            state=STATE_DONE if n % 5 else STATE_FAILED,
            result_fetched=prefetched,
        )
        for state in (table, scanned):
            state.create_job(make_spec(tmp_path, n), record)
        if not prefetched:
            records.append(record)
    # the daemon under test starts over that directory
    table = ServiceState(tmp_path / "table")
    table.load_jobs()
    for record in rng.sample(records, 30):  # 12 stay unfetched
        fetched = record.with_(result_fetched=True)
        table.save_record(fetched)
        state_mod.write_json_crc(
            scanned.record_path(record.job_id), fetched.to_dict()
        )
        assert (
            table.reap_checkpoints(retention)
            == scan_and_reap(tmp_path / "scanned", retention)
        )
    for state in (table, scanned):
        kept = [
            job_id for job_id in table.jobs
            if state.checkpoint_dir(job_id).exists()
        ]
        fetched_kept = [
            j for j in kept if table.jobs[j].record.result_fetched
        ]
        assert len(fetched_kept) == min(retention, 38)
        assert len(kept) == 12 + len(fetched_kept)
