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
import json
import random
import shutil
import threading

import pytest

import repro.service.runner as runner_mod
import repro.service.server as server_mod
import repro.service.state as state_mod
from repro.errors import AdmissionError
from repro.resilience.journal import JobJournal
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.jobspec import ServiceJobSpec
from repro.service.protocol import (
    ERR_BUDGET_EXCEEDED,
    ERR_OVERLOADED,
    ERR_TENANT_BUDGET,
)
from repro.service.server import JobService, ServiceConfig, _Runner
from repro.service.state import (
    STATE_CANCELLED,
    STATE_DONE,
    STATE_FAILED,
    STATE_QUEUED,
    STATE_RUNNING,
    JobRecord,
    ServiceState,
)
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
    """Stands in for ``_Zygote``: a spawn parks until the test lets it
    through, and the runner it returns ends when the test says so."""

    def __init__(self, service: JobService, parked: bool = False) -> None:
        self.requests: list[dict] = []
        self.live: dict[str, _Runner] = {}
        self.gate = asyncio.Event()
        if not parked:
            self.gate.set()
        service._ensure_zygote = lambda: self

    async def spawn(self, request: dict) -> _Runner:
        self.requests.append(dict(request))
        await self.gate.wait()
        # never signalled: the tests patch signal_runner_tree
        runner = self.live[request["job_id"]] = _Runner(10**7 + len(self.requests))
        return runner

    def end(self, job_id: str, returncode: int) -> None:
        self.live.pop(job_id)._end(returncode)


async def settle() -> None:
    """Let every ready callback and task step run."""
    for _ in range(20):
        await asyncio.sleep(0)


class ReplyCollector:
    """A ``StreamWriter`` stand-in that decodes what a handler wrote."""

    def __init__(self) -> None:
        self.replies: list[dict] = []

    def write(self, data: bytes) -> None:
        self.replies.append(protocol.decode_frame(data))

    async def drain(self) -> None:
        pass


async def rpc(handler, **msg) -> dict:
    writer = ReplyCollector()
    await handler(msg, writer)
    return writer.replies[-1]


@pytest.fixture
def no_signals(monkeypatch):
    """Scripted runners have made-up pids; record kills, deliver none."""
    sent: list[tuple[int, int]] = []
    monkeypatch.setattr(
        server_mod, "signal_runner_tree",
        lambda pid, sig=9: sent.append((pid, sig)),
    )
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
    with LiveDaemon(state_dir, max_concurrent=2, max_queue_depth=64) as daemon:
        assert sorted(reads) == ["record.json", "spec.json"]  # _recover()
        client = ServiceClient.from_state_dir(state_dir)
        reads.clear()  # the client read endpoint.json
        per_fetch: list[int] = []
        for n in range(30):
            job_id = client.submit(make_spec(tmp_path, n))["job_id"]
            assert client.status(job_id)["job"]["job_id"] == job_id
            assert client.wait(job_id, timeout_s=120).state == STATE_DONE
            before = len(reads)
            assert client.result(job_id)["report"]["digest"]
            per_fetch.append(len(reads) - before)
            assert client.cancel(job_id)["job"]["state"] == STATE_DONE
            assert client.submit(make_spec(tmp_path, n))["reattached"]
        listed = client.status()["jobs"]
        assert [job["seq"] for job in listed] == sorted(j["seq"] for j in listed)
        assert len(listed) == 31 == len(daemon.service.state.jobs)
    # a result fetch costs the same — nothing — at 1 job and at 30
    assert per_fetch == [0] * 30
    assert [name for name in reads if name in ("record.json", "spec.json")] == []


# -- satellite: a dispatching job is active -----------------------------------


class TestDispatchingJobCountsAgainstLimits:
    """Between ``_pop_next`` and the runner's fork a job is in neither
    the queue nor ``_running``; admission must still count it."""

    def _park_first(self, tmp_path, first_kw, **config):
        svc = make_service(tmp_path, **config)
        zygote = ScriptedZygote(svc, parked=True)
        first, _ = svc.admit(make_spec(tmp_path, 0, **first_kw))
        return svc, zygote, first

    async def _assert_rejected(self, svc, zygote, first, spec, code):
        await settle()
        assert zygote.requests and not zygote.live  # parked in spawn
        assert svc.queue_depth() == 0 and not svc._running
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
        for task in list(svc._job_tasks):
            task.cancel()
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
                "cancel-queued", "cancel-running", "rerun", "fetch",
            ])
            running = sorted(zygote.live)
            finished = jobs_in(STATE_DONE, STATE_FAILED, STATE_CANCELLED)
            queued = [j for j in jobs_in(STATE_QUEUED) if j not in zygote.live]
            if op == "admit":
                spec = make_spec(tmp_path, len(specs))
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
            elif op == "cancel-queued" and queued:
                reply = await rpc(svc._handle_cancel, job_id=rng.choice(queued))
                assert reply["job"]["state"] == STATE_CANCELLED
            elif op == "cancel-running" and running:
                job_id = rng.choice(running)
                reply = await rpc(svc._handle_cancel, job_id=job_id)
                assert reply["cancelling"]
                zygote.end(job_id, -15)
            elif op == "rerun" and finished:
                job_id = rng.choice(finished)
                record, reattached = svc.admit(specs[job_id], rerun=True)
                assert not reattached and record.attempts == 0
            elif op == "fetch" and finished:
                reply = await rpc(svc._handle_result, job_id=rng.choice(finished))
                assert reply["job"]["result_fetched"]
            await settle()
            assert_table_is_the_disk(svc)
            if step % 16 == 15:
                assert_recovers_to_the_same_table(svc, tmp_path, step)
        # the history exercised what it set out to
        assert svc.counters["completed"] and svc.counters["runner_crashes"]
        assert_recovers_to_the_same_table(svc, tmp_path, 80)
        await svc._drain()
        assert_table_is_the_disk(svc)

    asyncio.run(scenario())


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
