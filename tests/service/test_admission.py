"""Admission control, queue ordering, and recovery — unit level.

These tests drive :class:`JobService` in-process: ``_run_job`` is
replaced with a stub that parks until released (so runner slots fill
without forking runners), or ``_schedule`` is disabled entirely
when only the queue/admission bookkeeping is under test.
"""

from __future__ import annotations

import asyncio
import subprocess
import sys
import time
from dataclasses import dataclass

import pytest

from repro.errors import AdmissionError
from repro.service.jobspec import ServiceJobSpec
from repro.service.protocol import (
    ERR_BAD_REQUEST,
    ERR_BUDGET_EXCEEDED,
    ERR_DRAINING,
    ERR_QUEUE_FULL,
    decode_frame,
)
from repro.service.server import JobService, ServiceConfig
from repro.service.state import (
    STATE_CANCELLED,
    STATE_DONE,
    STATE_QUEUED,
    STATE_RUNNING,
)


def make_service(tmp_path, **kw) -> JobService:
    return JobService(ServiceConfig(state_dir=str(tmp_path / "state"), **kw))


def make_spec(tmp_path, n=0, **kw) -> ServiceJobSpec:
    path = tmp_path / f"input-{n}.txt"
    if not path.exists():
        path.write_text("alpha beta gamma\n")
    return ServiceJobSpec(app="wordcount", inputs=(str(path),), **kw)


@dataclass
class _HeldRunners:
    """Stub runner pool: dispatched attempts park until released."""

    service: JobService
    started: list = None
    high_water: int = 0

    def __post_init__(self):
        self.started = []
        self.release = asyncio.Event()
        self.service._run_job = self._fake_run

    async def _fake_run(self, attempt, request):
        svc = self.service
        job_id = attempt.record.job_id
        self.started.append(job_id)
        self.high_water = max(self.high_water, len(svc._attempts))
        await self.release.wait()
        del svc._attempts[job_id]
        svc.state.save_record(
            attempt.record.with_(state=STATE_DONE, exit_code=0)
        )


class TestQueueAdmission:
    def test_queue_full_is_a_typed_rejection(self, tmp_path):
        async def scenario():
            svc = make_service(tmp_path, max_concurrent=1, max_queue_depth=2)
            _HeldRunners(svc)
            svc.admit(make_spec(tmp_path, 0))   # takes the runner slot
            await asyncio.sleep(0)
            svc.admit(make_spec(tmp_path, 1))   # queued
            svc.admit(make_spec(tmp_path, 2))   # queued (depth limit)
            with pytest.raises(AdmissionError) as exc:
                svc.admit(make_spec(tmp_path, 3))
            assert exc.value.code == ERR_QUEUE_FULL
            assert svc.counters["rejected"] == 1
            assert svc.queue_depth() == 2

        asyncio.run(scenario())

    def test_never_runs_more_than_max_concurrent(self, tmp_path):
        """Regression: a burst of submissions must not over-fill slots
        just because runner registration happens after an await point."""

        async def scenario():
            svc = make_service(tmp_path, max_concurrent=2,
                               max_queue_depth=16)
            held = _HeldRunners(svc)
            for n in range(5):
                svc.admit(make_spec(tmp_path, n))
            await asyncio.sleep(0.01)
            assert len(held.started) == 2
            assert svc.queue_depth() == 3
            held.release.set()
            for _ in range(200):
                await asyncio.sleep(0.005)
                if len(held.started) == 5 and not svc._attempts:
                    break
            assert len(held.started) == 5
            assert held.high_water <= 2

        asyncio.run(scenario())

    def test_draining_rejects_submissions(self, tmp_path):
        svc = make_service(tmp_path)
        svc._draining = True
        with pytest.raises(AdmissionError) as exc:
            svc.admit(make_spec(tmp_path))
        assert exc.value.code == ERR_DRAINING


class _Replies:
    """A ``StreamWriter`` stand-in that decodes what ``_dispatch`` wrote."""

    def __init__(self) -> None:
        self.replies: list[dict] = []

    def write(self, data: bytes) -> None:
        self.replies.append(decode_frame(data))

    async def drain(self) -> None:
        pass


class TestMalformedSpec:
    """A spec whose field is of the wrong type used to be admitted and
    made durable, and then broke every later scheduling pass."""

    @pytest.mark.parametrize("field, value", [
        ("priority", "hi"),       # TypeError in WeightedFairQueue.pop
        ("tenant", {"a": 1}),     # unhashable, after create_job
    ])
    def test_mistyped_field_is_refused_at_the_door(self, tmp_path, field, value):
        async def scenario():
            svc = make_service(tmp_path, max_concurrent=1)
            held = _HeldRunners(svc)
            bad = {**make_spec(tmp_path, 0).to_dict(), field: value}
            writer = _Replies()
            await svc._dispatch({"type": "submit", "spec": bad}, writer)
            (reply,) = writer.replies
            assert reply["error"]["code"] == ERR_BAD_REQUEST
            assert field in reply["error"]["message"]
            # nothing durable, nothing queued, nothing counted
            assert list(svc.state.jobs_dir.iterdir()) == []
            assert svc.queue_depth() == 0 and not svc.state.jobs
            assert svc.counters["admitted"] == 0
            # and dispatch goes on for everyone else
            other, _ = svc.admit(make_spec(tmp_path, 1, tenant="other"))
            await asyncio.sleep(0)
            assert held.started == [other.job_id]

        asyncio.run(scenario())


class TestBudgetAdmission:
    def test_budget_must_be_declared(self, tmp_path):
        svc = make_service(tmp_path, service_budget="1MB")
        svc._schedule = lambda: None
        with pytest.raises(AdmissionError) as exc:
            svc.admit(make_spec(tmp_path, 0))
        assert exc.value.code == ERR_BUDGET_EXCEEDED

    def test_budget_sum_is_capped(self, tmp_path):
        svc = make_service(tmp_path, service_budget="1MB")
        svc._schedule = lambda: None
        svc.admit(make_spec(tmp_path, 0, memory_budget="600KB"))
        with pytest.raises(AdmissionError) as exc:
            svc.admit(make_spec(tmp_path, 1, memory_budget="600KB"))
        assert exc.value.code == ERR_BUDGET_EXCEEDED
        # a job that still fits is admitted
        svc.admit(make_spec(tmp_path, 2, memory_budget="300KB"))

    def test_budget_frees_when_jobs_finish(self, tmp_path):
        async def scenario():
            svc = make_service(tmp_path, max_concurrent=1,
                               service_budget="1MB")
            held = _HeldRunners(svc)
            first = make_spec(tmp_path, 0, memory_budget="800KB")
            svc.admit(first)
            await asyncio.sleep(0)
            second = make_spec(tmp_path, 1, memory_budget="800KB")
            with pytest.raises(AdmissionError):
                svc.admit(second)
            held.release.set()
            for _ in range(200):
                await asyncio.sleep(0.005)
                if not svc._attempts:
                    break
            record, reattached = svc.admit(second)
            assert not reattached
            assert record.state == STATE_QUEUED

        asyncio.run(scenario())


class TestDedupAndRerun:
    def test_identical_spec_reattaches(self, tmp_path):
        svc = make_service(tmp_path)
        svc._schedule = lambda: None
        spec = make_spec(tmp_path)
        first, reattached = svc.admit(spec)
        assert not reattached
        second, reattached = svc.admit(spec)
        assert reattached
        assert second.job_id == first.job_id
        assert svc.counters["reattached"] == 1
        assert svc.queue_depth() == 1  # not queued twice

    def test_tag_makes_a_distinct_job(self, tmp_path):
        svc = make_service(tmp_path)
        svc._schedule = lambda: None
        first, _ = svc.admit(make_spec(tmp_path))
        second, reattached = svc.admit(make_spec(tmp_path, tag="again"))
        assert not reattached
        assert second.job_id != first.job_id

    def test_rerun_of_a_live_job_is_refused(self, tmp_path):
        svc = make_service(tmp_path)
        svc._schedule = lambda: None
        spec = make_spec(tmp_path)
        svc.admit(spec)
        with pytest.raises(AdmissionError) as exc:
            svc.admit(spec, rerun=True)
        assert exc.value.code == ERR_BAD_REQUEST

    def test_rerun_of_a_finished_job_wipes_its_state(self, tmp_path):
        svc = make_service(tmp_path)
        svc._schedule = lambda: None
        spec = make_spec(tmp_path)
        record, _ = svc.admit(spec)
        assert svc._pop_next() == record  # dispatched, so out of the queue
        svc.state.save_record(
            record.with_(state=STATE_DONE, exit_code=0, digest="abc")
        )
        fresh, reattached = svc.admit(spec, rerun=True)
        assert not reattached
        assert fresh.state == STATE_QUEUED
        assert fresh.digest is None


class TestQueueOrdering:
    def test_priority_then_fifo(self, tmp_path):
        svc = make_service(tmp_path, max_queue_depth=16)
        svc._schedule = lambda: None
        ids = [
            svc.admit(make_spec(tmp_path, n, priority=p))[0].job_id
            for n, p in enumerate([0, 5, 0, 5, 2])
        ]
        order = [svc._pop_next().job_id for _ in range(5)]
        assert order == [ids[1], ids[3], ids[4], ids[0], ids[2]]
        assert svc._pop_next() is None

    def test_cancelled_while_queued_is_skipped(self, tmp_path):
        svc = make_service(tmp_path, max_queue_depth=16)
        svc._schedule = lambda: None
        first, _ = svc.admit(make_spec(tmp_path, 0))
        second, _ = svc.admit(make_spec(tmp_path, 1))
        # lazy cancellation: the record left QUEUED, the queue entry stays
        svc.state.save_record(first.with_(state=STATE_CANCELLED))
        assert svc._pop_next().job_id == second.job_id
        assert svc._pop_next() is None


class TestRecovery:
    def test_restart_requeues_interrupted_jobs(self, tmp_path):
        svc = make_service(tmp_path)
        svc._schedule = lambda: None
        queued, _ = svc.admit(make_spec(tmp_path, 0))
        running, _ = svc.admit(make_spec(tmp_path, 1))
        done, _ = svc.admit(make_spec(tmp_path, 2))
        svc.state.save_record(running.with_(state=STATE_RUNNING, attempts=1))
        svc.state.save_record(done.with_(state=STATE_DONE, exit_code=0))

        revived = make_service(tmp_path)
        revived._schedule = lambda: None
        revived._recover()
        assert revived.queue_depth() == 2
        rec = revived.state.load_record(running.job_id)
        assert rec.state == STATE_QUEUED
        assert revived.state.load_record(done.job_id).state == STATE_DONE
        # admission sequence continues past recovered records
        assert revived._seq > done.seq

    def test_recovery_kills_orphan_runners(self, tmp_path):
        svc = make_service(tmp_path)
        svc._schedule = lambda: None
        record, _ = svc.admit(make_spec(tmp_path))
        orphan = subprocess.Popen([sys.executable, "-c",
                                   "import time; time.sleep(60)"])
        try:
            (svc.state.job_dir(record.job_id) / "runner.pid").write_text(
                str(orphan.pid)
            )
            svc.state.save_record(record.with_(state=STATE_RUNNING))

            revived = make_service(tmp_path)
            revived._schedule = lambda: None
            revived._recover()
            deadline = time.monotonic() + 5.0
            while orphan.poll() is None and time.monotonic() < deadline:
                time.sleep(0.02)
            assert orphan.poll() is not None
        finally:
            if orphan.poll() is None:
                orphan.kill()
            orphan.wait()
