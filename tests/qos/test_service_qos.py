"""Service-side QoS: tenant budgets, WFQ dispatch, shedding, shares.

Drives :class:`JobService` in-process with a stub runner pool (no
subprocesses), mirroring ``tests/service/test_admission.py``.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.cli import main
from repro.errors import AdmissionError
from repro.faults import parse_faults
from repro.service.jobspec import ServiceJobSpec
from repro.service.protocol import (
    ERR_BUDGET_EXCEEDED,
    ERR_OVERLOADED,
    ERR_TENANT_BUDGET,
)
from repro.service.server import JobService, ServiceConfig
from repro.service.zygote import Zygote
from repro.service.state import STATE_DONE


def make_service(tmp_path, **kw) -> JobService:
    return JobService(ServiceConfig(state_dir=str(tmp_path / "state"), **kw))


def make_spec(tmp_path, n=0, **kw) -> ServiceJobSpec:
    path = tmp_path / f"input-{n}.txt"
    if not path.exists():
        path.write_text("alpha beta gamma\n")
    return ServiceJobSpec(app="wordcount", inputs=(str(path),), **kw)


class HeldRunners:
    """Stub runner pool: dispatched attempts park until released."""

    def __init__(self, service: JobService) -> None:
        self.service = service
        self.started: list[str] = []
        self.release = asyncio.Event()
        service._run_job = self._fake_run

    async def _fake_run(self, attempt, request):
        svc = self.service
        job_id = attempt.record.job_id
        self.started.append(job_id)
        await self.release.wait()
        del svc._attempts[job_id]
        svc.state.save_record(
            attempt.record.with_(state=STATE_DONE, exit_code=0)
        )


def run(coro):
    return asyncio.run(coro)


def spy_on_spawn(monkeypatch) -> list[dict]:
    """Record every spawn request a daemon hands its zygote."""
    requests: list[dict] = []
    real_spawn = Zygote.spawn

    async def spawn(self, request):
        requests.append(dict(request))
        return await real_spawn(self, request)

    monkeypatch.setattr(Zygote, "spawn", spawn)
    return requests


class TestTenantBudgets:
    def test_tenant_concurrency_cap_is_typed(self, tmp_path):
        async def scenario():
            svc = make_service(
                tmp_path, max_concurrent=1, tenant_max_concurrent=2,
            )
            HeldRunners(svc)
            svc.admit(make_spec(tmp_path, 0, tenant="acme"))
            await asyncio.sleep(0)  # let the dispatch task register
            svc.admit(make_spec(tmp_path, 1, tenant="acme"))
            with pytest.raises(AdmissionError) as excinfo:
                svc.admit(make_spec(tmp_path, 2, tenant="acme"))
            assert excinfo.value.code == ERR_TENANT_BUDGET
            assert svc.counters["tenant_rejected"] == 1
            # a different tenant is unaffected
            svc.admit(make_spec(tmp_path, 3, tenant="other"))

        run(scenario())

    def test_tenant_memory_budget_is_per_tenant(self, tmp_path):
        async def scenario():
            svc = make_service(
                tmp_path, max_concurrent=1, tenant_budget="100MB",
            )
            HeldRunners(svc)
            svc.admit(make_spec(
                tmp_path, 0, tenant="acme", memory_budget="80MB"))
            await asyncio.sleep(0)
            with pytest.raises(AdmissionError) as excinfo:
                svc.admit(make_spec(
                    tmp_path, 1, tenant="acme", memory_budget="40MB"))
            assert excinfo.value.code == ERR_TENANT_BUDGET
            # the same ask lands fine under another tenant's budget
            svc.admit(make_spec(
                tmp_path, 2, tenant="other", memory_budget="40MB"))

        run(scenario())


class TestDefaultJobBudget:
    """Regression for the unbudgeted-bypass bug: jobs without a
    ``memory_budget`` used to slip past the service-wide budget sum."""

    def test_budgetless_jobs_are_charged_the_default(self, tmp_path):
        async def scenario():
            svc = make_service(
                tmp_path, max_concurrent=1,
                service_budget="100MB", default_job_budget="60MB",
            )
            HeldRunners(svc)
            svc.admit(make_spec(tmp_path, 0))  # charged 60MB, admitted
            await asyncio.sleep(0)
            with pytest.raises(AdmissionError) as excinfo:
                svc.admit(make_spec(tmp_path, 1))  # another 60MB: over
            assert excinfo.value.code == ERR_BUDGET_EXCEEDED

        run(scenario())

    def test_default_counts_against_tenant_budget_too(self, tmp_path):
        async def scenario():
            svc = make_service(
                tmp_path, max_concurrent=1,
                tenant_budget="100MB", default_job_budget="60MB",
            )
            HeldRunners(svc)
            svc.admit(make_spec(tmp_path, 0, tenant="acme"))
            await asyncio.sleep(0)
            with pytest.raises(AdmissionError) as excinfo:
                svc.admit(make_spec(tmp_path, 1, tenant="acme"))
            assert excinfo.value.code == ERR_TENANT_BUDGET

        run(scenario())

    def test_strict_mode_still_rejects_budgetless(self, tmp_path):
        async def scenario():
            svc = make_service(
                tmp_path, max_concurrent=1, service_budget="100MB",
            )
            HeldRunners(svc)
            with pytest.raises(AdmissionError) as excinfo:
                svc.admit(make_spec(tmp_path, 0))
            assert excinfo.value.code == ERR_BUDGET_EXCEEDED

        run(scenario())


class TestOverloadShedding:
    def test_aggregate_io_demand_sheds(self, tmp_path):
        async def scenario():
            svc = make_service(
                tmp_path, max_concurrent=4,
                node_bandwidth="100MB", shed_factor=1.5,
            )
            HeldRunners(svc)
            svc.admit(make_spec(tmp_path, 0, io_budget="100MB"))
            await asyncio.sleep(0)
            with pytest.raises(AdmissionError) as excinfo:
                svc.admit(make_spec(tmp_path, 1, io_budget="100MB"))
            assert excinfo.value.code == ERR_OVERLOADED
            assert svc.counters["shed"] == 1
            # jobs with no declared demand are never shed
            svc.admit(make_spec(tmp_path, 2))

        run(scenario())

    def test_injected_tenant_surge_sheds_once_per_job(self, tmp_path):
        async def scenario():
            svc = make_service(
                tmp_path, max_concurrent=1,
                fault_plan=parse_faults("qos.tenant.surge=once", seed=3),
            )
            HeldRunners(svc)
            spec = make_spec(tmp_path, 0, tenant="acme")
            with pytest.raises(AdmissionError) as excinfo:
                svc.admit(spec)
            assert excinfo.value.code == ERR_OVERLOADED
            assert svc.counters["shed"] == 1
            # the client's resubmission of the same job passes
            record, reattached = svc.admit(spec)
            assert not reattached
            assert record.job_id == spec.job_id()

        run(scenario())


class TestWeightedFairDispatch:
    def test_flooding_tenant_waits_its_turn(self, tmp_path):
        async def scenario():
            svc = make_service(tmp_path, max_concurrent=1)
            held = HeldRunners(svc)
            svc.admit(make_spec(tmp_path, 0, tenant="heavy"))  # runs
            await asyncio.sleep(0)
            for n in range(1, 5):
                svc.admit(make_spec(tmp_path, n, tenant="heavy"))
            svc.admit(make_spec(tmp_path, 5, tenant="interactive"))
            # WFQ guarantee: interactive's lone job is at most one
            # dispatch behind, not behind heavy's whole backlog
            first, second = svc._pop_next(), svc._pop_next()
            tenants = {
                svc.state.jobs[r.job_id].spec.tenant for r in (first, second)
            }
            assert "interactive" in tenants
            assert held.started  # the first admit actually dispatched

        run(scenario())


class TestDispatchShares:
    def test_share_written_and_drained(self, tmp_path, monkeypatch, capsys):
        requests = spy_on_spawn(monkeypatch)

        async def scenario():
            svc = make_service(
                tmp_path, max_concurrent=2, node_bandwidth=1000,
            )
            spec = make_spec(tmp_path, 0, io_budget="1KB")
            record, _ = svc.admit(spec)
            # admit() schedules the real _run_job; give it one tick to
            # assign the share and launch (the runner itself is real but
            # tiny: a three-word wordcount)
            for _ in range(400):
                await asyncio.sleep(0.05)
                fresh = svc.state.load_record(record.job_id)
                if fresh is not None and fresh.finished:
                    break
            # solo job: its share is min(demand, node bandwidth), and it
            # reached the runner in the spawn request, not through a file
            (request,) = requests
            assert request["io_budget"] == 1000
            job_dir = svc.state.job_dir(record.job_id)
            assert not (job_dir / "qos.json").exists()
            # the runner throttled at the share, accounted the job to
            # the spec's tenant, and produced the one-shot digest
            report = json.loads((job_dir / "result.json").read_text())
            assert report["counters"]["io_budget_bps"] == 1000
            assert svc.tenant_stats["default"]["jobs"] == 1
            assert main(["wordcount", *spec.inputs, "--json"]) == 0
            one_shot = json.loads(capsys.readouterr().out)
            assert fresh.digest == report["digest"] == one_shot["digest"]
            # zero tokens leaked once the job finished
            assert svc._attempts == {}

        run(scenario())

    def test_contending_jobs_split_the_node(self, tmp_path):
        async def scenario():
            svc = make_service(
                tmp_path, max_concurrent=2, node_bandwidth=1000,
                shed_factor=4.0,
            )
            HeldRunners(svc)
            a, _ = svc.admit(make_spec(tmp_path, 0, io_budget="1KB"))
            await asyncio.sleep(0)
            b, _ = svc.admit(make_spec(tmp_path, 1, io_budget="1KB"))
            # with one identical job already running, max-min halves it
            assert svc._attempts[a.job_id].io_share == 1000
            assert svc._attempts[b.job_id].io_share == 500

        run(scenario())


class TestQosCounterSurface:
    def test_counters_and_tenant_overview(self, tmp_path):
        async def scenario():
            svc = make_service(tmp_path, max_concurrent=1)
            HeldRunners(svc)
            svc.admit(make_spec(tmp_path, 0, tenant="acme"))
            await asyncio.sleep(0)
            svc.admit(make_spec(tmp_path, 1, tenant="acme"))
            counters = svc._qos_counters()
            assert counters["admitted"] == 2
            assert "aged" in counters
            overview = svc._tenant_overview()
            assert overview.get("acme", {}).get("queued") == 1

        run(scenario())

    def test_spec_tenant_validation(self, tmp_path):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            make_spec(tmp_path, 0, tenant="")
