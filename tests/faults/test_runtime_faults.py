"""Spill corruption recovery and fault accounting in the real runtimes."""

from __future__ import annotations

import pytest

from repro.apps.sortapp import make_sort_job
from repro.apps.wordcount import make_wordcount_job, reference_wordcount
from repro.core.options import RuntimeOptions
from repro.core.phoenix import run_baseline
from repro.core.supmr import run_ingest_mr
from repro.errors import RetryExhausted, SpillError
from repro.faults.log import ACTION_RESPILLED
from repro.faults.plan import (
    SITE_INGEST_READ,
    SITE_MAP_TASK,
    SITE_SPILL_CORRUPT,
    FaultPlan,
    FaultSpec,
    parse_faults,
)
from repro.faults.policy import RecoveryPolicy
from repro.spill.manager import SpillManager
from repro.workloads.textgen import generate_text_file


def _fast_policy(**kw) -> RecoveryPolicy:
    kw.setdefault("backoff_base_s", 0.0)
    return RecoveryPolicy(**kw)


class TestSpillCorruption:
    def _spill(self, tmp_path, injector):
        mgr = SpillManager(1024, spill_dir=tmp_path, injector=injector)
        return mgr, mgr.spill_pairs(
            [(b"b", [2]), (b"a", [1]), (b"c", [3])], raw=True
        )

    def test_corrupt_run_is_verified_and_respilled(self, tmp_path):
        plan = FaultPlan(seed=0, specs=(
            FaultSpec(site=SITE_SPILL_CORRUPT, once_per_scope=True),
        ))
        injector = plan.arm(_fast_policy())
        mgr, info = self._spill(tmp_path, injector)
        # the rewritten run reads back clean
        assert list(mgr.open_run(info)) == [(b"a", 1), (b"b", 2), (b"c", 3)]
        assert mgr.open_run(info).verify()
        assert injector.log.count(ACTION_RESPILLED) == 1
        assert injector.log.count("retried", site=SITE_SPILL_CORRUPT) == 1

    def test_persistent_corruption_exhausts_and_chains(self, tmp_path):
        plan = FaultPlan(seed=0, specs=(
            FaultSpec(site=SITE_SPILL_CORRUPT, probability=1.0),
        ))
        injector = plan.arm(_fast_policy(max_retries=2))
        with pytest.raises(RetryExhausted) as excinfo:
            self._spill(tmp_path, injector)
        assert excinfo.value.site == SITE_SPILL_CORRUPT
        assert isinstance(excinfo.value.__cause__, SpillError)

    def test_end_to_end_spill_faults_under_memory_budget(self, text_file):
        plan = FaultPlan(seed=0, specs=(
            FaultSpec(site=SITE_SPILL_CORRUPT, once_per_scope=True),
        ))
        options = RuntimeOptions.supmr_interfile("32KB").with_(
            memory_budget="256KB",
            fault_plan=plan,
            recovery=_fast_policy(),
        )
        result = run_ingest_mr(make_wordcount_job([text_file]), options)
        assert result.counters["spill_runs"] > 0
        assert result.fault_log.count(ACTION_RESPILLED) > 0
        assert dict(result.output) == reference_wordcount([text_file])


class TestIngestReadRetryUnit:
    def test_once_costs_one_retry_per_chunk_not_per_file(
        self, small_files, fault_seed
    ):
        """Eight small files per chunk: ``once`` fails every file of a
        chunk on its first attempt, and the chunk retries once — well
        inside the default retry budget."""
        plan = FaultPlan(seed=fault_seed, specs=(
            FaultSpec(site=SITE_INGEST_READ, once_per_scope=True),
        ))
        options = RuntimeOptions.supmr_intrafile(8).with_(
            fault_plan=plan, recovery=_fast_policy(),
        )
        result = run_ingest_mr(make_wordcount_job(small_files), options)
        chunks = result.n_chunks
        assert chunks == -(-len(small_files) // 8)
        assert result.counters["fault_retries"] == chunks
        assert result.fault_log.count(
            "injected", site=SITE_INGEST_READ
        ) == len(small_files)
        assert dict(result.output) == reference_wordcount(small_files)


class TestMapTaskFaults:
    def test_injected_map_faults_retry_without_duplicate_emits(self, text_file):
        plan = FaultPlan(seed=0, specs=(
            FaultSpec(site=SITE_MAP_TASK, once_per_scope=True, max_fires=4),
        ))
        options = RuntimeOptions.supmr_interfile("32KB").with_(
            fault_plan=plan, recovery=_fast_policy(),
        )
        result = run_ingest_mr(make_wordcount_job([text_file]), options)
        assert result.fault_log.count("injected", site=SITE_MAP_TASK) == 4
        assert result.fault_log.count("recovered", site=SITE_MAP_TASK) == 4
        # retried tasks re-ran from scratch: totals are exact
        assert dict(result.output) == reference_wordcount([text_file])

    def test_baseline_runtime_reports_fault_log_too(self, text_file):
        plan = FaultPlan(seed=0, specs=(
            FaultSpec(site=SITE_MAP_TASK, once_per_scope=True, max_fires=2),
        ))
        options = RuntimeOptions.baseline().with_(
            fault_plan=plan, recovery=_fast_policy(),
        )
        result = run_baseline(make_wordcount_job([text_file]), options)
        assert result.fault_log is not None
        assert result.counters["faults_injected"] == 2
        assert dict(result.output) == reference_wordcount([text_file])

    def test_clean_plan_leaves_result_clean(self, text_file):
        options = RuntimeOptions.supmr_interfile("32KB")
        result = run_ingest_mr(make_wordcount_job([text_file]), options)
        assert result.fault_log is None
        assert "faults_injected" not in result.counters


class TestFaultLogOrder:
    """One seed, one fault log, row for row.  The prefetch reader loads
    chunk ``i+1`` while chunk ``i`` maps; its ``ingest.read`` rows join
    the log when the chunk is taken, so they sit where the unpipelined
    run writes them, not wherever the scheduler put the reader.

    The plan and seed are fixed: at seed 7 spill corruption fires and
    recovers, so main-thread and reader rows interleave.  (Other seeds
    can exhaust the spill retry budget instead.)"""

    PLAN = "spill.corrupt=0.2,ingest.read=once,record.corrupt=0.002"

    def test_one_sequence_for_one_seed(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        generate_text_file(corpus, 128 * 1024)

        def run(**kw):
            options = RuntimeOptions.supmr_interfile(
                "25KB", memory_budget="64KB",
                fault_plan=parse_faults(self.PLAN, seed=7), **kw,
            )
            result = run_ingest_mr(make_wordcount_job([corpus]), options)
            rows = tuple(
                (e.site, e.action, e.scope, e.attempt) for e in result.fault_log
            )
            return rows, result.output_digest()

        runs = {run() for _ in range(5)}
        assert len(runs) == 1
        ((rows, _digest),) = runs
        assert {site for site, *_ in rows} >= {SITE_INGEST_READ, SITE_SPILL_CORRUPT}
        assert run(pipelined_ingest=False) == runs.pop()

    @pytest.mark.parametrize("job_name", ["wordcount", "sort"])
    def test_one_sequence_on_every_backend(
        self, job_name, text_file, terasort_file
    ):
        """The round thread resolves every task's fault sites before a
        wave dispatches, so mapper threads write no rows: the thread
        backend logs serial's sequence every time, and so does process."""
        job = (
            make_wordcount_job([text_file]) if job_name == "wordcount"
            else make_sort_job([terasort_file])
        )

        def run(backend):
            options = RuntimeOptions.supmr_interfile(
                "16KB", num_mappers=4, num_reducers=3,
                executor_backend=backend,
                fault_plan=parse_faults(
                    "ingest.read=once,map.task=once,record.corrupt=0.005",
                    seed=9,
                ),
            )
            return tuple(
                (e.site, e.action, e.scope, e.attempt, e.detail)
                for e in run_ingest_mr(job, options).fault_log
            )

        serial = run("serial")
        assert {site for site, *_ in serial} >= {SITE_INGEST_READ, SITE_MAP_TASK}
        assert {run("thread") for _ in range(3)} == {serial}
        assert run("process") == serial
