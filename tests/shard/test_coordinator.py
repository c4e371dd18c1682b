"""End-to-end sharded runs: determinism and the recovery protocol.

Every test compares digests against an unfaulted single-shard run of
the same job — the ISSUE's acceptance bar: shard count, injected shard
loss, exchange corruption, and speculation must never change a byte of
output.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle

import pytest

from repro.apps.sortapp import make_sort_job
from repro.apps.wordcount import make_wordcount_job
from repro.chunking.planner import plan_chunks, plan_whole_input
from repro.core.options import RuntimeOptions
from repro.core.supmr import SupMRRuntime
from repro.errors import ConfigError, ParallelError
from repro.faults import parse_faults
from repro.faults.log import (
    ACTION_REASSIGNED,
    ACTION_REFETCHED,
    ACTION_RESPAWNED,
    ACTION_SPECULATIVE,
)
from repro.faults.plan import SITE_SHARD_STRAGGLER, FaultPlan, FaultSpec
from repro.faults.policy import RecoveryPolicy
from repro.parallel.backends import fork_available
from repro.parallel.shard_worker import (
    MODE_LOSS,
    MODE_RUN,
    MSG_MAP,
    shard_fingerprint,
    shard_worker_main,
)
from repro.resilience.journal import JobJournal
from repro.resilience.supervisor import CRASH_EXIT
from repro.shard import ShardedRuntime, run_sharded
from repro.shard.coordinator import _Coordinator
from repro.shard.plan import ShardPlan

needs_fork = pytest.mark.skipif(not fork_available(), reason="needs os.fork")


def _options(shards: int, **overrides) -> RuntimeOptions:
    return RuntimeOptions.supmr_interfile("32KB", 2, 4).with_(
        num_shards=shards, **overrides
    )


def _wordcount(text_file):
    return make_wordcount_job([text_file])


class TestConfig:
    def test_requires_num_shards(self):
        with pytest.raises(ConfigError, match="num_shards"):
            ShardedRuntime(RuntimeOptions.supmr_interfile("32KB", 2, 4))


@needs_fork
class TestDeterminism:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_wordcount_digest_invariant_in_shard_count(
        self, text_file, shards
    ):
        job = _wordcount(text_file)
        reference = run_sharded(job, _options(1))
        result = run_sharded(job, _options(shards))
        assert result.output_digest() == reference.output_digest()
        assert result.counters["shards"] == shards

    def test_sort_digest_invariant_in_shard_count(self, terasort_file):
        job = make_sort_job([terasort_file])
        digests = {
            run_sharded(job, _options(shards)).output_digest()
            for shards in (1, 2, 4)
        }
        assert len(digests) == 1


def _spy_on(monkeypatch, kind: str) -> "dict[int, list[tuple]]":
    """Every ``kind`` message the coordinator collects, by shard id."""
    seen: dict[int, list[tuple]] = {}
    collect = _Coordinator._collect

    def spying(self):
        msg = collect(self)
        if msg is not None and msg[0] == kind:
            seen.setdefault(msg[1], []).append(msg)
        return msg

    monkeypatch.setattr(_Coordinator, "_collect", spying)
    return seen


@needs_fork
class TestEveryShardReduces:
    """Partitions have a home shard each, dealt round-robin: with at
    least as many partitions as shards nobody sits the reduce phase out
    (the bare ring gave shard 0 every partition of a 2-4 shard job)."""

    @pytest.mark.parametrize("shards, reducers", [(2, 2), (3, 4), (4, 4)])
    def test_reduce_done_from_each_shard_carries_a_partition(
        self, terasort_file, monkeypatch, shards, reducers
    ):
        done = _spy_on(monkeypatch, "reduce_done")
        options = RuntimeOptions.supmr_interfile("32KB", 2, reducers).with_(
            num_shards=shards
        )
        run_sharded(make_sort_job([terasort_file]), options)
        reduced = {
            sid: [p for msg in msgs for p in msg[2]["parts"]]
            for sid, msgs in done.items()
        }
        assert sorted(reduced) == list(range(shards))
        assert all(reduced.values())
        assert sorted(p for ps in reduced.values() for p in ps) == list(
            range(reducers)
        )

    @pytest.mark.parametrize("shards", [1, 2, 3, 4])
    def test_one_shot_digest_for_every_reducer_count(
        self, terasort_file, shards
    ):
        job = make_sort_job([terasort_file])
        one_shot = SupMRRuntime(
            RuntimeOptions.supmr_interfile("32KB", 2, 4)
        ).run(job).output_digest()
        for reducers in range(1, 9):
            options = RuntimeOptions.supmr_interfile(
                "32KB", 2, reducers
            ).with_(num_shards=shards)
            assert run_sharded(job, options).output_digest() == one_shot, (
                shards, reducers
            )


@needs_fork
class TestRecovery:
    def test_worker_loss_respawns_and_reassigns_without_digest_drift(
        self, text_file
    ):
        job = _wordcount(text_file)
        reference = run_sharded(job, _options(1))
        result = run_sharded(job, _options(
            3, fault_plan=parse_faults("shard.worker_loss=once", seed=9)
        ))
        assert result.output_digest() == reference.output_digest()
        # Map phase: every shard killed once, respawned fresh.
        assert result.counters["shard_respawns"] == 3
        # Reduce phase: all but the last survivor lost, partitions moved.
        assert result.counters["shards_lost"] == 2
        assert result.counters["partitions_reassigned"] > 0
        actions = {e.action for e in result.fault_log.events}
        assert ACTION_RESPAWNED in actions
        assert ACTION_REASSIGNED in actions

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_worker_loss_leaves_no_descriptor_open(self, text_file):
        job = _wordcount(text_file)
        before = len(os.listdir("/proc/self/fd"))
        result = run_sharded(job, _options(
            2, fault_plan=parse_faults("shard.worker_loss=once", seed=9)
        ))
        assert result.counters["shard_respawns"] == 2
        assert result.counters["shards_lost"] == 1
        assert len(os.listdir("/proc/self/fd")) == before

    def test_journaled_shard_resumes_after_loss(self, text_file, tmp_path):
        job = _wordcount(text_file)
        reference = run_sharded(job, _options(1))
        result = run_sharded(job, _options(
            2,
            fault_plan=parse_faults("shard.worker_loss=once", seed=9),
            checkpoint_dir=str(tmp_path / "ckpt"),
        ))
        assert result.output_digest() == reference.output_digest()
        assert result.counters["resumed"] is True
        assert result.counters["resumed_rounds"] > 0

    def test_corrupted_exchange_run_refetched_never_merged(self, text_file):
        job = _wordcount(text_file)
        reference = run_sharded(job, _options(1))
        result = run_sharded(job, _options(
            2, fault_plan=parse_faults("shard.exchange_corrupt=once", seed=4)
        ))
        assert result.output_digest() == reference.output_digest()
        # One corruption per (partition, source): 4 partitions x 2 shards.
        assert result.counters["exchange_refetches"] == 8
        assert result.counters["faults_injected"] == 8
        refetched = [
            e for e in result.fault_log.events
            if e.action == ACTION_REFETCHED
        ]
        assert len(refetched) == 8

    def test_straggler_gets_a_speculative_twin(self, text_file):
        job = _wordcount(text_file)
        reference = run_sharded(job, _options(1))
        plan = FaultPlan(seed=2, specs=(
            FaultSpec(
                site=SITE_SHARD_STRAGGLER, once_per_scope=True,
                max_fires=1, duration_s=1.2,
            ),
        ))
        result = run_sharded(job, _options(
            3, fault_plan=plan,
            recovery=RecoveryPolicy(straggler_threshold=1.0),
        ))
        assert result.output_digest() == reference.output_digest()
        assert result.counters["speculative_shards"] >= 1
        assert any(
            e.action == ACTION_SPECULATIVE for e in result.fault_log.events
        )


class TestBudgetShares:
    """A shard runs under its even share of the job's memory budget (as
    it does of the I/O budget), never under one ingest chunk: N shards
    together hold what admission charged the job, not N times it."""

    CHUNK = 32 * 1024

    @pytest.mark.parametrize("shards, budget, share", [
        (1, 400_000, 400_000),
        (2, 400_000, 200_000),
        (4, 400_000, 100_000),
        (2, CHUNK + 1, CHUNK + 1),  # the smallest valid budget stays valid
        (4, 100_000, CHUNK + 1),  # 25 000 B would not hold one chunk
        (4, None, None),
    ])
    def test_each_shard_takes_its_share(
        self, text_file, tmp_path, shards, budget, share
    ):
        job = _wordcount(text_file)
        options = _options(shards, memory_budget=budget, io_budget=1000)
        plan = ShardPlan(
            plan_chunks(job.inputs, job.codec, options), shards, 4
        )
        coord = _Coordinator(job, options, plan, tmp_path, None)
        try:
            assert coord.worker_options.memory_budget == share
            assert coord.worker_options.io_budget == 1000 // shards
        finally:
            coord.shutdown()

    @needs_fork
    def test_a_parent_build_budgeted_checkpoint_is_refused_on_resume(
        self, text_file, tmp_path
    ):
        """The shard fingerprint is taken over the worker's options, the
        budget share included: a journal written under the whole budget
        (what every build before the share did) is another option set."""
        job = _wordcount(text_file)
        for budget, refused in ((None, False), (400_000, True)):
            ckpt = tmp_path / f"ckpt-{budget}"
            options = _options(
                2, memory_budget=budget, checkpoint_dir=str(ckpt)
            )
            for sid in range(2):
                JobJournal(
                    ckpt / f"shard-{sid}", shard_fingerprint(job, options, sid)
                )
            if refused:
                with pytest.raises(
                    ParallelError,
                    match="CheckpointError: checkpoint fingerprint mismatch",
                ):
                    run_sharded(job, options.with_(resume=True))
            else:
                run_sharded(job, options.with_(resume=True))


@needs_fork
class TestShardedSpillFigures:
    """A sharded result reports what its shards spilled."""

    def test_both_shards_spill_and_the_result_carries_the_sums(
        self, terasort_file, monkeypatch
    ):
        done = _spy_on(monkeypatch, "map_done")
        job = make_sort_job([terasort_file])
        one_shot = SupMRRuntime(
            RuntimeOptions.supmr_interfile("32KB", 2, 4)
        ).run(job).output_digest()
        result = run_sharded(job, _options(2, memory_budget=100_000))
        assert result.output_digest() == one_shot
        figures = [done[sid][0][3]["spill"] for sid in (0, 1)]
        assert all(f["spill_runs"] > 0 for f in figures)
        for key in ("spill_runs", "spilled_bytes"):
            assert result.counters[key] == sum(f[key] for f in figures) > 0

    def test_no_budget_no_figures(self, terasort_file, monkeypatch):
        done = _spy_on(monkeypatch, "map_done")
        result = run_sharded(make_sort_job([terasort_file]), _options(2))
        assert done[0][0][3]["spill"] is None
        assert "spill_runs" not in result.counters
        assert "spilled_bytes" not in result.counters


@needs_fork
class TestCommandedLossAlwaysFires:
    """Regression: a MODE_LOSS map command must still kill the worker
    when its journal restore covers every chunk — otherwise the seeded
    schedule under-fires and the fault log drifts from the plan."""

    def _run_worker(self, job, options, chunks, msg):
        ctx = multiprocessing.get_context("fork")
        conn, child = ctx.Pipe()
        conn.send(msg)
        conn.send(None)  # sentinel, for the surviving MODE_RUN case
        proc = ctx.Process(
            target=shard_worker_main,
            args=(0, job, options, chunks, 4, child),
        )
        proc.start()
        child.close()
        rows = []
        # A death with the sentinel unread ends the read with a reset.
        while conn.poll(60):
            try:
                rows.append(pickle.loads(conn.recv_bytes()))
            except (EOFError, ConnectionResetError):
                break
        conn.close()
        proc.join(timeout=60)
        assert proc.exitcode is not None, "shard worker hung"
        return proc.exitcode, rows

    def test_loss_fires_even_when_journal_covers_all_rounds(
        self, text_file, tmp_path
    ):
        job = make_wordcount_job([text_file])
        options = _options(1)
        chunks = list(plan_whole_input(job.inputs).chunks)
        assert len(chunks) == 1  # restore of round 0 covers everything

        def msg(mode, resume):
            return {
                "kind": MSG_MAP,
                "attempt": 0,
                "mode": mode,
                "outbox": str(tmp_path / "outbox"),
                "ckpt": str(tmp_path / "ckpt"),
                "resume": resume,
            }

        # Attempt 0: maps the only chunk, journals it, then dies.
        code, _ = self._run_worker(job, options, chunks, msg(MODE_LOSS, False))
        assert code == CRASH_EXIT
        # Attempt 1: the journal restores the whole block, so the
        # per-chunk death window never opens — the commanded loss must
        # fire anyway.
        code, _ = self._run_worker(job, options, chunks, msg(MODE_LOSS, True))
        assert code == CRASH_EXIT
        # Attempt 2: a clean run still resumes from the same journal.
        code, rows = self._run_worker(
            job, options, chunks, msg(MODE_RUN, True)
        )
        assert code == 0
        done = [r for r in rows if r[0] == "map_done"]
        assert len(done) == 1
        assert done[0][3]["restored_rounds"] == 1
