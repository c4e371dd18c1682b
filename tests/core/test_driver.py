"""One round driver: every caller of ``JobRun`` computes the same job.

Phoenix, SupMR (synchronous / prefetching), the sharded
coordinator's workers and the iterative session all map chunks through
:class:`repro.core.driver.JobRun`; whichever shape runs the job, the
output digest — and, for a seeded fault plan, the injected fault
schedule — is the same.
"""

from __future__ import annotations

import pytest

from repro.apps.wordcount import make_wordcount_job
from repro.core.iterative import IterativeSession
from repro.core.options import RuntimeOptions
from repro.core.phoenix import PhoenixRuntime
from repro.core.supmr import SupMRRuntime
from repro.faults import parse_faults
from repro.parallel.backends import fork_available
from repro.shard import ShardedRuntime

#: The SupMR shape's two pipeline modes.
PIPELINE_MODES = {
    "synchronous": {"pipelined_ingest": False},
    "one reader": {},
}

TASK_SITES = ("ingest.read", "map.task")


def supmr_options(chunk_size="32KB", **kw) -> RuntimeOptions:
    return RuntimeOptions.supmr_interfile(chunk_size, 2, 2).with_(
        executor_backend="serial", **kw
    )


def phoenix_options(**kw) -> RuntimeOptions:
    return RuntimeOptions.baseline(2, 2).with_(executor_backend="serial", **kw)


def task_events(result):
    return [
        (e.site, e.action, e.scope)
        for e in result.fault_log.events if e.site in TASK_SITES
    ]


def test_every_caller_yields_one_digest(text_file):
    job = make_wordcount_job([text_file])
    digests = {
        "phoenix": PhoenixRuntime(phoenix_options()).run(job).output_digest()
    }
    for mode, kw in PIPELINE_MODES.items():
        result = SupMRRuntime(supmr_options(**kw)).run(job)
        assert result.n_chunks > 3, "one chunk would not exercise the rounds"
        assert len(result.timings.rounds) == result.n_chunks + 1
        digests[f"supmr {mode}"] = result.output_digest()
    if fork_available():
        for shards in (1, 2):
            digests[f"{shards} shard(s)"] = ShardedRuntime(
                supmr_options(num_shards=shards)
            ).run(job).output_digest()
    with IterativeSession(job.inputs, job.codec, supmr_options()) as session:
        digests["iterative first pass"] = session.run(job).output_digest()
        digests["iterative from cache"] = session.run(job).output_digest()
    assert len(set(digests.values())) == 1, digests


def test_one_shot_shapes_replay_one_fault_sequence(text_file):
    # One chunk covering the whole input: Phoenix's plan and SupMR's
    # coincide, so the seeded schedule must too, event for event.
    job = make_wordcount_job([text_file])
    plan = parse_faults("ingest.read=once,map.task=once", seed=7)
    sequences = {
        "phoenix": task_events(
            PhoenixRuntime(phoenix_options(fault_plan=plan)).run(job)
        )
    }
    for mode, kw in PIPELINE_MODES.items():
        result = SupMRRuntime(
            supmr_options("1MB", fault_plan=plan, **kw)
        ).run(job)
        assert result.n_chunks == 1
        sequences[f"supmr {mode}"] = task_events(result)
    reference = sequences["phoenix"]
    assert {site for site, _a, _s in reference} == set(TASK_SITES), (
        "a site never fired; the test is vacuous"
    )
    for shape, events in sequences.items():
        assert events == reference, f"{shape} diverged from phoenix"


def test_fault_schedule_is_independent_of_readers_and_shards(text_file):
    # Many chunks: a reader's ingest.read events interleave with the
    # mapper's map.task events in wall-clock order, so compare what was
    # injected where (scopes are global: chunk index, and a task id that
    # is a pure function of it), not when.
    job = make_wordcount_job([text_file])
    plan = parse_faults("ingest.read=once,map.task=once", seed=7)
    schedules = {}
    for mode, kw in PIPELINE_MODES.items():
        result = SupMRRuntime(supmr_options(fault_plan=plan, **kw)).run(job)
        schedules[f"supmr {mode}"] = sorted(task_events(result))
    if fork_available():
        for shards in (1, 2):
            result = ShardedRuntime(
                supmr_options(fault_plan=plan, num_shards=shards)
            ).run(job)
            schedules[f"{shards} shard(s)"] = sorted(task_events(result))
    reference = schedules["supmr synchronous"]
    assert reference
    for shape, events in schedules.items():
        assert events == reference, f"{shape} diverged"


def test_phoenix_hands_its_whole_input_chunk_to_set_data(text_file):
    # core/job.py: set_data runs "once per ingest chunk ... before
    # mappers run on it" — the baseline's one chunk included.
    job = make_wordcount_job([text_file])
    seen = []
    job.set_data = lambda chunk, length: seen.append((chunk.index, length))
    result = PhoenixRuntime(phoenix_options()).run(job)
    assert seen == [(0, text_file.stat().st_size)]
    assert result.timings.read_map_combined is False
    assert result.timings.rounds == ()
    assert result.timings.read_s > 0 and result.timings.map_s > 0


def test_phoenix_resumes_a_journaled_map_round(
    tmp_path, text_file, monkeypatch
):
    # The baseline journals its one map round like any other, so a crash
    # in the reduce phase resumes without re-reading the input.
    import repro.core.driver as driver_mod

    job = make_wordcount_job([text_file])
    reference = PhoenixRuntime(phoenix_options()).run(job)
    options = phoenix_options(checkpoint_dir=str(tmp_path / "ckpt"))

    def exploding_reducers(*args, **kwargs):
        raise RuntimeError("simulated crash before the reduce phase")

    monkeypatch.setattr(driver_mod, "run_reducers", exploding_reducers)
    with pytest.raises(RuntimeError, match="simulated crash"):
        PhoenixRuntime(options).run(job)
    monkeypatch.undo()

    resumed = PhoenixRuntime(options.with_(resume=True)).run(job)
    assert resumed.counters["resumed_rounds"] == 1
    assert resumed.output_digest() == reference.output_digest()
