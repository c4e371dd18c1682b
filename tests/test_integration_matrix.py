"""Cross-product integration: every app x every runtime configuration.

The reproduction's master equivalence claim, exhaustively: for each
application, the SupMR runtime produces the baseline's output under
every chunking strategy and merge algorithm combination — and a
memory-budgeted run the unbudgeted one's, on every backend and shard
count, from a budget that never spills to one that consolidates.
"""

from __future__ import annotations

import pytest

from repro.apps.grep import make_grep_job
from repro.apps.histogram import make_histogram_job
from repro.apps.inverted_index import make_inverted_index_job
from repro.apps.sortapp import make_sort_job, reference_sort
from repro.apps.string_match import make_string_match_job
from repro.apps.wordcount import make_wordcount_job
from repro.core.options import MergeAlgorithm, RuntimeOptions
from repro.core.phoenix import PhoenixRuntime
from repro.core.supmr import SupMRRuntime, run_ingest_mr
from repro.parallel.backends import fork_available
from repro.shard import ShardedRuntime
from tests.spill.test_end_to_end import duplicate_keys


def _configs():
    yield "interfile-pway", RuntimeOptions.supmr_interfile("24KB")
    yield "interfile-pairwise", RuntimeOptions.supmr_interfile(
        "24KB", merge_algorithm=MergeAlgorithm.PAIRWISE)
    yield "interfile-serial", RuntimeOptions.supmr_interfile(
        "24KB", pipelined_ingest=False)
    yield "variable", RuntimeOptions.supmr_variable(["8KB", "16KB", "48KB"])
    yield "hybrid", RuntimeOptions.supmr_hybrid("64KB")
    yield "many-mappers", RuntimeOptions.supmr_interfile(
        "24KB", num_mappers=7, num_reducers=3)


def _jobs(text_file, terasort_file):
    yield "wordcount", lambda: make_wordcount_job([text_file])
    yield "sort", lambda: make_sort_job([terasort_file])
    yield "grep", lambda: make_grep_job([text_file], rb"a")
    yield "histogram", lambda: make_histogram_job([terasort_file.parent
                                                   / "_nums.txt"], 0, 10, 8)
    yield "stringmatch", lambda: make_string_match_job([text_file],
                                                       [b"th", b"qq"])


@pytest.fixture(scope="module")
def nums_file(terasort_file):
    path = terasort_file.parent / "_nums.txt"
    if not path.exists():
        path.write_bytes(b"".join(b"%d\n" % (i % 10) for i in range(500)))
    return path


@pytest.mark.parametrize("config_name,options", list(_configs()))
@pytest.mark.parametrize("app", ["wordcount", "sort", "grep", "histogram",
                                 "stringmatch"])
def test_supmr_matches_baseline(app, config_name, options, text_file,
                                terasort_file, nums_file):
    jobs = dict(_jobs(text_file, terasort_file))
    make = jobs[app]
    baseline = PhoenixRuntime(
        RuntimeOptions.baseline(options.num_mappers, options.num_reducers)
    ).run(make())
    supmr = run_ingest_mr(make(), options)
    assert supmr.output == baseline.output, (
        f"{app} under {config_name} diverged from the baseline"
    )


# -- out-of-core x backend x shards -------------------------------------------
#
# The out-of-core path's equivalence claim: a budgeted run ends with the
# unbudgeted run's output whatever the backend and shard count, from a
# budget that never spills to one that needs a consolidation pass.

#: ``app -> (chunk size, {spill runs of the serial unsharded job: budget})``.
#: 0 runs: the zero-spill path; 1: a single run plus the resident leg;
#: 9: one more source than the fan-in (a consolidation that rewrites
#: two runs); 20: a consolidation of several batches.
BUDGETS = {
    "sort-dup": ("4KB", {0: 1_000_000, 1: 400_000, 9: 70_000, 20: 34_000}),
    "wordcount": ("4KB", {0: 2_000_000, 1: 800_000, 9: 140_000, 20: 66_000}),
    "index": ("4KB", {0: 1_000_000, 1: 500_000, 9: 91_000, 20: 43_000}),
    "histogram": ("1KB", {0: 400_000, 1: 200_000, 9: 34_000, 20: 16_200}),
}


@pytest.fixture(scope="module")
def ooc_inputs(tmp_path_factory, text_file, terasort_file):
    """One input per app; the sort's keys are deliberately duplicated."""
    import random

    directory = tmp_path_factory.mktemp("ooc")
    rng = random.Random(19)
    vocab = [f"w{i:02d}" for i in range(60)]
    index = directory / "index.txt"
    index.write_bytes(b"".join(
        f"doc{n:03d}\t{' '.join(rng.choices(vocab, k=10))}\n".encode()
        for n in range(1200)
    ))
    numbers = directory / "numbers.txt"
    numbers.write_bytes(b"".join(
        b"%d\n" % rng.randrange(64) for _ in range(8000)
    ))
    return {
        "sort-dup": duplicate_keys(terasort_file, directory / "dup.dat"),
        "wordcount": text_file,
        "index": index,
        "histogram": numbers,
    }


def ooc_job(app, path):
    if app == "sort-dup":
        return make_sort_job([path])
    if app == "wordcount":
        return make_wordcount_job([path])
    if app == "index":
        return make_inverted_index_job([path])
    return make_histogram_job([path], 0, 64, 64)


def ooc_run(app, path, backend, shards, budget):
    options = RuntimeOptions.supmr_interfile(BUDGETS[app][0], 2, 2).with_(
        executor_backend=backend, num_shards=shards, memory_budget=budget
    )
    runtime = ShardedRuntime(options) if shards else SupMRRuntime(options)
    return runtime.run(ooc_job(app, path))


@pytest.fixture(scope="module")
def ooc_expected(ooc_inputs):
    """The unbudgeted, unsharded serial output of each app."""
    return {
        app: ooc_run(app, path, "serial", None, None).output
        for app, path in ooc_inputs.items()
    }


@pytest.mark.skipif(not fork_available(), reason="needs os.fork")
@pytest.mark.parametrize("shards", [None, 2, 3], ids=lambda s: f"shards-{s}")
@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
@pytest.mark.parametrize("app", sorted(BUDGETS))
def test_budgeted_matches_unbudgeted(app, backend, shards, ooc_inputs,
                                     ooc_expected):
    path = ooc_inputs[app]
    expected = ooc_expected[app]
    if app == "sort-dup":
        # The in-memory array container hands equal keys to the merge in
        # segment order, not emit order; every run that leaves memory —
        # a spill, a shard exchange — is the stable sort of the input.
        assert sorted(expected) == sorted(reference_sort([path]))
        stable = reference_sort([path])
    for runs, budget in BUDGETS[app][1].items():
        result = ooc_run(app, path, backend, shards, budget)
        where = f"{app} {backend} shards={shards} budget={budget}"
        if shards is None:
            assert result.spill_stats.runs == runs, where
            assert result.spill_stats.within_budget, where
        if app != "sort-dup":
            assert result.output == expected, where
        elif shards is None and runs == 0:
            assert result.output == expected, where  # zero-spill: untouched
        elif shards is None and backend == "thread":
            # Mapper threads share the budgeted container, so equal keys
            # arrive in the order the threads ran in.
            assert sorted(result.output) == sorted(stable), where
        else:
            assert result.output == stable, where
