"""Backend equivalence: serial, thread, and process runs are byte-identical.

The whole contract of ``executor_backend`` is that it changes *speed*,
never *answers*.  This matrix runs real jobs (wordcount, terasort,
histogram) through the SupMR runtime under every backend — plain, under
a memory budget (spill paths), and with an armed fault plan (recovery
paths) — and asserts the final ``JobResult.output`` is identical to the
serial reference, pair for pair.  With faults armed, the injected-fault
counters must match too: the fault schedule is part of the determinism
contract.
"""

from __future__ import annotations

import dataclasses
import threading
from pathlib import Path

import pytest

from repro.apps.histogram import make_histogram_job
from repro.apps.sortapp import make_sort_job
from repro.apps.wordcount import make_wordcount_job
from repro.containers import ArrayContainer, HashContainer, SumCombiner
from repro.core.execution import ProcessPoolContext
from repro.core.options import RuntimeOptions
from repro.core.phoenix import PhoenixRuntime
from repro.core.supmr import SupMRRuntime
from repro.faults import parse_faults
from repro.faults.policy import RecoveryPolicy
from repro.parallel.backends import fork_available
from repro.resilience.supervisor import WorkerPool

BACKENDS = ["serial", "thread", "process"]

needs_fork = pytest.mark.skipif(not fork_available(), reason="needs os.fork")


@pytest.fixture(scope="module")
def numbers_file(tmp_path_factory: pytest.TempPathFactory) -> Path:
    import random

    rng = random.Random(44)
    path = tmp_path_factory.mktemp("data") / "numbers.txt"
    path.write_bytes(
        b"\n".join(str(rng.randrange(0, 64)).encode() for _ in range(5000))
        + b"\n"
    )
    return path


#: The multi-source job: small files packed into intra-file chunks, so
#: every chunk spans several files and has no one range to mmap.
_MULTI = "wordcount-multi"


def _options(
    backend: str, *, budget: bool = False, faults: bool = False,
    mappers: int = 4, reducers: int = 3, job_name: str = "",
):
    if job_name == _MULTI:
        opts = RuntimeOptions.supmr_intrafile(
            8, num_mappers=mappers, num_reducers=reducers
        )
    else:
        opts = RuntimeOptions.supmr_interfile(
            "16KB", num_mappers=mappers, num_reducers=reducers
        )
    opts = opts.with_(executor_backend=backend)
    if budget:
        opts = opts.with_(memory_budget="96KB")
    if faults:
        opts = opts.with_(
            fault_plan=parse_faults(
                "ingest.read=once,map.task=once,record.corrupt=0.005", seed=9
            )
        )
    return opts


def _job(name: str, text_file, terasort_file, numbers_file, small_files=()):
    if name == "wordcount":
        return make_wordcount_job([text_file])
    if name == _MULTI:
        return make_wordcount_job(small_files)
    if name == "sort":
        return make_sort_job([terasort_file])
    if name == "histogram":
        return make_histogram_job([numbers_file], lo=0, hi=64, n_buckets=64)
    if name == "histogram-fixed":
        return make_histogram_job(
            [numbers_file], lo=0, hi=64, n_buckets=64, container="fixed"
        )
    raise AssertionError(name)


_FAULT_COUNTERS = ("faults_injected", "fault_retries", "records_quarantined")


@needs_fork
@pytest.mark.parametrize("budget", [False, True], ids=["no-budget", "budget"])
@pytest.mark.parametrize(
    "job_name", ["wordcount", "sort", "histogram", "histogram-fixed", _MULTI]
)
class TestSupMRBackendEquivalence:
    def test_outputs_byte_identical(
        self, job_name, budget, text_file, terasort_file, numbers_file,
        small_files,
    ):
        results = {
            backend: SupMRRuntime(
                _options(backend, budget=budget, job_name=job_name)
            ).run(
                _job(job_name, text_file, terasort_file, numbers_file,
                     small_files)
            )
            for backend in BACKENDS
        }
        reference = results["serial"]
        assert reference.output, "reference run produced no output"
        for backend in ("thread", "process"):
            assert results[backend].output == reference.output, (
                f"{job_name}: {backend} output diverged from serial"
            )


def _bundled_jobs(directory: Path, text_file, terasort_file, numbers_file):
    """Every bundled app's job over a small input of its own format, by
    name.  Each input is one file, so every backend chunks it alike."""
    import numpy as np

    from repro.apps.grep import make_grep_job
    from repro.apps.inverted_index import make_inverted_index_job
    from repro.apps.kmeans import make_kmeans_iteration_job
    from repro.apps.linear_regression import make_linear_regression_job
    from repro.apps.matrix_multiply import make_matmul_job, write_matrix_rows
    from repro.apps.pca import make_covariance_job, make_mean_job
    from repro.apps.string_match import make_string_match_job

    rng = np.random.default_rng(40)
    points = directory / "points.txt"
    points.write_bytes(b"".join(
        b"%f %f %f\n" % tuple(p) for p in rng.normal(0, 4, (3000, 3))
    ))
    line = directory / "line.txt"
    xs = rng.uniform(-50, 50, 3000)
    line.write_bytes(b"".join(
        b"%f %f\n" % (x, 2.5 * x - 1 + rng.normal()) for x in xs
    ))
    rows = directory / "rows.txt"
    write_matrix_rows(rows, rng.normal(0, 1, (600, 6)))
    postings = directory / "postings.txt"
    words = text_file.read_bytes().split(b"\n")[:1500]
    postings.write_bytes(b"".join(
        b"doc-%d\t%s\n" % (i % 37, text) for i, text in enumerate(words)
    ))
    return {
        "wordcount": make_wordcount_job([text_file]),
        "sort": make_sort_job([terasort_file]),
        "grep": make_grep_job([text_file], rb"^\w+ \w+ the"),
        "string-match": make_string_match_job(
            [text_file], [b"the", b"and", b"of a"]
        ),
        "histogram": make_histogram_job([numbers_file], lo=0, hi=64,
                                        n_buckets=64),
        "histogram-fixed": make_histogram_job(
            [numbers_file], lo=0, hi=64, n_buckets=64, container="fixed"
        ),
        "inverted-index": make_inverted_index_job([postings]),
        "kmeans": make_kmeans_iteration_job(
            [points], [(-3.0, 0.0, 1.0), (0.0, 3.0, 0.0), (3.0, -1.0, 2.0)]
        ),
        "linear-regression": make_linear_regression_job([line]),
        "matmul": make_matmul_job([rows], rng.normal(0, 1, (6, 4))),
        "pca-mean": make_mean_job([rows]),
        "pca-cov": make_covariance_job([rows], np.zeros(6)),
    }


_BUNDLED = (
    "wordcount", "sort", "grep", "string-match", "histogram",
    "histogram-fixed", "inverted-index", "kmeans", "linear-regression",
    "matmul", "pca-mean", "pca-cov",
)


@pytest.fixture(scope="module")
def bundled_jobs(tmp_path_factory, text_file, terasort_file, numbers_file):
    return _bundled_jobs(
        tmp_path_factory.mktemp("bundled"), text_file, terasort_file,
        numbers_file,
    )


@needs_fork
@pytest.mark.parametrize("budget", [False, True], ids=["no-budget", "budget"])
@pytest.mark.parametrize("job_name", _BUNDLED)
def test_every_bundled_job_has_one_digest(bundled_jobs, job_name, budget):
    """Any run of a job on any backend ends on one digest: the thread
    backend three times over, float combiners (k-means, PCA, linear
    regression) included.  Map tasks fold into private containers and
    the round thread merges them in task order, so no digest depends on
    which thread got there first."""
    job = bundled_jobs[job_name]
    digests = {
        f"{backend}#{i}": SupMRRuntime(
            _options(backend, budget=budget)
        ).run(job).output_digest()
        for backend, runs in (("serial", 1), ("thread", 3), ("process", 1))
        for i in range(runs)
    }
    assert len(set(digests.values())) == 1, digests


def _recording(family):
    """``family`` that notes the thread of every emit and absorb (each
    passes ``_check_open``), and a list of every instance made."""
    made = []

    class Recording(family):
        def __init__(self, *args):
            super().__init__(*args)
            self.threads = set()
            made.append(self)

        def _check_open(self):
            self.threads.add(threading.get_ident())
            super()._check_open()

    return Recording, made


@needs_fork
@pytest.mark.parametrize("budget", [False, True], ids=["no-budget", "budget"])
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("job_name", ["wordcount", "sort"])
def test_only_the_round_thread_writes_the_job_container(
    job_name, backend, budget, text_file, terasort_file, numbers_file
):
    """Map tasks write private containers; the job's container (the
    first one the factory makes, or with a budget the first live inner
    container) is written by the thread that runs the rounds alone."""
    job = _job(job_name, text_file, terasort_file, numbers_file)
    if job_name == "wordcount":
        family, made = _recording(HashContainer)
        factory = lambda: family(SumCombiner())  # noqa: E731
    else:
        factory, made = _recording(ArrayContainer)
    job = dataclasses.replace(job, container_factory=factory)
    result = SupMRRuntime(_options(backend, budget=budget)).run(job)
    assert result.output
    assert made[0].threads == {threading.get_ident()}


@needs_fork
@pytest.mark.parametrize(
    "mappers, reducers", [(2, 5), (4, 1)],
    ids=["reducers>mappers", "one-reducer"],
)
@pytest.mark.parametrize("job_name", ["wordcount", "sort"])
class TestReducerCountEquivalence:
    """``num_reducers`` is a partition count on every backend: the
    process backend reduces in the parent and forks ``num_mappers``
    workers, however many partitions there are."""

    def test_outputs_byte_identical(
        self, job_name, mappers, reducers, text_file, terasort_file,
        numbers_file,
    ):
        outputs = {
            backend: SupMRRuntime(
                _options(backend, mappers=mappers, reducers=reducers)
            ).run(_job(job_name, text_file, terasort_file, numbers_file)).output
            for backend in BACKENDS
        }
        assert outputs["serial"]
        assert outputs["thread"] == outputs["serial"]
        assert outputs["process"] == outputs["serial"]


@needs_fork
def test_pool_is_sized_by_mappers_alone(text_file):
    xfer = ProcessPoolContext(
        make_wordcount_job([text_file]),
        _options("process", mappers=2, reducers=5),
    )
    try:
        assert xfer.pool().requested == 2
    finally:
        xfer.close()


@needs_fork
def test_every_wave_runs_on_the_jobs_one_pool(text_file, monkeypatch):
    """An armed plan that never fires still maps every round on the one
    pool the job forked: ``num_mappers`` forks for the whole job."""
    pools, forks = [], []
    init, spawn = WorkerPool.__init__, WorkerPool.spawn

    def counting_init(self, *args, **kwargs):
        pools.append(self)
        init(self, *args, **kwargs)

    def counting_spawn(self):
        forks.append(self)
        return spawn(self)

    monkeypatch.setattr(WorkerPool, "__init__", counting_init)
    monkeypatch.setattr(WorkerPool, "spawn", counting_spawn)
    opts = _options("process").with_(
        fault_plan=parse_faults("worker.crash=0", seed=1)
    )
    result = SupMRRuntime(opts).run(make_wordcount_job([text_file]))
    assert result.counters["pipeline_rounds"] >= 4
    assert len(pools) == 1
    assert len(forks) == opts.num_mappers


@needs_fork
@pytest.mark.parametrize("job_name", ["wordcount", "sort", _MULTI])
class TestFaultedBackendEquivalence:
    def test_outputs_and_fault_schedule_identical(
        self, job_name, text_file, terasort_file, numbers_file, small_files
    ):
        results = {
            backend: SupMRRuntime(
                _options(backend, faults=True, job_name=job_name)
            ).run(
                _job(job_name, text_file, terasort_file, numbers_file,
                     small_files)
            )
            for backend in BACKENDS
        }
        reference = results["serial"]
        assert reference.counters["faults_injected"] > 0, (
            "fault plan never fired; the test is vacuous"
        )
        for backend in ("thread", "process"):
            assert results[backend].output == reference.output
            for counter in _FAULT_COUNTERS:
                assert (
                    results[backend].counters[counter]
                    == reference.counters[counter]
                ), f"{job_name}: {backend} {counter} diverged"


@needs_fork
@pytest.mark.parametrize("job_name", ["wordcount", "sort"])
class TestWorkerFaultBackendEquivalence:
    """Seeded worker kills and hangs leave outputs AND counters identical.

    In the process backend the ``worker.crash`` / ``task.hang`` sites
    genuinely kill and wedge forked workers (supervisor recovers them);
    serial and thread backends resolve the same sites through the
    pre-task gate.  Both the outputs and the three fault counters must
    agree — the supervisor's log protocol mirrors the serial gate's.
    """

    def test_outputs_and_fault_schedule_identical(
        self, job_name, text_file, terasort_file, numbers_file
    ):
        results = {}
        for backend in BACKENDS:
            opts = RuntimeOptions.supmr_interfile(
                "16KB", num_mappers=4, num_reducers=3
            ).with_(
                executor_backend=backend,
                fault_plan=parse_faults(
                    "worker.crash=once,task.hang=once", seed=7
                ),
                recovery=RecoveryPolicy(lease_timeout_s=2.0),
            )
            results[backend] = SupMRRuntime(opts).run(
                _job(job_name, text_file, terasort_file, numbers_file)
            )
        reference = results["serial"]
        assert reference.counters["faults_injected"] > 0, (
            "worker fault plan never fired; the test is vacuous"
        )
        for backend in ("thread", "process"):
            assert results[backend].output == reference.output, (
                f"{job_name}: {backend} output diverged from serial"
            )
            for counter in _FAULT_COUNTERS:
                assert (
                    results[backend].counters[counter]
                    == reference.counters[counter]
                ), f"{job_name}: {backend} {counter} diverged"


#: The process backend's result transports.
_XFER_AXIS = ["pipe", "shm"]


@needs_fork
@pytest.mark.parametrize("job_name", ["wordcount", "sort"])
class TestTransportEquivalence:
    """The transport changes speed, never answers.

    Both transports must reproduce the serial reference byte for byte —
    plain and with seeded worker kills/hangs, where the fault *event
    sequence* (site, action, scope order) must match too: the
    supervisor's deterministic fault decisions are part of the contract,
    whatever carries the results back.
    """

    def test_outputs_byte_identical(
        self, job_name, text_file, terasort_file, numbers_file
    ):
        job_args = (text_file, terasort_file, numbers_file)
        reference = SupMRRuntime(_options("serial")).run(
            _job(job_name, *job_args)
        )
        assert reference.output
        for transport in _XFER_AXIS:
            opts = _options("process").with_(transport=transport)
            result = SupMRRuntime(opts).run(_job(job_name, *job_args))
            assert result.output == reference.output, (
                f"{job_name}: transport={transport} diverged from serial"
            )
            assert result.counters["transport"] == transport

    def test_fault_sequences_identical_across_transports(
        self, job_name, text_file, terasort_file, numbers_file
    ):
        job_args = (text_file, terasort_file, numbers_file)

        def run(transport):
            opts = RuntimeOptions.supmr_interfile(
                "16KB", num_mappers=4, num_reducers=3
            ).with_(
                executor_backend="process",
                transport=transport,
                fault_plan=parse_faults(
                    "worker.crash=once,task.hang=once", seed=7
                ),
                recovery=RecoveryPolicy(lease_timeout_s=2.0),
            )
            return SupMRRuntime(opts).run(_job(job_name, *job_args))

        reference = run("pipe")
        assert reference.counters["faults_injected"] > 0, (
            "worker fault plan never fired; the test is vacuous"
        )
        ref_events = [
            (e.site, e.action, e.scope) for e in reference.fault_log.events
        ]
        for transport in _XFER_AXIS[1:]:
            result = run(transport)
            assert result.output == reference.output, (
                f"{job_name}: faulted transport={transport} output diverged"
            )
            events = [
                (e.site, e.action, e.scope) for e in result.fault_log.events
            ]
            assert events == ref_events, (
                f"{job_name}: transport={transport} fault sequence diverged"
            )


@needs_fork
class TestPrefetchIngestEquivalence:
    """The prefetch reader keeps output and QoS accounting identical."""

    def test_prefetch_charges_qos_bucket_exactly_once(self, text_file):
        # The reader thread must not double-charge the token bucket:
        # throttled bytes == input bytes, once, same as the synchronous
        # pipeline.
        def run(pipelined):
            opts = _options("process").with_(
                pipelined_ingest=pipelined, io_budget="64MB", tenant="t-xfer"
            )
            return SupMRRuntime(opts).run(make_wordcount_job([text_file]))

        prefetched, synchronous = run(True), run(False)
        assert prefetched.n_chunks > 1, "one chunk starts no reader"
        assert prefetched.output == synchronous.output
        assert (
            prefetched.counters["throttle_bytes"]
            == synchronous.counters["throttle_bytes"]
            == text_file.stat().st_size
        )


@needs_fork
class TestPhoenixBackendEquivalence:
    def test_wordcount_matches_across_backends(self, text_file):
        outputs = {}
        for backend in BACKENDS:
            opts = RuntimeOptions.baseline(4, 3).with_(executor_backend=backend)
            outputs[backend] = (
                PhoenixRuntime(opts).run(make_wordcount_job([text_file])).output
            )
        assert outputs["thread"] == outputs["serial"]
        assert outputs["process"] == outputs["serial"]

    def test_backend_reported_in_counters(self, text_file):
        opts = RuntimeOptions.baseline(2, 2).with_(executor_backend="process")
        result = PhoenixRuntime(opts).run(make_wordcount_job([text_file]))
        assert result.counters["executor_backend"] == "process"
