import pytest

from repro.core.supmr import SupMRRuntime

from benchlib import spans
from benchlib.replay import staged_replay
from benchlib.workloads import (
    BY_NAME,
    WORKLOADS,
    generate,
    make_job,
    make_options,
    pairs_digest,
    reference_pairs,
)

#: Scales that make each app's input about 64 KB.
SMALL = {"wordcount": 1 / 32, "sort": 655 / 60_000}


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_same_seed_same_bytes_other_seed_other_bytes(workload, tmp_path):
    scale = SMALL[workload.app]
    a = generate(workload, tmp_path / "a", seed=7, scale=scale)
    b = generate(workload, tmp_path / "b", seed=7, scale=scale)
    c = generate(workload, tmp_path / "c", seed=8, scale=scale)
    assert a.path.read_bytes() == b.path.read_bytes()
    assert a.path.read_bytes() != c.path.read_bytes()
    assert a.nbytes == a.path.stat().st_size


@pytest.mark.parametrize("name", ["wc_serial", "wc_process", "sort_process",
                                  "sort_spill", "sort_sharded"])
def test_replay_digest_equals_the_serial_runtime_and_the_reference(
        name, tmp_path):
    workload = BY_NAME[name]
    inputs = generate(workload, tmp_path / "in", seed=5,
                      scale=SMALL[workload.app])
    job = make_job(workload, inputs)
    plain = make_options(workload, inputs, 2, executor_backend="serial",
                         memory_budget=None, num_shards=None)
    result = SupMRRuntime(plain).run(job)
    assert pairs_digest(result.output) == result.output_digest()
    assert result.output_digest() == pairs_digest(
        reference_pairs(workload, inputs))

    tracer = spans.Tracer(name)
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    replay = staged_replay(job, make_options(workload, inputs, 2), tracer,
                           scratch, f"replay.{name}")
    assert replay.digest == result.output_digest()
    assert replay.bytes_read == inputs.nbytes
    assert spans.root_coverage(tracer.spans) > 0.5
    assert (replay.bytes_moved > 0) == (workload.backend == "process")
    assert (replay.exchange_bytes > 0) == workload.sharded
