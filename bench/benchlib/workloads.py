"""The six named workloads: sizes, generated inputs, options, references.

Names are fixed (later issues cite them); the one-line reason for each
is in ``BENCHMARK.json`` and the table in ``bench/README.md``.  Inputs
come only from ``repro.workloads`` generators seeded with ``--seed``;
the program under test receives nothing but the generated files.

Sizes were fixed on a 2-core box so that one job takes 0.3-0.8 s and a
15 s run holds 20-75 timed jobs: a quantile of that many samples repeats
better than best-of-3 over a few multi-second jobs did.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

from repro.apps import make_sort_job, make_wordcount_job
from repro.core.job import JobSpec
from repro.core.options import RuntimeOptions
from repro.workloads import (
    ZipfSampler,
    generate_terasort_file,
    make_vocabulary,
)

#: Word-count corpus: Zipf text, the paper's ingest-bound benchmark.
#: Chunks stay at 1 MB so a split is large enough for combine-on-insert
#: to shrink it tenfold before it crosses the process boundary.
WC_BYTES = 2 * 1024 * 1024
WC_ROUNDS = 2
WC_VOCAB = 5000
WC_EXPONENT = 1.1
WC_LINE_WORDS = 12
#: Terasort input: 100-byte gensort records.
SORT_RECORDS = 60_000
SORT_ROUNDS = 24
#: ``sort_spill`` budget as a share of the input.  Frozen where
#: SpillStats shows >= 9 runs and 2 merge passes at the default fan-in 8.
SPILL_BUDGET_SHARE = 6
#: One service job: small enough that the data plane is the minority of
#: the round trip.
SVC_BYTES = 128 * 1024
SVC_ROUNDS = 4

_MIN_CHUNK = 1024


@dataclass(frozen=True)
class Workload:
    """How one named workload is generated and driven."""

    name: str
    app: str  # "wordcount" | "sort"
    backend: str = "serial"
    spill: bool = False
    sharded: bool = False
    service: bool = False


WORKLOADS: tuple[Workload, ...] = (
    Workload("wc_serial", "wordcount"),
    Workload("wc_process", "wordcount", backend="process"),
    Workload("sort_process", "sort", backend="process"),
    Workload("sort_spill", "sort", spill=True),
    Workload("sort_sharded", "sort", sharded=True),
    Workload("svc_small_jobs", "wordcount", service=True),
)

BY_NAME = {w.name: w for w in WORKLOADS}


@dataclass(frozen=True)
class Inputs:
    """One workload's generated input and how it is chunked."""

    path: Path
    nbytes: int
    chunk_bytes: int


def generate_text(path: Path, nbytes: int, seed: int) -> int:
    """``nbytes`` of Zipf text; the seed picks the words drawn, not the
    vocabulary.

    ``generate_text_file`` seeds the vocabulary too, and the length of
    the few most frequent words then moves the word count of a fixed-size
    file by +-12 % from seed to seed — the work per job would depend on
    the seed more than on the code under test.  Same generator parts,
    fixed vocabulary: words per megabyte stay within half a percent.
    """
    vocab = make_vocabulary(WC_VOCAB)
    sampler = ZipfSampler(WC_VOCAB, WC_EXPONENT, seed=seed)
    lines, size = [], 0
    while size < nbytes:
        line = b" ".join(
            vocab[int(rank)] for rank in sampler.sample(WC_LINE_WORDS)
        ) + b"\n"
        lines.append(line)
        size += len(line)
    data = b"".join(lines)[:nbytes - 1] + b"\n"  # a whole number of records
    path.write_bytes(data)
    return len(data)


def generate(workload: Workload, directory: Path, seed: int,
             scale: float = 1.0) -> Inputs:
    """Write the workload's input file under ``directory``.

    Same ``(workload, seed, scale)`` -> byte-identical file.
    """
    directory.mkdir(parents=True, exist_ok=True)
    if workload.app == "sort":
        records = max(64, int(SORT_RECORDS * scale))
        path = directory / "records.dat"
        nbytes = generate_terasort_file(path, records, seed=seed)
        chunk = max(_MIN_CHUNK, nbytes // SORT_ROUNDS)
        return Inputs(path, nbytes, chunk)
    size, rounds = (SVC_BYTES, SVC_ROUNDS) if workload.service else (
        WC_BYTES, WC_ROUNDS)
    path = directory / "corpus.txt"
    nbytes = generate_text(
        path, max(4 * _MIN_CHUNK, int(size * scale)), seed)
    return Inputs(path, nbytes, max(_MIN_CHUNK, nbytes // rounds))


def make_job(workload: Workload, inputs: Inputs) -> JobSpec:
    """The job the CLI would build for this input."""
    if workload.app == "sort":
        return make_sort_job([inputs.path])
    return make_wordcount_job([inputs.path])


def make_options(workload: Workload, inputs: Inputs, workers: int,
                 **overrides: Any) -> RuntimeOptions:
    """The workload's runtime options; ``overrides`` swap single knobs
    (the traced run re-runs the same input on other backends)."""
    knobs: dict[str, Any] = {"executor_backend": workload.backend}
    if workload.spill:
        knobs["memory_budget"] = max(
            inputs.chunk_bytes + 1, inputs.nbytes // SPILL_BUDGET_SHARE
        )
    if workload.sharded:
        knobs["num_shards"] = workers
    knobs.update(overrides)
    return RuntimeOptions.supmr_interfile(
        inputs.chunk_bytes, workers, workers, **knobs
    )


def make_runtime(options: RuntimeOptions) -> Any:
    """The driver the CLI picks for ``options``."""
    if options.num_shards is not None:
        from repro.shard import ShardedRuntime

        return ShardedRuntime(options)
    from repro.core.supmr import SupMRRuntime

    return SupMRRuntime(options)


def service_spec(inputs: Inputs, workers: int, tag: str) -> Any:
    """One ``svc_small_jobs`` submission (unique ``tag`` -> unique job)."""
    from repro.service.jobspec import ServiceJobSpec

    return ServiceJobSpec(
        app="wordcount", inputs=(str(inputs.path),),
        chunk_size=str(inputs.chunk_bytes), mappers=workers,
        reducers=workers, backend="serial", tag=tag,
    )


# -- references computed without the runtime ---------------------------------


def pairs_digest(pairs: Iterable[tuple[Any, Any]]) -> str:
    """sha256 over the ordered pairs, in ``JobResult.output_digest`` form
    so a digest reported by the service compares directly."""
    h = hashlib.sha256()
    for key, value in pairs:
        h.update(repr((key, value)).encode())
    return h.hexdigest()


def reference_pairs(workload: Workload, inputs: Inputs) -> list[tuple]:
    """The expected ordered output, from the input bytes alone."""
    data = inputs.path.read_bytes()
    if workload.app == "sort":
        records = [r for r in data.split(b"\r\n") if r]
        return sorted(((r[:10], r[11:]) for r in records),
                      key=lambda kv: kv[0])
    return sorted(Counter(data.split()).items())
