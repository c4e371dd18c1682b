"""Shared fixtures: small real workloads and simulator scaffolding."""

from __future__ import annotations

import multiprocessing
import time
from pathlib import Path

import pytest
from hypothesis import settings

from repro.simhw.events import Simulator
from repro.workloads import (
    generate_small_files,
    generate_terasort_file,
    generate_text_file,
)


# ``--hypothesis-profile soak``: thousands of seeded schedules per state
# machine, the same ones every run (CI's soak job, shard leg); tier-1 keeps
# the default profile.
settings.register_profile(
    "soak", max_examples=2000, derandomize=True, deadline=None
)

#: Suites whose threads (link readers, pingers, the agent's pump) must
#: not die with a traceback: there it is a teardown-order bug, not noise.
_THREAD_STRICT = ("tests/net/", "tests/shard/")


def pytest_collection_modifyitems(items):
    strict = pytest.mark.filterwarnings(
        "error::pytest.PytestUnhandledThreadExceptionWarning"
    )
    for item in items:
        if any(part in item.path.as_posix() for part in _THREAD_STRICT):
            item.add_marker(strict)


_WORKER_PREFIXES = ("repro-pool-", "repro-shard-", "repro-agent-shard-")


@pytest.fixture(autouse=True)
def no_leaked_worker_processes():
    """Fail any test that leaves fork-pool workers behind.

    Covers every ``WorkerPool`` — a job's map pool and ``fork_map``'s
    one-wave pools, including workers the supervisor *respawned* after
    a crash or lease kill (``repro-pool-*``) — and shard workers.  A
    short grace loop absorbs the instant between a pool returning and
    its children being reaped.
    """
    yield
    deadline = time.monotonic() + 5.0
    leaked = [
        p for p in multiprocessing.active_children()
        if p.name.startswith(_WORKER_PREFIXES)
    ]
    while leaked and time.monotonic() < deadline:
        time.sleep(0.05)
        leaked = [
            p for p in multiprocessing.active_children()
            if p.name.startswith(_WORKER_PREFIXES)
        ]
    assert not leaked, (
        f"leaked worker processes: {[p.name for p in leaked]}"
    )


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture(scope="session")
def text_file(tmp_path_factory: pytest.TempPathFactory) -> Path:
    """~200 KB Zipf text file (session-scoped: generation is the slow part)."""
    path = tmp_path_factory.mktemp("data") / "corpus.txt"
    generate_text_file(path, 200_000, vocab_size=500, seed=11)
    return path


@pytest.fixture(scope="session")
def terasort_file(tmp_path_factory: pytest.TempPathFactory) -> Path:
    """3000 terasort records (~300 KB)."""
    path = tmp_path_factory.mktemp("data") / "records.dat"
    generate_terasort_file(path, 3000, seed=22)
    return path


@pytest.fixture(scope="session")
def small_files(tmp_path_factory: pytest.TempPathFactory) -> list[Path]:
    """30 small text files (the paper's intra-file chunking example size)."""
    directory = tmp_path_factory.mktemp("data") / "many"
    return generate_small_files(directory, 30, 4_000, vocab_size=300, seed=33)
