"""Crash isolation of the daemon → zygote → runner chain, end to end.

Every test drives a live ``supmr serve`` subprocess, does something
violent to one link of the chain, and ends on the same two facts: the
job's digest is the one-shot digest, and once the daemon is gone no
process that names its state dir is left.

Jobs are throttled with ``io_budget`` so that they last seconds
whatever the box's speed: a kill aimed at a running job lands mid-job.
"""

from __future__ import annotations

import json
import os
import signal
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.service.client import ServiceClient
from repro.service.jobspec import ServiceJobSpec
from repro.service.state import (
    STATE_CANCELLED,
    STATE_DONE,
    STATE_FAILED,
    STATE_RUNNING,
    ServiceState,
)
from repro.workloads import generate_terasort_file, generate_text_file
from repro.xfer.segments import orphaned_segments

from tests.service.conftest import _daemon_env

_HOOK_DIR = str(Path(__file__).resolve().parent / "zygote_hook")


# -- the process table --------------------------------------------------------


def _stat(pid: int) -> "tuple[str, int, int] | None":
    """``(state, ppid, pgrp)`` of a process that is still executing;
    None once it is gone or a zombie waiting for its parent."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    fields = stat[stat.rindex(")") + 2:].split()
    if fields[0] == "Z":
        return None
    return fields[0], int(fields[1]), int(fields[2])


def _alive(pid: int) -> bool:
    return _stat(pid) is not None


def _pids() -> list[int]:
    return [int(e) for e in os.listdir("/proc")
            if e.isdigit() and int(e) != os.getpid()]


def _naming(needle: "str | Path") -> dict[int, str]:
    """Live processes whose command line contains ``needle``.  A forked
    runner and the workers it forks keep the zygote's command line, so
    the state dir finds the whole tree."""
    found = {}
    for pid in _pids():
        try:
            cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
        except OSError:
            continue
        text = cmdline.replace(b"\0", b" ").decode("utf-8", "replace")
        if str(needle) in text and _alive(pid):
            found[pid] = text.strip()
    return found


def _group(pgid: int) -> set[int]:
    """Live members of one process group."""
    return {pid for pid in _pids() if (_stat(pid) or (0, 0, 0))[2] == pgid}


def _until(what: str, probe, timeout_s: float = 30.0):
    """Poll ``probe`` until it returns something truthy."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = probe()
        if value:
            return value
        time.sleep(0.002)
    raise AssertionError(f"timed out waiting for {what}")


def _zygote_pid(state_dir: Path, daemon_pid: int) -> int:
    def find():
        return [
            pid for pid, cmd in _naming(state_dir).items()
            if "repro.service.runner" in cmd
            and (_stat(pid) or (0, 0, 0))[1] == daemon_pid
        ]

    (pid,) = _until("the zygote", find)
    return pid


def _runner_pid(state_dir: Path, job_id: str) -> int:
    """The pid of the job's live attempt, as the daemon recorded it."""
    pid_path = ServiceState(state_dir).job_dir(job_id) / "runner.pid"

    def read():
        try:
            return int(pid_path.read_text())
        except (OSError, ValueError):
            return None

    return _until(f"{job_id}'s runner.pid", read)


def _await_first_round(state_dir: Path, job_id: str) -> None:
    journal = ServiceState(state_dir).checkpoint_dir(job_id) / "journal.json"

    def mapping_with_a_round():
        try:
            state = json.loads(journal.read_text())["payload"]
        except (OSError, ValueError, KeyError):
            return False
        assert state["stage"] == "mapping", "the job outran the test"
        return bool(state["completed_rounds"])

    _until(f"{job_id}'s first journaled round", mapping_with_a_round)


def _shut_down_clean(client: ServiceClient, proc, state_dir: Path) -> None:
    """The last lines of every test: the daemon leaves, and leaves nothing."""
    client.shutdown()
    assert proc.wait(timeout=30) == 0
    assert _naming(state_dir) == {}


# -- inputs -------------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("zygote-data") / "corpus.txt"
    generate_text_file(path, 1_500_000, vocab_size=800, seed=7)
    return path


@pytest.fixture(scope="module")
def expected(corpus) -> str:
    """The one-shot digest every surviving job must end on."""
    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["wordcount", str(corpus), "--chunk-size", "64KB",
                     "--json"]) == 0
    return json.loads(out.getvalue())["digest"]


def slow_spec(corpus: Path, **kw) -> ServiceJobSpec:
    """~3 s of throttled ingest in 64 KB journaled rounds."""
    kw.setdefault("io_budget", "400KB")
    return ServiceJobSpec(
        app="wordcount", inputs=(str(corpus),), chunk_size="64KB", **kw
    )


# -- a runner dies ------------------------------------------------------------


class TestRunnerDeath:
    @pytest.mark.parametrize(
        "sig", [signal.SIGSEGV, signal.SIGKILL, signal.SIGTERM, signal.SIGINT],
        ids=lambda s: s.name,
    )
    def test_signal_death_relaunches_and_resumes(self, sig, corpus, expected,
                                                 tmp_path, daemon):
        state_dir = tmp_path / "svc"
        proc = daemon(state_dir)
        client = ServiceClient.from_state_dir(state_dir)
        zygote = _zygote_pid(state_dir, proc.pid)
        job_id = client.submit(slow_spec(corpus))["job_id"]
        _await_first_round(state_dir, job_id)
        runner = _runner_pid(state_dir, job_id)
        assert _stat(runner)[1:] == (zygote, runner), (
            "a runner is the zygote's child and leads its own group"
        )
        os.kill(runner, sig)

        record = client.wait(job_id, timeout_s=120)
        assert record.state == STATE_DONE
        assert record.digest == expected
        assert record.attempts == 2
        assert record.resumed
        assert record.cpu_s > 0 and record.max_rss_mb > 0
        assert not _alive(runner)
        # the signal stopped one runner: not the zygote, not the daemon
        assert proc.poll() is None
        assert client.ping()["draining"] is False
        assert _zygote_pid(state_dir, proc.pid) == zygote
        _shut_down_clean(client, proc, state_dir)

    def test_unclassified_exit_relaunches_and_resumes(self, corpus, expected,
                                                      tmp_path, daemon):
        env = _daemon_env()
        env["PYTHONPATH"] = _HOOK_DIR + os.pathsep + env["PYTHONPATH"]
        env["ZYGOTE_TEST_HOOK"] = f"exit7:{tmp_path / 'exited-once'}"
        state_dir = tmp_path / "svc"
        proc = daemon(state_dir, env=env)
        client = ServiceClient.from_state_dir(state_dir)
        zygote = _zygote_pid(state_dir, proc.pid)
        job_id = client.submit(slow_spec(corpus))["job_id"]

        record = client.wait(job_id, timeout_s=120)
        assert (tmp_path / "exited-once").exists()
        assert record.state == STATE_DONE
        assert record.digest == expected
        assert record.attempts == 2
        assert record.resumed
        assert proc.poll() is None
        assert _zygote_pid(state_dir, proc.pid) == zygote
        _shut_down_clean(client, proc, state_dir)


# -- a runner leaves ----------------------------------------------------------


class TestWayOut:
    """A forked runner settles what the interpreter's exit would have —
    threads, ``atexit`` hooks, stdio — and then ``os._exit``s instead of
    tearing down the heap it shares with the zygote."""

    def test_a_runner_settles_its_exit_and_skips_teardown(
            self, corpus, expected, tmp_path, daemon):
        markers = tmp_path / "markers"
        markers.mkdir()
        env = _daemon_env()
        env["PYTHONPATH"] = _HOOK_DIR + os.pathsep + env["PYTHONPATH"]
        env["ZYGOTE_TEST_HOOK"] = f"exit-contract:{markers}"
        state_dir = tmp_path / "svc"
        proc = daemon(state_dir, env=env)
        client = ServiceClient.from_state_dir(state_dir)
        job_id = client.submit(slow_spec(corpus, io_budget=None))["job_id"]

        record = client.wait(job_id, timeout_s=120)
        assert record.state == STATE_DONE
        assert record.digest == expected
        assert record.attempts == 1
        # the atexit hook ran, the thread had finished before the zygote
        # saw the runner end, and no module global was torn down
        assert sorted(p.name for p in markers.iterdir()) == ["atexit", "thread"]
        log = ServiceState(state_dir).runner_log_path(job_id).read_text()
        assert "exit-contract: a line with no newline" in log
        assert "exit-contract: a record only logging.shutdown flushes" in log
        _shut_down_clean(client, proc, state_dir)

    def test_an_unclassified_failure_is_reported_and_fails_the_job(
            self, corpus, tmp_path, daemon):
        env = _daemon_env()
        env["PYTHONPATH"] = _HOOK_DIR + os.pathsep + env["PYTHONPATH"]
        env["ZYGOTE_TEST_HOOK"] = "raise"
        state_dir = tmp_path / "svc"
        proc = daemon(state_dir, env=env)
        client = ServiceClient.from_state_dir(state_dir)
        job_id = client.submit(slow_spec(corpus, io_budget=None))["job_id"]

        record = client.wait(job_id, timeout_s=120)
        assert record.state == STATE_FAILED
        assert record.exit_code == 1
        assert record.attempts == 1
        assert record.error.startswith("RuntimeError: ")
        state = ServiceState(state_dir)
        error = json.loads((state.job_dir(job_id) / "error.json").read_text())
        assert (error["type"], error["exit_code"]) == ("RuntimeError", 1)
        log = state.runner_log_path(job_id).read_text()
        assert "Traceback (most recent call last):" in log
        assert "RuntimeError: zygote test hook: no exit code classifies this" in log
        _shut_down_clean(client, proc, state_dir)


# -- the zygote dies ----------------------------------------------------------


class TestZygoteDeath:
    def test_in_flight_jobs_requeue_onto_a_new_zygote(self, corpus, expected,
                                                      tmp_path, daemon):
        state_dir = tmp_path / "svc"
        proc = daemon(state_dir, "--max-jobs", "2")
        client = ServiceClient.from_state_dir(state_dir)
        zygote = _zygote_pid(state_dir, proc.pid)
        jobs = [client.submit(slow_spec(corpus, tag=tag))["job_id"]
                for tag in ("a", "b")]
        for job_id in jobs:
            _await_first_round(state_dir, job_id)
        runners = [_runner_pid(state_dir, job_id) for job_id in jobs]
        os.kill(zygote, signal.SIGKILL)

        for job_id in jobs:
            record = client.wait(job_id, timeout_s=120)
            assert record.state == STATE_DONE
            assert record.digest == expected
            # the lost attempt is charged once, like any runner crash
            assert record.attempts == 2
            assert record.resumed
        assert not any(_alive(pid) for pid in (zygote, *runners))
        assert proc.poll() is None
        assert _zygote_pid(state_dir, proc.pid) != zygote
        _shut_down_clean(client, proc, state_dir)


# -- the daemon dies ----------------------------------------------------------


class TestDaemonDeath:
    def test_nothing_outlives_a_killed_daemon(self, corpus, expected,
                                              tmp_path, daemon):
        state_dir = tmp_path / "svc"
        proc = daemon(state_dir)
        client = ServiceClient.from_state_dir(state_dir)
        zygote = _zygote_pid(state_dir, proc.pid)
        spec = slow_spec(corpus, backend="process", mappers=2)
        job_id = client.submit(spec)["job_id"]
        _await_first_round(state_dir, job_id)
        runner = _runner_pid(state_dir, job_id)
        assert len(_group(runner)) > 1, "the pool workers share the group"
        proc.kill()
        proc.wait()

        # no new daemon, no orphan for one to reap: the zygote saw the
        # control socket close and took its runners with it
        _until("the zygote and the runner group to go",
               lambda: not _alive(zygote) and not _group(runner),
               timeout_s=2.0)
        assert _naming(state_dir) == {}
        record = ServiceState(state_dir).load_record(job_id)
        assert record.state == STATE_RUNNING  # the daemon had no last word

        (state_dir / "endpoint.json").unlink()
        proc = daemon(state_dir)
        client = ServiceClient.from_state_dir(state_dir)
        assert client.submit(spec)["reattached"]
        record = client.wait(job_id, timeout_s=120)
        assert record.state == STATE_DONE
        assert record.digest == expected
        assert record.resumed
        _shut_down_clean(client, proc, state_dir)


# -- the daemon kills ---------------------------------------------------------


class TestKillSites:
    def _running_pool_job(self, client, state_dir, corpus) -> "tuple[str, int]":
        spec = slow_spec(corpus, backend="process", mappers=2)
        job_id = client.submit(spec)["job_id"]
        runner = _runner_pid(state_dir, job_id)
        _until("the runner's pool workers", lambda: len(_group(runner)) > 1)
        return job_id, runner

    def test_cancel_kills_the_pool_workers_with_the_runner(self, corpus,
                                                           tmp_path, daemon):
        state_dir = tmp_path / "svc"
        proc = daemon(state_dir)
        client = ServiceClient.from_state_dir(state_dir)
        job_id, runner = self._running_pool_job(client, state_dir, corpus)
        client.cancel(job_id)
        record = client.wait(job_id, timeout_s=60)
        assert record.state == STATE_CANCELLED
        assert not _group(runner)
        _shut_down_clean(client, proc, state_dir)

    def test_job_timeout_kills_the_pool_workers_with_the_runner(
            self, corpus, tmp_path, daemon):
        state_dir = tmp_path / "svc"
        proc = daemon(state_dir, "--job-timeout", "1.0")
        client = ServiceClient.from_state_dir(state_dir)
        job_id, runner = self._running_pool_job(client, state_dir, corpus)
        record = client.wait(job_id, timeout_s=60)
        assert record.state == STATE_FAILED
        assert record.exit_code == 4
        assert "timeout" in record.error
        assert not _group(runner)
        _shut_down_clean(client, proc, state_dir)


# -- what a fork must not share -----------------------------------------------


class TestConcurrentRunners:
    def test_shm_spill_sorts_leave_nothing_behind(self, tmp_path, daemon,
                                                  capsys):
        records = tmp_path / "records.dat"
        generate_terasort_file(records, 6000, seed=22)
        flags = ["--chunk-size", "50KB", "--backend", "process",
                 "--mappers", "2", "--transport", "shm",
                 "--memory-budget", "150KB"]
        assert main(["sort", str(records), *flags, "--json"]) == 0
        one_shot = json.loads(capsys.readouterr().out)
        assert one_shot["spill"]["runs"] > 0, "the budget should force spills"

        env = _daemon_env()
        env["TMPDIR"] = str(tmp_path / "tmp")
        (tmp_path / "tmp").mkdir()
        shm_before = set(orphaned_segments())
        state_dir = tmp_path / "svc"
        proc = daemon(state_dir, "--max-jobs", "2", env=env)
        client = ServiceClient.from_state_dir(state_dir)
        jobs = [
            client.submit(ServiceJobSpec(
                app="sort", inputs=(str(records),), chunk_size="50KB",
                backend="process", mappers=2, transport="shm",
                memory_budget="150KB", tag=tag,
            ))["job_id"]
            for tag in ("a", "b")
        ]
        for job_id in jobs:
            record = client.wait(job_id, timeout_s=120)
            assert record.state == STATE_DONE
            assert record.digest == one_shot["digest"]
        _shut_down_clean(client, proc, state_dir)
        assert set(orphaned_segments()) - shm_before == set()
        assert list((tmp_path / "tmp").glob("repro-spill-*")) == []

    def test_forked_runners_share_no_identity(self, corpus, expected,
                                              tmp_path, daemon):
        """Fork duplicates module state, so two runners of one zygote
        are identical twins except where a name comes from the pid or
        from the OS's randomness — which is where the runtime's names
        (transport nonces, spill dirs) must keep coming from."""
        env = _daemon_env()
        env["PYTHONPATH"] = _HOOK_DIR + os.pathsep + env["PYTHONPATH"]
        env["ZYGOTE_TEST_HOOK"] = "identity"
        state_dir = tmp_path / "svc"
        proc = daemon(state_dir, "--max-jobs", "2", env=env)
        client = ServiceClient.from_state_dir(state_dir)
        zygote = _zygote_pid(state_dir, proc.pid)
        jobs = [client.submit(slow_spec(corpus, tag=tag, io_budget="2MB"))
                ["job_id"] for tag in ("a", "b")]
        for job_id in jobs:
            record = client.wait(job_id, timeout_s=120)
            assert record.state == STATE_DONE
            assert record.digest == expected
        state = ServiceState(state_dir)
        twins = []
        for job_id in jobs:
            (line,) = [
                ln for ln in state.runner_log_path(job_id).read_text()
                .splitlines() if ln.startswith("identity ")
            ]
            twins.append(line.split()[1:])
        for ours, theirs in zip(*twins):
            assert ours != theirs, twins
        # and the zygote they came from has no thread a fork could lose
        status = Path(f"/proc/{zygote}/status").read_text()
        assert "\nThreads:\t1\n" in status
        _shut_down_clean(client, proc, state_dir)
