"""End-to-end service tests against a live daemon subprocess.

The contract under test is the PR's acceptance bar: concurrent
submissions produce digests **byte-identical** to their one-shot CLI
runs, a SIGTERM'd daemon requeues durably and a resubmission after
restart *resumes* from the journal, over-admission is a typed
rejection, and ``submit --wait`` speaks the shared exit-code contract.
"""

from __future__ import annotations

import hashlib
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import AdmissionError, JobNotFound, ServiceError
from repro.exitcodes import EXIT_DEADLINE
from repro.service.client import ServiceClient
from repro.service.jobspec import ServiceJobSpec
from repro.service.state import (
    STATE_DONE,
    STATE_QUEUED,
    JobRecord,
    ServiceState,
    write_json_crc,
)
from repro.workloads import generate_text_file

from tests.service.conftest import _daemon_env, start_daemon, stop_daemon


@pytest.fixture(scope="module")
def big_corpus(tmp_path_factory) -> Path:
    """~1.5 MB corpus: enough 64 KB rounds that a daemon can be killed
    mid-job with rounds both journaled and still outstanding."""
    path = tmp_path_factory.mktemp("service-data") / "big.txt"
    generate_text_file(path, 1_500_000, vocab_size=800, seed=7)
    return path


def one_shot_digest(capsys, argv) -> str:
    assert main([*argv, "--json"]) == 0
    return json.loads(capsys.readouterr().out)["digest"]


def wc_spec(path: Path, **kw) -> ServiceJobSpec:
    return ServiceJobSpec(
        app="wordcount", inputs=(str(path),), chunk_size="32KB", **kw
    )


class TestConcurrentSubmits:
    def test_digests_match_one_shot_runs(self, text_file, terasort_file,
                                         tmp_path, daemon, capsys):
        wc_expected = one_shot_digest(
            capsys, ["wordcount", str(text_file), "--chunk-size", "32KB"]
        )
        sort_expected = one_shot_digest(
            capsys, ["sort", str(terasort_file), "--chunk-size", "50KB"]
        )
        state_dir = tmp_path / "svc"
        daemon(state_dir)
        client = ServiceClient.from_state_dir(state_dir)

        wc = client.submit(wc_spec(text_file))
        st = client.submit(ServiceJobSpec(
            app="sort", inputs=(str(terasort_file),), chunk_size="50KB",
        ))
        assert wc["job_id"] != st["job_id"]

        wc_rec = client.wait(wc["job_id"], timeout_s=120)
        st_rec = client.wait(st["job_id"], timeout_s=120)
        assert wc_rec.state == STATE_DONE
        assert st_rec.state == STATE_DONE
        assert wc_rec.digest == wc_expected
        assert st_rec.digest == sort_expected

        # the stored report carries the same digest as the record
        report = client.result(wc["job_id"])["report"]
        assert report["digest"] == wc_expected

        # identical resubmission reattaches instead of re-running
        again = client.submit(wc_spec(text_file))
        assert again["reattached"]
        assert again["job_id"] == wc["job_id"]

    def test_status_and_not_finished_errors(self, text_file, tmp_path,
                                            daemon):
        state_dir = tmp_path / "svc"
        daemon(state_dir)
        client = ServiceClient.from_state_dir(state_dir)
        with pytest.raises(JobNotFound):
            client.status("0000deadbeef")
        with pytest.raises(JobNotFound):
            client.result("0000deadbeef")
        submitted = client.submit(wc_spec(text_file))
        reply = client.status(submitted["job_id"])
        assert reply["job"]["state"] in ("queued", "running", "done")
        client.wait(submitted["job_id"], timeout_s=120)


class TestSigtermResume:
    def _await_first_round(self, journal_path: Path, timeout_s=60.0) -> int:
        """Poll the job's journal until at least one round is durable."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if journal_path.exists():
                try:
                    state = json.loads(journal_path.read_text())["payload"]
                except (ValueError, KeyError):
                    time.sleep(0.002)
                    continue
                if state["completed_rounds"] and state["stage"] == "mapping":
                    return len(state["completed_rounds"])
            time.sleep(0.002)
        raise AssertionError("no journaled round before the timeout")

    def test_sigterm_requeues_and_resubmit_resumes(self, big_corpus,
                                                   tmp_path, daemon, capsys):
        expected = one_shot_digest(
            capsys, ["wordcount", str(big_corpus), "--chunk-size", "64KB"]
        )
        state_dir = tmp_path / "svc"
        proc = daemon(state_dir)
        client = ServiceClient.from_state_dir(state_dir)
        spec = ServiceJobSpec(
            app="wordcount", inputs=(str(big_corpus),), chunk_size="64KB",
        )
        job_id = client.submit(spec)["job_id"]

        journal = (ServiceState(state_dir).checkpoint_dir(job_id)
                   / "journal.json")
        rounds = self._await_first_round(journal)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0

        # the drain parked the job durably, ready for the next daemon
        record = ServiceState(state_dir).load_record(job_id)
        assert record.state == STATE_QUEUED
        assert rounds >= 1

        daemon(state_dir)  # restart over the same state dir
        client = ServiceClient.from_state_dir(state_dir)
        again = client.submit(spec)
        assert again["reattached"]
        assert again["job_id"] == job_id
        record = client.wait(job_id, timeout_s=180)
        assert record.state == STATE_DONE
        assert record.digest == expected
        assert record.resumed, (
            "the relaunched attempt should adopt the journaled rounds"
        )


class TestOldStateDir:
    def test_a_spec_with_retired_fields_recovers_and_finishes(
        self, text_file, tmp_path, daemon, capsys
    ):
        # A queued job as an older build left it: its spec.json carries
        # ingest_readers / ingest_depth, and its id hashes them.
        expected = one_shot_digest(
            capsys, ["wordcount", str(text_file), "--chunk-size", "32KB"]
        )
        old = {**wc_spec(text_file).to_dict(),
               "ingest_readers": 2, "ingest_depth": None}
        old_id = hashlib.sha256(json.dumps(
            old, sort_keys=True, separators=(",", ":")
        ).encode()).hexdigest()[:12]
        assert old_id != wc_spec(text_file).job_id()
        state_dir = tmp_path / "svc"
        state = ServiceState(state_dir)
        state.create_job(
            wc_spec(text_file), JobRecord(job_id=old_id, state=STATE_QUEUED)
        )
        write_json_crc(state.spec_path(old_id), old)

        daemon(state_dir)
        record = ServiceClient.from_state_dir(state_dir).wait(
            old_id, timeout_s=120
        )
        assert record.state == STATE_DONE
        assert record.job_id == old_id  # a recovered job keeps its id
        assert record.digest == expected


class TestAdmissionOverTheWire:
    def test_queue_full_rejection(self, big_corpus, text_file, tmp_path,
                                  daemon):
        state_dir = tmp_path / "svc"
        daemon(state_dir, "--max-jobs", "1", "--queue-depth", "1")
        client = ServiceClient.from_state_dir(state_dir)
        running = client.submit(ServiceJobSpec(
            app="wordcount", inputs=(str(big_corpus),), chunk_size="64KB",
        ))
        client.submit(wc_spec(text_file, tag="queued"))
        with pytest.raises(AdmissionError) as exc:
            client.submit(wc_spec(text_file, tag="rejected"))
        assert exc.value.code == "queue-full"
        client.cancel(running["job_id"])

    def test_budget_rejection(self, text_file, tmp_path, daemon):
        state_dir = tmp_path / "svc"
        daemon(state_dir, "--service-budget", "1MB")
        client = ServiceClient.from_state_dir(state_dir)
        with pytest.raises(AdmissionError) as exc:
            client.submit(wc_spec(text_file))
        assert exc.value.code == "budget-exceeded"
        admitted = client.submit(wc_spec(text_file, memory_budget="512KB"))
        client.wait(admitted["job_id"], timeout_s=120)

    def test_cancel_queued_job(self, big_corpus, text_file, tmp_path,
                               daemon):
        state_dir = tmp_path / "svc"
        daemon(state_dir, "--max-jobs", "1")
        client = ServiceClient.from_state_dir(state_dir)
        running = client.submit(ServiceJobSpec(
            app="wordcount", inputs=(str(big_corpus),), chunk_size="64KB",
        ))
        queued = client.submit(wc_spec(text_file))
        reply = client.cancel(queued["job_id"])
        assert reply["job"]["state"] == "cancelled"
        client.cancel(running["job_id"])

    def test_shutdown_drains(self, tmp_path, daemon):
        state_dir = tmp_path / "svc"
        proc = daemon(state_dir)
        client = ServiceClient.from_state_dir(state_dir)
        client.shutdown()
        assert proc.wait(timeout=30) == 0
        assert not (state_dir / "endpoint.json").exists()
        with pytest.raises(ServiceError):
            ServiceClient.from_state_dir(state_dir)


class TestCrashRespawn:
    def test_injected_runner_crash_respawns_and_resumes(self, text_file,
                                                        tmp_path, daemon,
                                                        capsys):
        expected = one_shot_digest(
            capsys, ["wordcount", str(text_file), "--chunk-size", "32KB"]
        )
        state_dir = tmp_path / "svc"
        daemon(state_dir, "--faults", "service.job.crash=once")
        client = ServiceClient.from_state_dir(state_dir)
        job_id = client.submit(wc_spec(text_file))["job_id"]
        record = client.wait(job_id, timeout_s=180)
        assert record.state == STATE_DONE
        assert record.attempts == 2, (
            "the crashed attempt should be followed by exactly one respawn"
        )
        assert record.digest == expected


class TestSubmitWaitCli:
    def _submit_cli(self, state_dir, *job_args):
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", "submit",
             "--state-dir", str(state_dir), "--wait", *job_args],
            env=_daemon_env(), capture_output=True, text=True, timeout=180,
        )

    def test_wait_exit_code_matches_one_shot_contract(self, text_file,
                                                      tmp_path, daemon):
        state_dir = tmp_path / "svc"
        daemon(state_dir)
        done = self._submit_cli(
            state_dir, "wordcount", str(text_file), "--chunk-size", "32KB",
        )
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout)
        assert report["digest"]
        assert "job" in done.stderr  # streamed transitions

        expired = self._submit_cli(
            state_dir, "wordcount", str(text_file), "--chunk-size", "32KB",
            "--job-deadline", "0.000001",
        )
        assert expired.returncode == EXIT_DEADLINE, expired.stderr
