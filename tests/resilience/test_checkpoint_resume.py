"""Crash-safe checkpoint/resume: killed jobs finish with identical output."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

import repro.core.driver as driver_mod
from repro.apps.wordcount import make_wordcount_job
from repro.core.options import RuntimeOptions
from repro.core.phoenix import PhoenixRuntime
from repro.core.supmr import SupMRRuntime
from repro.errors import CheckpointError, SpillError
from repro.exitcodes import EXIT_FAILURE, classify_exception
from tests.spill.damage import rewrite_as_v1, rewrite_as_v2

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _opts(ckpt: Path, resume: bool = False, **extra) -> RuntimeOptions:
    return RuntimeOptions.supmr_interfile("32KB", 2, 2).with_(
        checkpoint_dir=str(ckpt), resume=resume, **extra
    )


class TestResumeAfterInProcessFailure:
    """Crash the job at controlled points and resume from the journal."""

    def test_resume_skips_journaled_rounds(self, tmp_path, text_file, monkeypatch):
        job = make_wordcount_job([text_file])
        reference = SupMRRuntime(_opts(tmp_path / "ref")).run(job)

        def exploding_reducers(*args, **kwargs):
            raise RuntimeError("simulated crash before the reduce phase")

        monkeypatch.setattr(driver_mod, "run_reducers", exploding_reducers)
        with pytest.raises(RuntimeError, match="simulated crash"):
            SupMRRuntime(_opts(tmp_path / "ckpt")).run(job)
        monkeypatch.undo()

        state = json.loads(
            (tmp_path / "ckpt" / "journal.json").read_text()
        )["payload"]
        assert state["stage"] == "mapping"
        assert state["completed_rounds"], "no rounds were journaled"

        resumed = SupMRRuntime(_opts(tmp_path / "ckpt", resume=True)).run(job)
        assert resumed.counters["resumed"] is True
        assert resumed.counters["resumed_rounds"] == len(
            state["completed_rounds"]
        )
        assert resumed.output == reference.output
        assert resumed.output_digest() == reference.output_digest()

    def test_resume_at_reduced_stage_goes_straight_to_merge(
        self, tmp_path, text_file, monkeypatch
    ):
        job = make_wordcount_job([text_file])
        reference = SupMRRuntime(_opts(tmp_path / "ref")).run(job)

        def exploding_merge(*args, **kwargs):
            raise RuntimeError("simulated crash during the merge phase")

        monkeypatch.setattr(driver_mod, "merge_outputs", exploding_merge)
        with pytest.raises(RuntimeError, match="simulated crash"):
            SupMRRuntime(_opts(tmp_path / "ckpt")).run(job)
        monkeypatch.undo()

        state = json.loads(
            (tmp_path / "ckpt" / "journal.json").read_text()
        )["payload"]
        assert state["stage"] == "reduced"

        resumed = SupMRRuntime(_opts(tmp_path / "ckpt", resume=True)).run(job)
        assert resumed.counters["resumed"] is True
        assert resumed.output == reference.output

    def test_spill_runs_survive_the_crash_and_are_adopted(
        self, tmp_path, text_file, monkeypatch
    ):
        job = make_wordcount_job([text_file])

        def opts(ckpt, resume=False):
            # The budget must exceed one ingest chunk but stay small
            # enough that the job's cumulative intermediate set spills.
            return RuntimeOptions.supmr_interfile("16KB", 2, 2).with_(
                checkpoint_dir=str(ckpt), resume=resume,
                memory_budget="24KB",
            )

        reference = SupMRRuntime(opts(tmp_path / "ref")).run(job)
        assert reference.spill_stats.runs > 0, "budget never spilled; vacuous"

        def exploding_reducers(*args, **kwargs):
            raise RuntimeError("simulated crash")

        monkeypatch.setattr(driver_mod, "run_reducers", exploding_reducers)
        with pytest.raises(RuntimeError):
            SupMRRuntime(opts(tmp_path / "ckpt")).run(job)
        monkeypatch.undo()

        surviving = list((tmp_path / "ckpt" / "spill").glob("run-*.spl"))
        assert surviving, "spill runs were cleaned up despite the journal"

        resumed = SupMRRuntime(opts(tmp_path / "ckpt", resume=True)).run(job)
        assert resumed.output == reference.output
        assert resumed.spill_stats.runs >= len(surviving)

    def test_format_1_runs_are_not_resumable(
        self, tmp_path, text_file, monkeypatch
    ):
        # A checkpoint sealed before the block format: resume must stop
        # at adoption with the typed error, not merge or mis-decode it.
        job = make_wordcount_job([text_file])

        def opts(resume=False):
            return RuntimeOptions.supmr_interfile("16KB", 2, 2).with_(
                checkpoint_dir=str(tmp_path / "ckpt"), resume=resume,
                memory_budget="24KB",
            )

        def exploding_reducers(*args, **kwargs):
            raise RuntimeError("simulated crash")

        monkeypatch.setattr(driver_mod, "run_reducers", exploding_reducers)
        with pytest.raises(RuntimeError):
            SupMRRuntime(opts()).run(job)
        monkeypatch.undo()
        surviving = sorted((tmp_path / "ckpt" / "spill").glob("run-*.spl"))
        assert surviving, "budget never spilled; vacuous"
        rewrite_as_v1(surviving[0])

        with pytest.raises(SpillError, match="run format version 1") as exc:
            SupMRRuntime(opts(resume=True)).run(job)
        assert classify_exception(exc.value) == EXIT_FAILURE

    def test_format_2_runs_are_not_resumable(
        self, tmp_path, terasort_file, monkeypatch, capsys
    ):
        # A checkpoint whose sealed runs hold (key, values_tuple) groups:
        # every checksum of such a file is true, so only the version
        # stands between it and a merge that would take groups for
        # records.  Through the CLI, as an operator would hit it.
        from repro.cli import main

        ckpt = tmp_path / "ckpt"
        argv = [
            "sort", str(terasort_file), "--chunk-size", "25KB",
            "--backend", "serial", "--memory-budget", "96KB",
            "--checkpoint-dir", str(ckpt),
        ]

        def exploding_reducers(*args, **kwargs):
            raise RuntimeError("simulated crash")

        monkeypatch.setattr(driver_mod, "run_reducers", exploding_reducers)
        with pytest.raises(RuntimeError):
            main(argv)
        monkeypatch.undo()
        sealed = sorted((ckpt / "spill").glob("run-*.spl"))
        assert len(sealed) >= 3, "budget never spilled; vacuous"
        for path in sealed:
            rewrite_as_v2(path)
        before = {p.name: p.read_bytes() for p in (ckpt / "spill").iterdir()}
        tmp_before = set(Path(tempfile.gettempdir()).glob("repro-spill-*"))
        capsys.readouterr()

        merged = []
        monkeypatch.setattr(
            "repro.spill.external_merge.merge_sorted_blocks",
            lambda *a, **k: merged.append(1) or iter(()),
        )
        code = main(argv + ["--resume"])
        err = capsys.readouterr().err
        assert code == EXIT_FAILURE
        assert "unsupported run format version 2" in err
        assert not merged, "a format-2 run reached the merge"
        # Nothing merged, nothing written, nothing left behind: the
        # checkpoint is as the crash left it and no temp dir appeared.
        after = {p.name: p.read_bytes() for p in (ckpt / "spill").iterdir()}
        assert after == before
        assert set(
            Path(tempfile.gettempdir()).glob("repro-spill-*")
        ) == tmp_before

    def test_resume_with_changed_options_is_refused(
        self, tmp_path, text_file, monkeypatch
    ):
        job = make_wordcount_job([text_file])

        def exploding_reducers(*args, **kwargs):
            raise RuntimeError("simulated crash")

        monkeypatch.setattr(driver_mod, "run_reducers", exploding_reducers)
        with pytest.raises(RuntimeError):
            SupMRRuntime(_opts(tmp_path / "ckpt")).run(job)
        monkeypatch.undo()

        other = RuntimeOptions.supmr_interfile("64KB", 2, 2).with_(
            checkpoint_dir=str(tmp_path / "ckpt"), resume=True
        )
        with pytest.raises(CheckpointError, match="fingerprint"):
            SupMRRuntime(other).run(job)

    def test_completed_checkpoint_reruns_fresh(self, tmp_path, text_file):
        job = make_wordcount_job([text_file])
        first = SupMRRuntime(_opts(tmp_path / "ckpt")).run(job)
        again = SupMRRuntime(_opts(tmp_path / "ckpt", resume=True)).run(job)
        assert "resumed" not in again.counters
        assert again.output == first.output

    def test_phoenix_resumes_at_reduced_stage(
        self, tmp_path, text_file, monkeypatch
    ):
        job = make_wordcount_job([text_file])
        base = RuntimeOptions.baseline(2, 2)
        reference = PhoenixRuntime(base).run(job)

        opts = base.with_(checkpoint_dir=str(tmp_path / "ckpt"))

        def exploding_merge(*args, **kwargs):
            raise RuntimeError("simulated crash")

        monkeypatch.setattr(driver_mod, "merge_outputs", exploding_merge)
        with pytest.raises(RuntimeError):
            PhoenixRuntime(opts).run(job)
        monkeypatch.undo()

        resumed = PhoenixRuntime(opts.with_(resume=True)).run(job)
        assert resumed.counters["resumed"] is True
        assert resumed.output == reference.output


_KILL_RUNNER = """
import sys
sys.path.insert(0, {src!r})
from repro.apps.wordcount import make_wordcount_job
from repro.core.options import RuntimeOptions
from repro.core.supmr import SupMRRuntime

opts = RuntimeOptions.supmr_interfile("16KB", 2, 2).with_(
    checkpoint_dir=sys.argv[2], resume=(sys.argv[3] == "resume"))
result = SupMRRuntime(opts).run(make_wordcount_job([sys.argv[1]]))
print("DIGEST", result.output_digest())
"""


class TestResumeAfterSigkill:
    """The acceptance-criteria round trip: kill -9 mid-job, resume, diff."""

    def test_sigkill_mid_job_resumes_byte_identical(self, tmp_path, text_file):
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        runner = _KILL_RUNNER.format(src=REPO_SRC)
        ckpt = tmp_path / "ckpt"

        reference = subprocess.run(
            [sys.executable, "-c", runner,
             str(text_file), str(tmp_path / "ref"), "fresh"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert reference.returncode == 0, reference.stderr
        ref_digest = reference.stdout.split()[1]

        proc = subprocess.Popen(
            [sys.executable, "-c", runner,
             str(text_file), str(ckpt), "fresh"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        journal = ckpt / "journal.json"
        deadline = time.monotonic() + 60
        killed = False
        while time.monotonic() < deadline and proc.poll() is None:
            if journal.exists():
                try:
                    state = json.loads(journal.read_text())["payload"]
                except (ValueError, KeyError):
                    time.sleep(0.002)
                    continue
                if state["completed_rounds"] and state["stage"] == "mapping":
                    proc.send_signal(signal.SIGKILL)
                    killed = True
                    break
            time.sleep(0.002)
        proc.wait(timeout=60)
        if not killed:
            pytest.skip(
                "job finished before a round could be journaled and killed"
            )

        resumed = subprocess.run(
            [sys.executable, "-c", runner,
             str(text_file), str(ckpt), "resume"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout.split()[1] == ref_digest
