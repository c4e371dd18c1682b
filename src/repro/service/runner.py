"""The per-job runner subprocess (``python -m repro.service.runner``).

The daemon never runs MapReduce work in-process: each admitted job gets
a runner subprocess over its job directory, so a job that crashes, leaks
memory, or gets killed takes itself out — not the service.  The runner:

1. loads the CRC-enveloped ``spec.json`` the daemon wrote at admission;
2. lowers it to :class:`~repro.core.options.RuntimeOptions` with the
   job's own ``checkpoint/`` dir and ``resume=True``, so *every*
   submitted job is automatically crash-resumable via the
   :class:`~repro.resilience.journal.JobJournal` — a relaunched runner
   picks up where the dead one's journal left off;
3. runs the job on the same runtime dispatch the one-shot CLI uses
   (plain, Phoenix, or sharded) — digests are byte-identical;
4. writes ``result.json`` (the one-shot ``--json`` report) on success or
   ``error.json`` on failure, and exits with the shared
   :mod:`repro.exitcodes` so the daemon can classify the outcome.

``--crash-after-round N`` arms the ``service.job.crash`` fault site: a
watchdog thread SIGKILLs the runner once N ingest rounds are journaled,
letting the fault matrix prove that a mid-job runner death is recovered
by relaunch + journal resume.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path

from repro.core.supmr import run_job
from repro.exitcodes import EXIT_FAILURE, classify_exception, classify_result
from repro.service.jobspec import ServiceJobSpec
from repro.service.state import read_json_crc
from repro.util.atomic import publish

#: How often the crash watchdog polls the journal.
_WATCH_INTERVAL_S = 0.002


def _arm_crash_watchdog(checkpoint_dir: Path, after_rounds: int) -> None:
    """SIGKILL this process once ``after_rounds`` rounds are journaled."""

    def watch() -> None:
        journal = checkpoint_dir / "journal.json"
        while True:
            try:
                state = json.loads(journal.read_text())["payload"]
                if len(state.get("completed_rounds", ())) >= after_rounds:
                    os.kill(os.getpid(), signal.SIGKILL)
            except (OSError, ValueError, KeyError):
                pass
            time.sleep(_WATCH_INTERVAL_S)

    threading.Thread(target=watch, name="crash-watchdog", daemon=True).start()


def run_job_dir(job_dir: Path, crash_after_round: int | None = None) -> int:
    """Execute the job described by ``job_dir``; returns the exit code."""
    spec = ServiceJobSpec.from_dict(read_json_crc(job_dir / "spec.json"))
    checkpoint = job_dir / "checkpoint"
    checkpoint.mkdir(parents=True, exist_ok=True)
    shard_dir = None
    if spec.shards is not None:
        shard_dir = job_dir / "shards"
        shard_dir.mkdir(parents=True, exist_ok=True)
    try:
        # option lowering and job construction are classified too: a spec
        # carrying a bad knob (e.g. an unparsable --chunk-size) must exit
        # with the usage code and an error.json, not a bare traceback.
        # The daemon's placement (placement.json) names the agents this
        # dispatch should fan out onto.  It is re-written every attempt
        # from the live healthy pool, so a requeued job lands on the
        # survivors; its absence means a local run.
        placement_path = job_dir / "placement.json"
        placement = (
            read_json_crc(placement_path) if placement_path.exists() else {}
        )
        options = spec.to_options(
            checkpoint_dir=str(checkpoint),
            resume=True,
            shard_dir=str(shard_dir) if shard_dir else None,
            peers=tuple(placement.get("peers", ())) or None,
            net_timeout=placement.get("net_timeout"),
        )
        # The daemon's dispatch-time bandwidth assignment (qos.json)
        # overrides the spec's raw io_budget ask: under contention the
        # allocator hands this job its *share* of the node bandwidth.
        qos_path = job_dir / "qos.json"
        if qos_path.exists():
            qos = read_json_crc(qos_path)
            options = options.with_(
                io_budget=int(qos["io_budget"]),
                tenant=str(qos.get("tenant", spec.tenant)),
                io_priority=int(qos.get("io_priority", spec.io_priority)),
            )
        if crash_after_round is not None:
            _arm_crash_watchdog(checkpoint, crash_after_round)

        result = run_job(spec.build_job(), options)
    except Exception as exc:  # noqa: BLE001 - classified and reported below
        try:
            code = classify_exception(exc)
        except Exception:
            # classify_exception re-raises anything that is not a
            # ReproError; report it, then let the traceback escape.
            _write_error(job_dir, exc, EXIT_FAILURE)
            raise
        _write_error(job_dir, exc, code)
        return code

    from repro.analysis.report import to_json

    publish(job_dir / "result.json", to_json(result))
    return classify_result(result.counters)


def _write_error(job_dir: Path, exc: BaseException, code: int) -> None:
    payload = {
        "type": type(exc).__name__,
        "message": str(exc),
        "site": getattr(exc, "site", ""),
        "exit_code": code,
    }
    try:
        publish(job_dir / "error.json", json.dumps(payload, sort_keys=True))
    except OSError:  # pragma: no cover - best-effort error report
        pass


def main(argv: "list[str] | None" = None) -> int:
    """Run one job directory to completion; exit code per repro.exitcodes."""
    parser = argparse.ArgumentParser(prog="repro.service.runner")
    parser.add_argument("job_dir")
    parser.add_argument("--crash-after-round", type=int, default=None)
    args = parser.parse_args(argv)
    return run_job_dir(Path(args.job_dir), args.crash_after_round)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
