#!/usr/bin/env python
"""CI smoke: kill -9 the job daemon mid-job; restart; diff every digest.

Exercises the whole service crash-safety story end to end through the
real CLI and wire protocol:

1. record one-shot digests for three jobs — a plain chunked wordcount,
   a ``--shards 2`` run, and a fault-injected run;
2. start the daemon, submit all three, and ``kill -9`` the daemon as
   soon as the big job has journaled at least one ingest round;
3. restart the daemon over the same state dir (recovery reaps the
   orphaned runner and re-queues interrupted jobs), wait for all three
   jobs, and require every digest to match its one-shot run — with the
   interrupted job *resuming* from its journal rather than restarting;
4. ``kill -9`` the daemon's runner zygote between two submissions: the
   next job must run on a new zygote and match its one-shot digest, and
   after ``shutdown`` no process naming the state dir may remain;
5. on a fresh daemon, ``submit`` and at once ``cancel``: the zygote is
   still importing, the spawn request waits in its control socket, so
   the cancel finds the job dispatched with its runner not yet forked —
   the job must end ``cancelled`` with no result, no runner, nothing
   left behind.

Exits non-zero (failing the CI job) on any divergence.  If the big job
finishes before the kill lands (fast runner), the input is doubled and
the round trip retried a few times before giving up as inconclusive.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = str(REPO / "src")
ENV = dict(os.environ)
ENV["PYTHONPATH"] = SRC + (
    os.pathsep + ENV["PYTHONPATH"] if ENV.get("PYTHONPATH") else ""
)
sys.path.insert(0, SRC)

from repro.service.client import ServiceClient  # noqa: E402
from repro.service.jobspec import ServiceJobSpec  # noqa: E402
from repro.service.state import (  # noqa: E402
    STATE_CANCELLED,
    STATE_DONE,
    STATE_QUEUED,
    ServiceState,
)


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True, text=True, env=ENV, timeout=600,
    )


def one_shot_digest(*args: str) -> str:
    proc = run_cli(*args, "--json")
    if proc.returncode != 0:
        sys.exit(
            f"one-shot run failed (rc={proc.returncode}):\n"
            f"{proc.stdout}\n{proc.stderr}"
        )
    return json.loads(proc.stdout)["digest"]


def start_daemon(state_dir: Path) -> subprocess.Popen:
    state_dir.mkdir(parents=True, exist_ok=True)
    log = open(state_dir / "daemon.log", "ab")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--state-dir", str(state_dir), "--max-jobs", "2"],
        env=ENV, stdout=log, stderr=subprocess.STDOUT,
    )
    log.close()
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if (state_dir / "endpoint.json").exists():
            return proc
        if proc.poll() is not None:
            sys.exit("daemon exited before advertising its endpoint; see "
                     + str(state_dir / "daemon.log"))
        time.sleep(0.02)
    proc.kill()
    sys.exit("daemon did not come up within 30s")


def processes_naming(state_dir: Path) -> dict[int, tuple[int, str]]:
    """``pid -> (ppid, cmdline)`` of live processes naming ``state_dir``
    (the daemon, its zygote, and every runner forked from it)."""
    found = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes().replace(
                b"\0", b" ").decode(errors="replace")
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if str(state_dir) in cmdline and fields[0] != "Z":
            found[int(entry.name)] = (int(fields[1]), cmdline.strip())
    return found


def zygote_of(daemon: subprocess.Popen, state_dir: Path) -> "int | None":
    for pid, (ppid, cmdline) in processes_naming(state_dir).items():
        if ppid == daemon.pid and "repro.service.runner" in cmdline:
            return pid
    return None


def kill_zygote_then_submit(
    daemon: subprocess.Popen, client: ServiceClient, state_dir: Path,
    small: Path,
) -> list[str]:
    """Leg 4: a job submitted after the zygote died runs on a new one."""
    want = one_shot_digest("wordcount", str(small), "--chunk-size", "32KB")
    old = zygote_of(daemon, state_dir)
    if old is None:
        return ["the daemon has no zygote to kill"]
    os.kill(old, signal.SIGKILL)
    rec, _ = client.submit_and_wait(ServiceJobSpec(
        app="wordcount", inputs=(str(small),), chunk_size="32KB",
        tag="after-zygote-kill",
    ), timeout_s=300)
    if rec.state != STATE_DONE or rec.digest != want:
        return [f"job after the zygote kill: {rec.state}, digest "
                f"{rec.digest} != one-shot {want} ({rec.error})"]
    new = zygote_of(daemon, state_dir)
    if new is None or new == old:
        return [f"no new zygote after the kill (old {old}, now {new})"]
    print(f"  zygote {old} killed; job ran on zygote {new}: digest match")
    return []


def cancel_while_the_runner_forks(tmp: Path) -> list[str]:
    """Leg 5: a cancel that lands between dispatch and the fork."""
    small = tmp / "small.txt"
    run_cli("gen", "text", str(small), "--size", "256KB")
    state_dir = tmp / "svc-cancel"
    daemon = start_daemon(state_dir)  # its zygote has only begun importing
    client = ServiceClient.from_state_dir(state_dir)
    job_id = client.submit(ServiceJobSpec(
        app="wordcount", inputs=(str(small),), chunk_size="32KB",
        tag="cancel-in-window",
    ))["job_id"]
    reply = client.cancel(job_id)
    failures = []
    if not reply.get("cancelling") or reply["job"]["state"] != STATE_QUEUED:
        failures.append(
            "the cancel missed the dispatch window (answered "
            f"cancelling={reply.get('cancelling')}, job "
            f"{reply['job']['state']})"
        )
    rec = client.wait(job_id, timeout_s=60)
    if rec.state != STATE_CANCELLED:
        failures.append(
            f"job cancelled while its runner forked ended {rec.state} "
            f"(attempts {rec.attempts}, digest {rec.digest})"
        )
    job_dir = ServiceState(state_dir).job_dir(job_id)
    for name in ("result.json", "runner.pid"):
        if (job_dir / name).exists():
            failures.append(f"cancelled job left a {name}")
    for pid, (ppid, cmdline) in processes_naming(state_dir).items():
        if "repro.service.runner" in cmdline and ppid != daemon.pid:
            failures.append(f"runner {pid} outlived its cancelled job")
    client.shutdown()
    daemon.wait(timeout=30)
    for pid, (_, cmdline) in processes_naming(state_dir).items():
        failures.append(f"left behind after shutdown: pid {pid}: {cmdline}")
    if not failures:
        print("  cancel in the dispatch window: cancelled, nothing ran on")
    return failures


def await_first_round(journal: Path, timeout_s: float) -> bool:
    """True once the journal holds >= 1 completed round (still mapping)."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if journal.exists():
            try:
                state = json.loads(journal.read_text())["payload"]
            except (ValueError, KeyError):
                time.sleep(0.002)
                continue
            if state["completed_rounds"] and state["stage"] == "mapping":
                return True
            if state["stage"] != "mapping":
                return False  # job already past the kill window
        time.sleep(0.002)
    return False


def one_round_trip(tmp: Path, attempt: int, big_size: str) -> "bool | None":
    """One kill/restart cycle; True = pass, None = inconclusive."""
    small = tmp / "small.txt"
    if not small.exists():
        run_cli("gen", "text", str(small), "--size", "256KB")
    big = tmp / f"big-{attempt}.txt"
    run_cli("gen", "text", str(big), "--size", big_size, "--seed",
            str(40 + attempt))

    plain_spec = ServiceJobSpec(
        app="wordcount", inputs=(str(big),), chunk_size="64KB",
    )
    shard_spec = ServiceJobSpec(
        app="wordcount", inputs=(str(small),), chunk_size="32KB", shards=2,
    )
    fault_spec = ServiceJobSpec(
        app="wordcount", inputs=(str(small),), chunk_size="32KB",
        faults="ingest.read=once",
    )
    expected = {
        plain_spec.job_id(): one_shot_digest(
            "wordcount", str(big), "--chunk-size", "64KB"),
        shard_spec.job_id(): one_shot_digest(
            "wordcount", str(small), "--chunk-size", "32KB", "--shards", "2"),
        fault_spec.job_id(): one_shot_digest(
            "wordcount", str(small), "--chunk-size", "32KB",
            "--faults", "ingest.read=once"),
    }

    state_dir = tmp / f"svc-{attempt}"
    daemon = start_daemon(state_dir)
    client = ServiceClient.from_state_dir(state_dir)
    specs = {spec.job_id(): spec
             for spec in (plain_spec, shard_spec, fault_spec)}
    for spec in (plain_spec, shard_spec, fault_spec):
        client.submit(spec)

    state = ServiceState(state_dir)
    journal = state.checkpoint_dir(plain_spec.job_id()) / "journal.json"
    caught = await_first_round(journal, timeout_s=60.0)
    daemon.kill()  # SIGKILL: no drain, no requeue, records say "running"
    daemon.wait()
    record = state.load_record(plain_spec.job_id())
    if not caught or record is None or record.finished:
        print(f"  attempt {attempt}: big job finished before the kill "
              "landed; growing the input")
        return None

    # kill -9 leaves the old endpoint.json behind; drop it so start_daemon
    # waits for the *new* daemon's advertisement, not the stale one.
    (state_dir / "endpoint.json").unlink(missing_ok=True)
    daemon = start_daemon(state_dir)  # recovery requeues + reaps orphans
    client = ServiceClient.from_state_dir(state_dir)
    for spec in specs.values():
        reply = client.submit(spec)  # idempotent: reattaches
        if not reply.get("reattached"):
            sys.exit(f"resubmission of {reply['job_id']} did not reattach")
    failures = []
    for job_id, spec in specs.items():
        rec = client.wait(job_id, timeout_s=300)
        label = ("plain" if spec is plain_spec
                 else "sharded" if spec is shard_spec else "faulted")
        if rec.state != STATE_DONE:
            failures.append(f"{label} job {job_id}: {rec.state} ({rec.error})")
        elif rec.digest != expected[job_id]:
            failures.append(
                f"{label} job {job_id}: digest {rec.digest} != one-shot "
                f"{expected[job_id]}"
            )
        else:
            mark = " (resumed)" if rec.resumed else ""
            print(f"  {label}: digest match{mark}")
        if spec is plain_spec and rec.state == STATE_DONE and not rec.resumed:
            failures.append(
                f"plain job {job_id} re-ran from scratch instead of "
                "resuming its journal"
            )
    failures += kill_zygote_then_submit(daemon, client, state_dir, small)
    client.shutdown()
    daemon.wait(timeout=30)
    for pid, (_, cmdline) in processes_naming(state_dir).items():
        failures.append(f"left behind after shutdown: pid {pid}: {cmdline}")
    if failures:
        sys.exit("service smoke FAILED:\n  " + "\n  ".join(failures))
    return True


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="service-smoke-"))
    failures = cancel_while_the_runner_forks(tmp)
    if failures:
        sys.exit("service smoke FAILED:\n  " + "\n  ".join(failures))
    sizes = ("3MB", "6MB", "12MB")
    for attempt, size in enumerate(sizes):
        print(f"service smoke: attempt {attempt} (big input {size})")
        if one_round_trip(tmp, attempt, size):
            print("service smoke PASSED: daemon killed -9 mid-job; "
                  "restart resumed from the journal; zygote killed -9 "
                  "and replaced; all digests match; a cancel in the "
                  "dispatch window held")
            return 0
    sys.exit("service smoke inconclusive: the big job kept finishing "
             "before the kill landed")


if __name__ == "__main__":
    sys.exit(main())
