#!/usr/bin/env python
"""Soak driver: real processes, real signals, one leave-nothing-behind check.

Usage::

    python tools/soak.py [LEG ...] [--quick]

Runs the named legs, or every leg when none is named, one after another
through the real CLI, job daemon and agents.  Each leg requires its jobs
to end with their one-shot output digest.  After every leg one leak
check, with a 15 s settle, requires:

* no new process whose command line names ``repro.cli`` or
  ``repro.service.runner``;
* no new ``/dev/shm`` entry;
* no new ``repro-spill-*``, ``repro-shard-*`` or ``repro-agent-*`` dir
  in the temp dir, and nothing left of the leg's own temp dir.

A leg that starts a daemon also requires ``io_assigned_bps == 0``
before it shuts the daemon down.  The legs:

* ``faults`` — ``tests/faults`` and ``tests/test_failure_injection.py``
  under the ``FAULT_SEED`` of the environment (0 when unset), then
  poison tasks on the serial, thread and process backends: the same
  digest and fault tally, on one file and on multi-source chunks;
* ``xfer`` — crash-faulted and sharded+shard-loss word counts and a
  crash-faulted terasort under the pipe and shm transports: one digest;
* ``crash-resume`` — SIGKILL a checkpointed word count once a round is
  journaled, and a budgeted sort once three spill runs are sealed;
  ``--resume`` must reproduce the uninterrupted digest;
* ``shard`` — SIGKILL one worker of a ``--shards 3`` run mid-job; 20
  runs of commanded shard deaths; 20 runs of the SIGKILL-mid-frame
  tests; the coordinator and lease cores under
  ``--hypothesis-profile soak``;
* ``qos`` — a heavy and an interactive tenant on a bandwidth-capped
  daemon: bounded interactive latency, digests unchanged;
* ``service`` — a cancel in the dispatch window; kill -9 the daemon
  mid-job and restart it (the job resumes its journal); kill -9 the
  runner zygote between two jobs;
* ``net`` — ``--shards 3`` across two agents: plain, with dropped
  connections, and with one agent SIGKILLed mid-map;
* ``cluster`` — the self-healing agent pool under agent kill,
  partition, daemon kill and restart, re-registration and flapping;
  ``--quick`` shrinks it (smaller corpus, no quarantine-recovery wait).

Exits 1 when any check failed.  A leg that cannot go on (a run that
fails, a daemon that does not come up) is one failure, and the leak
check still runs after it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Iterator, NamedTuple

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

#: How long the leak check waits for the slowest clean path: workers
#: watch their parent, agents reap their workers on grace expiry.
SETTLE_S = 15.0
#: Temp-dir entries no run may leave behind; ``soak-`` is a leg's own.
TEMP_PREFIXES = ("repro-spill-", "repro-shard-", "repro-agent-", "soak-")
#: The ``digest`` line of a text report, or the top-level key of a
#: ``--json`` one (nested keys are indented deeper).
_DIGEST = re.compile(r'^  "?digest"?: "?([0-9a-f]{64})', re.MULTILINE)

FAILURES: list[str] = []
#: Every background process a leg started; the harness kills what is
#: still alive once the leg's leak check has counted it.
SPAWNED: list[subprocess.Popen] = []


class Abort(Exception):
    """A failed check after which its leg cannot go on."""


def fail(msg: str) -> None:
    print(f"  FAIL: {msg}")
    FAILURES.append(msg)


# -- processes -------------------------------------------------------------


def cli(*args: str, timeout: float = 600) -> subprocess.CompletedProcess:
    """``python -m repro.cli ARGS`` to completion, output captured."""
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True, text=True, env=ENV, timeout=timeout,
    )


def spawn(*args: str, **popen) -> subprocess.Popen:
    """``python -m repro.cli ARGS`` in the background."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *args], env=ENV, **popen
    )
    SPAWNED.append(proc)
    return proc


def pytest(label: str, *args: str, timeout: float | None = None) -> None:
    """A pytest selection from the repo root; failing it ends the leg."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", *args],
        cwd=REPO, env=ENV, timeout=timeout,
    )
    if proc.returncode != 0:
        raise Abort(f"{label} failed (pytest exited {proc.returncode})")


def digest_of(proc: subprocess.CompletedProcess, label: str) -> str:
    """The output digest of a finished run, text or ``--json``."""
    match = _DIGEST.search(proc.stdout)
    if proc.returncode != 0 or match is None:
        raise Abort(f"{label} failed (rc={proc.returncode}):\n"
                    f"{proc.stdout}\n{proc.stderr}")
    return match.group(1)


def one_shot(*args: str) -> str:
    """The digest of a one-shot ``--json`` run."""
    return digest_of(cli(*args, "--json"), "one-shot " + " ".join(args))


def gen(kind: str, path: Path, *args: str) -> Path:
    """``supmr gen KIND PATH ARGS``; returns ``path``."""
    proc = cli("gen", kind, str(path), *args)
    if proc.returncode != 0:
        raise Abort(f"{kind} generation failed:\n{proc.stderr}")
    return path


def processes() -> list[tuple[int, int, str]]:
    """``(pid, ppid, cmdline)`` of every other live process."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes().replace(
                b"\0", b" ").decode(errors="replace").strip()
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if cmdline:  # a zombie has none
            ppid = int(stat[stat.rindex(")") + 2:].split()[1])
            found.append((int(entry.name), ppid, cmdline))
    return found


def processes_naming(needle: Path) -> list[tuple[int, int, str]]:
    return [p for p in processes() if str(needle) in p[2]]


# -- the leak check --------------------------------------------------------


class Leftovers(NamedTuple):
    procs: set[tuple[int, str]]
    shm: set[str]
    temp: set[str]


def leftovers() -> Leftovers:
    """What a run could leave behind, as it stands now."""
    try:
        shm = set(os.listdir("/dev/shm"))
    except OSError:
        shm = set()
    return Leftovers(
        {(pid, cmd) for pid, _, cmd in processes()
         if "repro.cli" in cmd or "repro.service.runner" in cmd},
        shm,
        {p.name for p in Path(tempfile.gettempdir()).iterdir()
         if p.name.startswith(TEMP_PREFIXES)},
    )


def check_clean(label: str, before: Leftovers) -> None:
    """Fail on whatever is new since ``before`` once the settle is over."""
    deadline = time.monotonic() + SETTLE_S
    while True:
        new = [now - was for now, was in zip(leftovers(), before)]
        if not any(new) or time.monotonic() > deadline:
            break
        time.sleep(0.25)
    procs, shm, temp = new
    for pid, cmd in sorted(procs):
        fail(f"{label}: orphan process (pid {pid}: {cmd})")
    if shm:
        fail(f"{label}: leaked /dev/shm entries {sorted(shm)}")
    if temp:
        fail(f"{label}: temp dirs left behind {sorted(temp)}")


# -- daemons and agents ----------------------------------------------------


def start_daemon(state_dir: Path, *flags: str) -> subprocess.Popen:
    """``supmr serve --state-dir D --max-jobs 2 FLAGS``, once it is up.

    A stale ``endpoint.json`` (a SIGKILLed daemon never drains) is
    dropped first, so the wait is for this daemon's advertisement.
    """
    state_dir.mkdir(parents=True, exist_ok=True)
    (state_dir / "endpoint.json").unlink(missing_ok=True)
    with open(state_dir / "daemon.log", "ab") as log:
        proc = spawn("serve", "--state-dir", str(state_dir),
                     "--max-jobs", "2", *flags,
                     stdout=log, stderr=subprocess.STDOUT)
    deadline = time.monotonic() + 30.0
    while not (state_dir / "endpoint.json").exists():
        if proc.poll() is not None:
            raise Abort("daemon exited before advertising its endpoint:\n"
                        + (state_dir / "daemon.log").read_text())
        if time.monotonic() > deadline:
            proc.kill()
            proc.wait()
            raise Abort("daemon did not come up within 30s")
        time.sleep(0.02)
    return proc


def shutdown(client: ServiceClient, daemon: subprocess.Popen) -> None:
    """Require zero assigned bandwidth, then drain the daemon."""
    assigned = client.ping().get("io_assigned_bps", 0)
    if assigned:
        fail(f"daemon still assigns {assigned} B/s with no job "
             "running — leaked bandwidth shares")
    client.shutdown()
    daemon.wait(timeout=30)


class Agent:
    """One real ``supmr agent`` on an ephemeral port."""

    def __init__(self, tmp: Path, name: str, grace: str) -> None:
        addr_file = tmp / f"{name}.addr"
        self.proc = spawn(
            "agent", "--listen", "127.0.0.1:0", "--workdir", str(tmp / name),
            "--addr-file", str(addr_file), "--grace", grace,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 15.0
        while not addr_file.exists():
            if time.monotonic() > deadline:
                raise Abort(f"agent {name} never published its address")
            time.sleep(0.05)
        self.addr = addr_file.read_text().strip()

    def sigkill(self) -> None:
        self.proc.kill()
        self.proc.wait(timeout=10)

    def pause(self) -> None:
        self.proc.send_signal(signal.SIGSTOP)

    def resume(self) -> None:
        self.proc.send_signal(signal.SIGCONT)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.resume()
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=5)


@contextlib.contextmanager
def agents(tmp: Path, *names: str, grace: str) -> Iterator[list[Agent]]:
    """Agents that are stopped on the way out, with any added later."""
    pool: list[Agent] = []
    try:
        for name in names:
            pool.append(Agent(tmp, name, grace))
        yield pool
    finally:
        for agent in pool:
            agent.stop()


# -- legs ------------------------------------------------------------------


def leg_faults(tmp: Path, quick: bool) -> None:
    """The fault subsystem under this ``FAULT_SEED``, then poison tasks.

    The worker-site schedule is stepped in place on serial and thread
    and by the supervisor on process: all three must skip the same
    poison tasks and write the same fault tally.  Crash only: the CLI's
    30 s default lease would dominate a hang.
    """
    pytest("fault-injection tests", "tests/faults",
           "tests/test_failure_injection.py")
    seed = os.environ.get("FAULT_SEED", "0")

    def tally(backend: str, *job: str) -> str:
        proc = cli("wordcount", *job, "--faults", "worker.crash=0.6",
                   "--retry", "1", "--json", "--fault-seed", seed,
                   "--backend", backend)
        digest = digest_of(proc, f"{backend} poison run")
        counters = json.loads(proc.stdout)["counters"]
        return " ".join([digest, *(str(counters.get(k, 0)) for k in (
            "faults_injected", "fault_retries", "records_quarantined",
            "tasks_skipped"))])

    corpus = gen("text", tmp / "corpus.txt", "--size", "200KB")
    # Multi-source chunks: eight small files per round.
    files = gen("files", tmp / "mf", "--files", "64", "--size", "4KB")
    for job in ((str(corpus), "--chunk-size", "50KB"),
                (*sorted(map(str, files.iterdir())), "--files-per-chunk", "8")):
        tallies = {b: tally(b, *job) for b in ("serial", "thread", "process")}
        for backend, line in tallies.items():
            print(f"  {backend + ':':8} {line}")
        if len(set(tallies.values())) != 1:
            fail(f"poison tasks, seed {seed}: serial, thread and process "
                 "disagree")


def leg_xfer(tmp: Path, quick: bool) -> None:
    """The pipe transport is the reference; shm must match it."""
    before = leftovers()
    corpus = gen("text", tmp / "corpus.txt", "--size", "256KB", "--seed", "5")
    records = gen("terasort", tmp / "records.dat", "--records", "3000",
                  "--seed", "5")
    knobs = ("--chunk-size", "16KB", "--backend", "process",
             "--mappers", "4", "--reducers", "3")
    count = ("wordcount", str(corpus), *knobs)
    sort = ("sort", str(records), *knobs)
    # hangs are left to the test suite: the 30 s default lease would
    # dominate a smoke
    crash = ("--faults", "worker.crash=once", "--fault-seed", "7")
    loss = ("--shards", "2", "--faults", "shard.worker_loss=once",
            "--fault-seed", "3")

    def run(label: str, *args: str) -> str:
        digest = digest_of(cli(*args), label)
        check_clean(label, before)  # the crash paths included
        print(f"  {label:28s} digest {digest[:12]}")
        return digest

    reference = run("faulted pipe", *count, *crash, "--transport", "pipe")
    if run("faulted shm", *count, *crash, "--transport", "shm") != reference:
        fail("faulted shm: digest diverged from pipe baseline")
    shard_pipe = run("sharded+lost pipe", *count, *loss, "--transport", "pipe")
    if run("sharded+lost shm", *count, *loss, "--transport", "shm") != shard_pipe:
        fail("sharded job: shm digest diverged from pipe")
    if shard_pipe != reference:
        fail("sharded job digest diverged from the unsharded reference")
    if (run("faulted sort pipe", *sort, *crash, "--transport", "pipe")
            != run("faulted sort shm", *sort, *crash, "--transport", "shm")):
        fail("sort job: shm digest diverged from pipe")


def kill_mid_run(job: list[str], ckpt: Path, ready) -> bool:
    """Start a checkpointed run; SIGKILL once ``ready(journal state)``."""
    proc = spawn(*job, "--checkpoint-dir", str(ckpt),
                 stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    journal = ckpt / "journal.json"
    deadline = time.monotonic() + 300
    while time.monotonic() < deadline and proc.poll() is None:
        try:
            state = json.loads(journal.read_text())["payload"]
        except (ValueError, KeyError, OSError):
            state = None
        if state and state["stage"] == "mapping" and ready(state):
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=60)
            print(f"  killed mid-run with rounds "
                  f"{state['completed_rounds']} and "
                  f"{len(state['spill_runs'])} spill run(s) journaled")
            return True
        time.sleep(0.002)
    proc.wait(timeout=60)
    return False


def round_trip(name: str, tmp: Path, generate, job, ready) -> None:
    """Reference run, kill, resume, compare.  ``generate(n)`` writes
    attempt ``n``'s input (larger each time) and returns its path;
    ``job(path)`` is the CLI argv that runs it."""
    for attempt in range(3):
        path = generate(attempt)
        print(f"{name}, attempt {attempt + 1}: {path.stat().st_size} bytes")
        before = leftovers()
        reference = digest_of(cli(*job(path)), f"{name} reference run")
        print(f"  reference digest {reference}")
        ckpt = tmp / f"{name}-ckpt-{attempt}"
        if not kill_mid_run(job(path), ckpt, ready):
            print("  job finished before the kill; growing the input")
            continue
        resumed = cli(*job(path), "--checkpoint-dir", str(ckpt), "--resume")
        digest = digest_of(resumed, f"{name} resumed run")
        if "resume: restored" not in resumed.stdout:
            raise Abort(f"resumed run did not report a resume:\n{resumed.stdout}")
        if digest != reference:
            raise Abort(f"DIGEST MISMATCH after resume: {digest} != {reference}")
        check_clean(name, before)
        print(f"  resumed digest   {digest} (identical)")
        return
    raise Abort(f"{name}: could not kill the job mid-run after 3 attempts")


def leg_crash_resume(tmp: Path, quick: bool) -> None:
    """Kill a checkpointed word count and a budgeted sort, resume both."""
    round_trip(
        "wordcount", tmp,
        lambda n: gen("text", tmp / "corpus.txt", "--size", f"{2 * 2 ** n}MB",
                      "--seed", "5"),
        lambda path: ["wordcount", str(path), "--chunk-size", "64KB"],
        lambda state: bool(state["completed_rounds"]),
    )
    # A budget a sixth of the 6 MB input: 13 runs uninterrupted, so the
    # kill at 3 leaves most of them to the resumed process, which must
    # adopt them (each re-verified against its header CRC).
    round_trip(
        "budgeted-sort", tmp,
        lambda n: gen("terasort", tmp / "records.dat",
                      "--records", str(60_000 * 2 ** n), "--seed", "5"),
        lambda path: ["sort", str(path), "--chunk-size", "128KB",
                      "--memory-budget", "1MB"],
        lambda state: len(state["spill_runs"]) >= 3,
    )


def kill_one_shard_worker(tmp: Path, size: str, attempt: int) -> bool:
    """``--shards 1`` reference, then SIGKILL shard 1's worker of a
    ``--shards 3`` run; False if the run finished before the kill."""
    corpus = gen("text", tmp / "corpus.txt", "--size", size, "--seed", "5")
    job = ("wordcount", str(corpus), "--chunk-size", "64KB", "--top", "0")
    reference = digest_of(cli(*job, "--shards", "1"), "--shards 1 run")
    print(f"  reference digest {reference} (--shards 1)")
    shard_dir = tmp / f"shards-{attempt}"
    proc = spawn(*job, "--shards", "3", "--shard-dir", str(shard_dir),
                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    pid_file = shard_dir / "worker-1.pid"
    killed = False
    deadline = time.monotonic() + 300
    while time.monotonic() < deadline and proc.poll() is None and not killed:
        try:
            pid = int(pid_file.read_text().strip())
        except (ValueError, OSError):
            time.sleep(0.002)
            continue
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            break  # finished between publish and kill: grow and retry
        killed = True
        print(f"  SIGKILLed shard 1 worker (pid {pid})")
    out, err = proc.communicate(timeout=600)
    digest = digest_of(subprocess.CompletedProcess(
        proc.args, proc.returncode, out, err), "sharded run after the kill")
    if killed and digest != reference:
        raise Abort(f"DIGEST MISMATCH after shard kill: {digest} != {reference}")
    if killed:
        print(f"  sharded digest   {digest} (identical)")
    return killed


def leg_shard(tmp: Path, quick: bool) -> None:
    """Organic shard deaths, commanded ones, mid-frame kills, the cores."""
    for attempt, size in enumerate(("2MB", "4MB", "8MB")):
        print(f"shard kill, attempt {attempt + 1}: corpus={size} chunk=64KB")
        if kill_one_shard_worker(tmp, size, attempt):
            break
        print("  job finished before the kill; growing the input")
    else:
        raise Abort("could not kill a shard worker mid-run after 3 attempts")

    # Seeded worker deaths and exchange corruption under four shards:
    # a death can break only the dying worker's own pipe.
    corpus = gen("text", tmp / "deaths.txt", "--size", "200KB")
    job = ("wordcount", str(corpus), "--chunk-size", "50KB",
           "--reducers", "4", "--json")
    want = digest_of(cli(*job), "one-shot run")
    for run in range(1, 21):
        got = digest_of(cli(
            *job, "--shards", "4", "--faults",
            "shard.worker_loss=0.5,shard.exchange_corrupt=0.1",
            "--fault-seed", "5", timeout=120), f"faulted run {run}")
        if got != want:
            raise Abort(f"run {run}: {got} != {want}")
    print(f"20 faulted runs, every one on the one-shot digest {want}")

    # A pool worker and a shard worker each killed halfway through a
    # frame larger than their pipe's buffer: the other worker's reply
    # must still arrive (both tests hang on a shared results queue).
    for run in range(1, 21):
        pytest(f"SIGKILL mid-frame, run {run}",
               "tests/shard/test_worker_death.py",
               "tests/resilience/test_supervisor.py::TestCrashAfterDelivery",
               timeout=120)
    print("20 runs, every survivor heard")

    # 2 000 derandomised schedules of heartbeats, results, deaths and
    # sweeps, for 1-5 shards x 1-8 partitions: what the one real kill
    # above cannot enumerate.
    start = time.monotonic()
    pytest("coordinator core", "tests/shard/test_core.py",
           "--hypothesis-profile", "soak")
    took = time.monotonic() - start
    print(f"2000 schedules in {took:.1f} s: {2000 / took:.0f} schedules/s")
    pytest("lease core", "tests/resilience/test_core.py",
           "--hypothesis-profile", "soak")


def leg_qos(tmp: Path, quick: bool) -> None:
    """Two tenants on a capped node: the interactive job keeps its share."""
    # The heavy job is rate-bound for seconds; the interactive one at
    # half the node moves its bytes in ~0.25 s, so the bound is slack
    # for process start-up and CI.
    node_bw, bound_s = "1MB", 30.0
    heavy = gen("text", tmp / "heavy.txt", "--size", "4MB", "--seed", "41")
    small = gen("text", tmp / "interactive.txt", "--size", "128KB",
                "--seed", "42")
    expected = {
        "heavy": one_shot("wordcount", str(heavy), "--chunk-size", "64KB"),
        "interactive": one_shot("wordcount", str(small), "--chunk-size", "64KB"),
    }
    specs = {
        "heavy": ServiceJobSpec(
            app="wordcount", inputs=(str(heavy),), chunk_size="64KB",
            tenant="heavy", io_budget=node_bw),
        "interactive": ServiceJobSpec(
            app="wordcount", inputs=(str(small),), chunk_size="64KB",
            tenant="interactive", io_budget="512KB"),
    }
    daemon = start_daemon(tmp / "svc", "--node-bandwidth", node_bw,
                          "--qos-policy", "max-min")
    client = ServiceClient.from_state_dir(tmp / "svc")
    client.submit(specs["heavy"])
    submitted = time.monotonic()
    client.submit(specs["interactive"])
    records = {"interactive": client.wait(
        specs["interactive"].job_id(), timeout_s=300)}
    elapsed = time.monotonic() - submitted
    records["heavy"] = client.wait(specs["heavy"].job_id(), timeout_s=600)
    if elapsed > bound_s:
        fail(f"interactive job took {elapsed:.1f}s — it waited behind "
             f"the heavy tenant (bound {bound_s:.0f}s)")
    print(f"  interactive finished in {elapsed:.1f}s (bound {bound_s:.0f}s)")
    for label, rec in records.items():
        if rec.state != STATE_DONE:
            fail(f"{label} job: {rec.state} ({rec.error})")
            continue
        if rec.digest != expected[label]:
            fail(f"{label} job: throttled digest {rec.digest} != "
                 f"unthrottled one-shot {expected[label]}")
        counters = (client.result(rec.job_id).get("report") or {}).get(
            "counters") or {}
        if not counters.get("throttle_bytes"):
            fail(f"{label} job: no throttle_bytes counter — the token "
                 "bucket never metered its I/O")
        else:
            print(f"  {label}: metered {counters['throttle_bytes']} bytes "
                  f"at {counters.get('io_budget_bps')} B/s, waited "
                  f"{counters.get('throttle_wait_s', 0.0):.2f}s")
    shed = (client.status().get("counters") or {}).get("shed", 0)
    if shed:
        fail(f"daemon shed {shed} job(s); none should shed here")
    shutdown(client, daemon)


def zygote_of(daemon: subprocess.Popen, state_dir: Path) -> int | None:
    for pid, ppid, cmd in processes_naming(state_dir):
        if ppid == daemon.pid and "repro.service.runner" in cmd:
            return pid
    return None


def check_nothing_names(state_dir: Path) -> None:
    for pid, _, cmd in processes_naming(state_dir):
        fail(f"left behind after shutdown: pid {pid}: {cmd}")


def cancel_while_the_runner_forks(tmp: Path, small: Path) -> None:
    """On a fresh daemon the zygote is still importing, so a cancel
    right after the submit finds the job dispatched with its runner
    not yet forked: it must end cancelled, nothing left behind."""
    state_dir = tmp / "svc-cancel"
    daemon = start_daemon(state_dir)
    client = ServiceClient.from_state_dir(state_dir)
    job_id = client.submit(ServiceJobSpec(
        app="wordcount", inputs=(str(small),), chunk_size="32KB",
        tag="cancel-in-window"))["job_id"]
    reply = client.cancel(job_id)
    if not reply.get("cancelling") or reply["job"]["state"] != STATE_QUEUED:
        fail("the cancel missed the dispatch window (answered cancelling="
             f"{reply.get('cancelling')}, job {reply['job']['state']})")
    rec = client.wait(job_id, timeout_s=60)
    if rec.state != STATE_CANCELLED:
        fail(f"job cancelled while its runner forked ended {rec.state} "
             f"(attempts {rec.attempts}, digest {rec.digest})")
    job_dir = ServiceState(state_dir).job_dir(job_id)
    for name in ("result.json", "runner.pid"):
        if (job_dir / name).exists():
            fail(f"cancelled job left a {name}")
    for pid, ppid, cmd in processes_naming(state_dir):
        if "repro.service.runner" in cmd and ppid != daemon.pid:
            fail(f"runner {pid} outlived its cancelled job")
    shutdown(client, daemon)
    check_nothing_names(state_dir)
    print("  cancel in the dispatch window: cancelled, nothing ran on")


def await_first_round(journal: Path, timeout_s: float) -> bool:
    """True once the journal holds >= 1 completed round (still mapping)."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            state = json.loads(journal.read_text())["payload"]
        except (ValueError, KeyError, OSError):
            state = None
        if state and state["stage"] != "mapping":
            return False  # already past the kill window
        if state and state["completed_rounds"]:
            return True
        time.sleep(0.002)
    return False


def daemon_kill_restart(tmp: Path, attempt: int, size: str, small: Path) -> bool:
    """kill -9 the daemon once the big job journaled a round; restart
    over the same state dir; every job must end on its one-shot digest,
    the big one resumed.  Then kill -9 the zygote between two jobs.
    False when the big job finished before the kill landed."""
    big = gen("text", tmp / f"big-{attempt}.txt", "--size", size,
              "--seed", str(40 + attempt))
    specs = {
        "plain": ServiceJobSpec(app="wordcount", inputs=(str(big),),
                                chunk_size="64KB"),
        "sharded": ServiceJobSpec(app="wordcount", inputs=(str(small),),
                                  chunk_size="32KB", shards=2),
        "faulted": ServiceJobSpec(app="wordcount", inputs=(str(small),),
                                  chunk_size="32KB", faults="ingest.read=once"),
    }
    expected = {
        "plain": one_shot("wordcount", str(big), "--chunk-size", "64KB"),
        "sharded": one_shot("wordcount", str(small), "--chunk-size", "32KB",
                            "--shards", "2"),
        "faulted": one_shot("wordcount", str(small), "--chunk-size", "32KB",
                            "--faults", "ingest.read=once"),
    }
    state_dir = tmp / f"svc-{attempt}"
    daemon = start_daemon(state_dir)
    client = ServiceClient.from_state_dir(state_dir)
    for spec in specs.values():
        client.submit(spec)
    state = ServiceState(state_dir)
    plain_id = specs["plain"].job_id()
    caught = await_first_round(
        state.checkpoint_dir(plain_id) / "journal.json", timeout_s=60.0)
    daemon.kill()  # SIGKILL: no drain, no requeue, records say "running"
    daemon.wait()
    record = state.load_record(plain_id)
    if not caught or record is None or record.finished:
        return False

    daemon = start_daemon(state_dir)  # recovery requeues + reaps orphans
    client = ServiceClient.from_state_dir(state_dir)
    for spec in specs.values():
        reply = client.submit(spec)  # idempotent: reattaches
        if not reply.get("reattached"):
            raise Abort(f"resubmission of {reply['job_id']} did not reattach")
    for label, spec in specs.items():
        rec = client.wait(spec.job_id(), timeout_s=300)
        if rec.state != STATE_DONE:
            fail(f"{label} job {rec.job_id}: {rec.state} ({rec.error})")
        elif rec.digest != expected[label]:
            fail(f"{label} job {rec.job_id}: digest {rec.digest} != "
                 f"one-shot {expected[label]}")
        elif label == "plain" and not rec.resumed:
            fail(f"plain job {rec.job_id} re-ran from scratch instead of "
                 "resuming its journal")
        else:
            print(f"  {label}: digest match{' (resumed)' if rec.resumed else ''}")

    want = one_shot("wordcount", str(small), "--chunk-size", "32KB")
    old = zygote_of(daemon, state_dir)
    if old is None:
        fail("the daemon has no zygote to kill")
    else:
        os.kill(old, signal.SIGKILL)
        rec, _ = client.submit_and_wait(ServiceJobSpec(
            app="wordcount", inputs=(str(small),), chunk_size="32KB",
            tag="after-zygote-kill"), timeout_s=300)
        new = zygote_of(daemon, state_dir)
        if rec.state != STATE_DONE or rec.digest != want:
            fail(f"job after the zygote kill: {rec.state}, digest "
                 f"{rec.digest} != one-shot {want} ({rec.error})")
        elif new is None or new == old:
            fail(f"no new zygote after the kill (old {old}, now {new})")
        else:
            print(f"  zygote {old} killed; job ran on zygote {new}: digest match")
    shutdown(client, daemon)
    check_nothing_names(state_dir)
    return True


def leg_service(tmp: Path, quick: bool) -> None:
    """Cancel in the dispatch window; daemon and zygote kill -9."""
    small = gen("text", tmp / "small.txt", "--size", "256KB")
    cancel_while_the_runner_forks(tmp, small)
    for attempt, size in enumerate(("3MB", "6MB", "12MB")):
        print(f"daemon kill, attempt {attempt} (big input {size})")
        if daemon_kill_restart(tmp, attempt, size, small):
            return
        print("  big job finished before the kill landed; growing the input")
    fail("inconclusive: the big job kept finishing before the kill landed")


def leg_net(tmp: Path, quick: bool) -> None:
    """A sharded run across two agents must match the local one."""
    before = leftovers()
    corpus = gen("text", tmp / "corpus.txt", "--size", "6MB", "--seed", "5")
    base = ("wordcount", str(corpus), "--chunk-size", "256KB",
            "--shards", "3", "--mappers", "2", "--reducers", "3")
    reference = digest_of(cli(*base), "local sharded run")
    print(f"  {'local sharded':24s} digest {reference[:12]}")
    check_clean("local sharded", before)

    def networked(label: str, pool: list[Agent], *extra: str,
                  kill_after_s: float | None = None) -> dict:
        proc = spawn(*base, "--peers", ",".join(a.addr for a in pool),
                     "--net-timeout", "2", "--json", *extra,
                     stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if kill_after_s is not None:
            time.sleep(kill_after_s)
            pool[0].sigkill()
        try:
            out, err = proc.communicate(timeout=600)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise Abort(f"{label}: coordinator hung")
        digest = digest_of(subprocess.CompletedProcess(
            proc.args, proc.returncode, out, err), label)
        report = json.loads(out)
        if digest != reference:
            fail(f"{label}: digest diverged from local run")
        print(f"  {label:24s} digest {digest[:12]}  "
              f"host_losses={report['counters'].get('net_host_losses')}")
        return report

    with agents(tmp, "a1", "a2", grace="3.0") as pool:
        networked("multi-host", pool)
    check_clean("multi-host", before)
    # severed control frames and a dropped mid-exchange transfer
    with agents(tmp, "b1", "b2", grace="3.0") as pool:
        networked("conn-drop", pool, "--faults", "net.conn.drop=once",
                  "--fault-seed", "7")
    check_clean("conn-drop", before)
    # SIGKILL one agent ~1 s into the map: its shards move home in-run
    with agents(tmp, "c1", "c2", grace="3.0") as pool:
        report = networked("agent-sigkill", pool, kill_after_s=1.0)
        if not report["counters"].get("net_host_losses"):
            print("  note: agent died before any shard landed on it "
                  "(timing); digest parity still enforced")
    check_clean("agent-sigkill", before)


def agent_states(client: ServiceClient) -> dict[str, str]:
    return {row["addr"]: row["state"]
            for row in client.agents().get("agents", [])}


def await_state(client: ServiceClient, addr: str, wanted: tuple[str, ...],
                timeout_s: float, label: str) -> str | None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        state = agent_states(client).get(addr)
        if state in wanted:
            return state
        time.sleep(0.05)
    fail(f"{label}: agent {addr} never reached {wanted} "
         f"(last: {agent_states(client).get(addr)})")
    return None


def flap_to_quarantine(client: ServiceClient, agent: Agent,
                       timeout_s: float) -> bool:
    """SIGSTOP/SIGCONT cycles until the registry quarantines the agent.

    Returns with the agent still *paused*: once the tally trips, any
    answered probe starts the recovery clock (``recover_after``
    successes wipe the flap history), so the quarantine is only
    reliably observable while the agent stays silent.
    """
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        agent.pause()
        pause_until = time.monotonic() + 1.6
        while time.monotonic() < pause_until:
            if agent_states(client).get(agent.addr) == "quarantined":
                return True
            time.sleep(0.05)
        agent.resume()
        time.sleep(0.7)  # long enough to be probed alive again
    fail(f"flapping agent {agent.addr} never quarantined "
         f"(last: {agent_states(client).get(agent.addr)})")
    return False


def agents_cli(state_dir: Path) -> str:
    out = cli("agents", "--state-dir", str(state_dir), timeout=60)
    if out.returncode != 0:
        fail(f"`agents` CLI exited {out.returncode}: {out.stderr.strip()}")
    return out.stdout


def leg_cluster(tmp: Path, quick: bool) -> None:
    """Chaos on the agent pool: every job ends on its one-shot digest."""
    jobs, size = (2, "2MB") if quick else (3, "6MB")
    specs: dict[str, ServiceJobSpec] = {}
    expected: dict[str, str] = {}
    for i in range(jobs):
        corpus = gen("text", tmp / f"corpus-{i}.txt", "--size", size,
                     "--seed", str(20 + i))
        spec = ServiceJobSpec(app="wordcount", inputs=(str(corpus),),
                              chunk_size="128KB", shards=2, io_budget="100MB")
        specs[spec.job_id()] = spec
        expected[spec.job_id()] = one_shot(
            "wordcount", str(corpus), "--chunk-size", "128KB", "--shards", "2")
    print(f"ground truth: {jobs} one-shot digest(s) recorded")

    state_dir = tmp / "svc"
    with agents(tmp, "a0", "a1", "a2", grace="2.0") as pool:
        addrs = ",".join(a.addr for a in pool)
        # a node bandwidth, so every job also charges the per-host QoS
        # allocator
        flags = ("--max-attempts", "4", "--node-bandwidth", "400MB",
                 "--net-timeout", "2", "--agents", addrs,
                 "--health-interval", "0.3", "--probe-timeout", "1.0")
        daemon = start_daemon(state_dir, *flags)
        client = ServiceClient.from_state_dir(state_dir)
        for agent in pool:
            await_state(client, agent.addr, ("healthy",), 20.0, "warmup")
        listing = agents_cli(state_dir)
        if "agent pool: 3 agent(s), settled" not in listing:
            fail(f"`agents` CLI did not show a settled pool:\n{listing}")
        print("pool: 3 agents registered, probed healthy")

        for spec in specs.values():
            client.submit(spec)
        time.sleep(1.2)
        pool[0].sigkill()
        print(f"chaos: SIGKILLed agent {pool[0].addr} mid-job")
        time.sleep(1.0)
        pool[1].pause()
        print(f"chaos: partitioned agent {pool[1].addr} (SIGSTOP)")
        time.sleep(0.8)
        daemon.kill()  # no drain: records still say "running"
        daemon.wait(timeout=30)
        daemon = start_daemon(state_dir, *flags)
        client = ServiceClient.from_state_dir(state_dir)
        print("chaos: SIGKILLed the daemon, restarted over the same "
              "state dir")

        # replacement agent in, corpse out — over the wire
        pool.append(Agent(tmp, "spare", "2.0"))
        spare = pool[-1]
        if not client.register_agent(spare.addr).get("created"):
            fail("registering the replacement agent did not create it")
        if not client.deregister_agent(pool[0].addr).get("removed"):
            fail("deregistering the killed agent did not remove it")
        await_state(client, spare.addr, ("healthy",), 20.0, "replacement")
        print(f"pool: replacement {spare.addr} registered and healthy, "
              "corpse deregistered")

        # the partitioned agent must be demoted, then re-admitted
        demoted = await_state(client, pool[1].addr,
                              ("suspect", "quarantined"), 20.0, "partition")
        pool[1].resume()
        if demoted:
            print(f"partition: {pool[1].addr} demoted to {demoted}")
        await_state(client, pool[1].addr, ("healthy",), 30.0,
                    "partition heal")
        print(f"partition: {pool[1].addr} re-admitted after SIGCONT")

        for job_id in specs:
            record = client.wait(job_id, timeout_s=420)
            if record.state != STATE_DONE:
                fail(f"job {job_id}: {record.state} ({record.error})")
            elif record.digest != expected[job_id]:
                fail(f"job {job_id}: digest {record.digest} != one-shot "
                     f"{expected[job_id]}")
            else:
                print(f"job {job_id[:12]}: digest match "
                      f"(attempts={record.attempts})")

        if flap_to_quarantine(client, pool[2], timeout_s=60.0):
            print(f"flap: {pool[2].addr} quarantined")
        if "quarantined" not in agents_cli(state_dir):
            fail("`agents` CLI does not show the quarantine")
        if not quick:
            # quarantine is not a death sentence: sustained health
            # (through the jittered re-probe backoff) re-admits
            pool[2].resume()
            await_state(client, pool[2].addr, ("healthy",), 90.0,
                        "quarantine recovery")
            print(f"flap: {pool[2].addr} recovered to healthy")

        for row in client.agents().get("agents", []):
            if row["inflight"] != 0:
                fail(f"agent {row['addr']} still charged with "
                     f"{row['inflight']} in-flight job(s)")
        counters = client.ping().get("counters", {})
        print("counters: " + " ".join(
            f"{k}={counters.get(k, 0)}"
            for k in ("placed", "stale_dispatches", "hosts_lost")))
        shutdown(client, daemon)


LEGS = {
    "faults": leg_faults,
    "xfer": leg_xfer,
    "crash-resume": leg_crash_resume,
    "shard": leg_shard,
    "qos": leg_qos,
    "service": leg_service,
    "net": leg_net,
    "cluster": leg_cluster,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Soak the real processes leg by leg.")
    parser.add_argument("legs", nargs="*", metavar="LEG",
                        help="any of: " + ", ".join(LEGS) + " (default: all)")
    parser.add_argument("--quick", action="store_true",
                        help="shrink the cluster leg for CI")
    opts = parser.parse_args(argv)
    unknown = sorted(set(opts.legs) - set(LEGS))
    if unknown:
        parser.error(f"unknown leg(s) {', '.join(unknown)}")

    summary = []
    for name in opts.legs or LEGS:
        print(f"== {name}", flush=True)
        failed, start = len(FAILURES), time.monotonic()
        before = leftovers()
        tmp = Path(tempfile.mkdtemp(prefix=f"soak-{name}-"))
        try:
            LEGS[name](tmp, opts.quick)
        except Exception as exc:  # the leak check below must still run
            if not isinstance(exc, Abort):
                traceback.print_exc()
            fail(f"{name}: {exc}")
        shutil.rmtree(tmp, ignore_errors=True)
        check_clean(name, before)
        for proc in SPAWNED:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        SPAWNED.clear()
        summary.append((name, time.monotonic() - start,
                        len(FAILURES) - failed))
    print()
    for name, seconds, failed in summary:
        print(f"{name:14s} {seconds:6.1f} s  "
              f"{f'FAILED ({failed})' if failed else 'passed'}")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
