"""The runner zygote and the runners it forks
(``python -m repro.service.runner STATE_DIR``).

The daemon never runs MapReduce work in-process: each attempt of an
admitted job gets its own runner process over its job directory, so a
job that crashes, leaks memory, or gets killed takes itself out — not
the service.  What an attempt does *not* pay for is interpreter start
and imports (0.3 s against a 0.03 s job): the daemon execs **one
zygote** — this module, a fresh interpreter that imports everything a
job touches once — and every runner is a ``fork`` of it.

The zygote is exec'd, not forked from the daemon's event loop, so a
runner inherits no loop fds, no executor threads and no signal wake-up
fd: a signal delivered to a runner can never stop the daemon.  It is
single-threaded whenever it forks (numpy's BLAS pool, the one thread
the imports start, parks itself in its own ``atfork`` handler).

**The zygote** serves a control socket (handed over as its stdin;
frames of :mod:`repro.service.protocol`).  Per spawn request it forks a
child and answers ``{job_id, pid}`` at once (``{job_id, error}`` when
the fork failed).  The request names the job and carries what the
daemon decided for this attempt alone — ``{job_id[, peers,
net_timeout][, io_budget][, crash_after_round]}`` — and the child reads
it straight out of the fork: nothing per-attempt is written to the job
dir, so nothing of one attempt can reach the next.  When a child ends it
sweeps the child's process group *while the leader is still an unreaped
zombie* (``waitid(WNOWAIT)`` → ``killpg`` → ``wait4``: the pgid cannot
have been recycled, and no pool or shard worker of the attempt outlives
it) and answers ``{job_id, status, cpu_s, max_rss_mb}`` — the wait
status and the runner's rusage.  Control-socket EOF means the daemon is
gone: the zygote SIGKILLs the groups of its live runners, reaps them and
exits, so a SIGKILLed daemon leaves nothing behind.

**A runner** (the forked child) becomes a session leader (``pgid ==
pid``: every kill site of the daemon works on the reported pid), closes
the control socket, points fds 1/2 at the job's ``runner.log`` and
returns out of the zygote loop into :func:`main`, which runs
:func:`run_job_dir` and leaves the way a ``multiprocessing`` fork child
does: an exception that escapes is printed to ``runner.log`` as exit 1,
non-daemon threads are joined, the ``atexit`` hooks run
(``logging.shutdown``, ``multiprocessing``'s finalizers and children,
any ``weakref.finalize``), stdio is flushed, and ``os._exit`` ends it
with the code per :mod:`repro.exitcodes`.  What it skips is interpreter
finalisation: tearing down ≈ 370 modules and a heap shared copy-on-write
with the zygote copies every page it touches, a third of a small job's
runner.  :func:`run_job_dir`:

1. loads the CRC-enveloped ``spec.json`` the daemon wrote at admission;
2. lowers it to :class:`~repro.core.options.RuntimeOptions` with the
   job's own ``checkpoint/`` dir and ``resume=True``, so *every*
   submitted job is automatically crash-resumable via the
   :class:`~repro.resilience.journal.JobJournal` — a relaunched runner
   picks up where the dead one's journal left off — and with the
   request's ``peers`` (the agents this dispatch fans out onto, drawn
   from the live healthy pool each attempt; none means a local run) and
   ``io_budget`` (the allocator's share of the node bandwidth, which
   replaces the spec's raw ask);
3. runs the job on the same runtime dispatch the one-shot CLI uses
   (plain, Phoenix, or sharded) — digests are byte-identical;
4. writes ``result.json`` (the one-shot ``--json`` report) on success or
   ``error.json`` on failure, and returns the shared
   :mod:`repro.exitcodes` code so the daemon can classify the outcome.

``crash_after_round = N`` arms the ``service.job.crash`` fault site: a
watchdog thread SIGKILLs the runner once N ingest rounds are journaled,
letting the fault matrix prove that a mid-job runner death is recovered
by relaunch + journal resume.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import gc
import json
import os
import select
import signal
import socket
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Any, NoReturn

from repro.core.supmr import run_job
from repro.errors import ProtocolError
from repro.exitcodes import EXIT_FAILURE, classify_exception, classify_result
from repro.service import protocol
from repro.service.jobspec import ServiceJobSpec
from repro.service.state import ServiceState, read_json_crc
from repro.util.atomic import publish

#: How often the crash watchdog polls the journal.
_WATCH_INTERVAL_S = 0.002

#: ``ru_maxrss`` is reported in KiB on Linux.
_KIB = 1024


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


def run_job_dir(job_dir: Path, request: "dict[str, Any] | None" = None) -> int:
    """Execute the job described by ``job_dir`` under the daemon's spawn
    ``request`` (the attempt's parameters); returns the exit code."""
    request = request or {}
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
        options = spec.to_options(
            checkpoint_dir=str(checkpoint),
            resume=True,
            shard_dir=str(shard_dir) if shard_dir else None,
            peers=tuple(request.get("peers") or ()) or None,
            net_timeout=request.get("net_timeout"),
        )
        if "io_budget" in request:
            options = options.with_(io_budget=int(request["io_budget"]))
        if "crash_after_round" in request:
            _arm_crash_watchdog(checkpoint, request["crash_after_round"])

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


# -- the zygote --------------------------------------------------------------


def _preimport() -> None:
    """Load what a job touches, so no runner imports it again."""
    import repro.analysis.report  # noqa: F401
    import repro.apps.sortapp  # noqa: F401
    import repro.apps.wordcount  # noqa: F401
    import repro.shard.coordinator  # noqa: F401

    # The heap as it stands is shared with every runner; keeping the
    # collector off it keeps those pages shared (a collection writes
    # to every object it visits).
    gc.collect()
    gc.freeze()


def _become_runner(
    log_path: Path, ctl: socket.socket, wake_fds: "tuple[int, int]"
) -> None:
    """The child's side of the fork: leave the zygote behind.

    Never raises — an exception here would unwind through the zygote's
    frames *in the child* and run its daemon-is-gone handling against
    the other live runners.
    """
    try:
        os.setsid()
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGCHLD, signal.SIG_DFL)
        # SIGINT ends a runner as SIGTERM does, in a signal death the
        # daemon relaunches, not as a KeyboardInterrupt that the way out
        # of main() would report as exit 1.
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        ctl.close()
        for fd in wake_fds:
            os.close(fd)
        log = os.open(log_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        os.dup2(log, 1)
        os.dup2(log, 2)
        os.close(log)
    except BaseException:  # noqa: BLE001 - see the docstring
        os._exit(EXIT_FAILURE)


def _reap(ctl: socket.socket, live: "dict[int, str]") -> None:
    """Report every runner that has ended, sweeping its group first."""
    while live:
        ended = os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
        if ended is None:
            return
        pid = ended.si_pid
        # The leader is a zombie we have not reaped, so its pid — and
        # the group id equal to it — cannot have been reused: this
        # kills the attempt's own pool and shard workers and nothing
        # else.  A survivor would keep writing the checkpoint journal
        # the relaunched attempt resumes from.
        with contextlib.suppress(ProcessLookupError):
            os.killpg(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        protocol.send_frame(ctl, {
            "job_id": live.pop(pid),
            "status": status,
            "cpu_s": round(usage.ru_utime + usage.ru_stime, 6),
            "max_rss_mb": round(usage.ru_maxrss * _KIB / 1e6, 1),
        })


def _serve(state: ServiceState, ctl: socket.socket) -> "dict[str, Any] | None":
    """The zygote loop.  Returns None in the zygote once the daemon is
    gone; returns the request in each forked runner."""
    wake_fds = os.pipe()
    for fd in wake_fds:
        os.set_blocking(fd, False)
    # the wake-up fd is only written for signals that have a handler
    signal.signal(signal.SIGCHLD, lambda signum, frame: None)
    signal.set_wakeup_fd(wake_fds[1])
    live: dict[int, str] = {}
    try:
        while True:
            readable, _, _ = select.select([ctl, wake_fds[0]], [], [])
            if wake_fds[0] in readable:
                os.read(wake_fds[0], 4096)
                _reap(ctl, live)
            if ctl not in readable:
                continue
            request = protocol.recv_frame(ctl)
            job_id = str(request["job_id"])
            try:
                pid = os.fork()
            except OSError as exc:
                protocol.send_frame(ctl, {"job_id": job_id, "error": str(exc)})
                continue
            if pid == 0:
                _become_runner(state.runner_log_path(job_id), ctl, wake_fds)
                return request
            live[pid] = job_id
            protocol.send_frame(ctl, {"job_id": job_id, "pid": pid})
    except (EOFError, ProtocolError, OSError):
        pass
    # The daemon is gone (or the socket to it is unusable): nothing it
    # started may outlive it.
    for pid in live:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(pid, signal.SIGKILL)
        os.wait4(pid, 0)
    return None


def _run_and_exit(job_dir: Path, request: "dict[str, Any]") -> NoReturn:
    """A forked runner's one way out: run the job, then leave the way a
    ``multiprocessing`` fork child does — join the non-daemon threads,
    run the ``atexit`` hooks, flush stdio and ``os._exit``, skipping the
    interpreter's teardown (see the module docstring)."""
    try:
        code = run_job_dir(job_dir, request)
    except BaseException:  # noqa: BLE001 - the process ends here, exit 1
        traceback.print_exc()
        code = EXIT_FAILURE
    try:
        threading._shutdown()  # type: ignore[attr-defined]
        atexit._run_exitfuncs()
        sys.stdout.flush()
        sys.stderr.flush()
    finally:
        os._exit(code)


def main(argv: "list[str] | None" = None) -> int:
    """Serve the control socket on stdin as the zygote; in a forked
    runner, run its job to completion and exit with its code (per
    repro.exitcodes) — only the zygote returns."""
    parser = argparse.ArgumentParser(prog="repro.service.runner")
    parser.add_argument("state_dir", help="the daemon's state directory")
    args = parser.parse_args(argv)
    state = ServiceState(Path(args.state_dir))
    # The control socket arrives as stdin; move it off fd 0 so that no
    # runner (or worker a runner forks) holds it open as *its* stdin —
    # the daemon reads this socket's EOF as "the zygote is dead".
    ctl = socket.socket(fileno=os.dup(0))
    null = os.open(os.devnull, os.O_RDONLY)
    os.dup2(null, 0)
    os.close(null)
    _preimport()
    try:
        request = _serve(state, ctl)
    finally:
        ctl.close()  # the zygote's copy; a runner closed its own already
    if request is None:
        return 0
    _run_and_exit(state.job_dir(str(request["job_id"])), request)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
