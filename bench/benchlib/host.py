"""The box and the process tree: environment block, CPU/RSS, leak checks.

Linux-only where it reads ``/proc``; the runtime's process backend and
shared-memory transport are POSIX-only already.
"""

from __future__ import annotations

import os
import platform
import resource
import signal
import sys
import tempfile
import time
from pathlib import Path

from repro.xfer import shm_available
from repro.xfer.segments import orphaned_segments

_CLOCK_TICK = os.sysconf("SC_CLK_TCK")
#: ``ru_maxrss`` is reported in KiB on Linux.
_KIB = 1024


def worker_count() -> int:
    """Mappers = reducers = pool workers = shards = service clients."""
    return max(1, min(len(os.sched_getaffinity(0)), 4))


def filesystem_of(path: Path) -> str:
    """The mount type holding ``path`` (longest mount-point prefix)."""
    target = str(path.resolve())
    best, kind = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return kind
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1]
        prefix = mount.rstrip("/") + "/"
        if (target + "/").startswith(prefix) and len(mount) > len(best):
            best, kind = mount, fields[2]
    return kind


def environment(workdir: Path) -> dict:
    """What the numbers depend on besides the code."""
    return {
        "cpu_count": len(os.sched_getaffinity(0)),
        "workers": worker_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "platform": platform.platform(),
        "shm_available": shm_available(),
        "tmp_filesystem": filesystem_of(workdir),
    }


def use_tempdir(path: Path) -> None:
    """Point every ``tempfile`` user (spill dirs, shard dirs) at ``path``,
    in this process and in every child it starts."""
    path.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(path)
    tempfile.tempdir = None


# -- CPU and memory of the process tree -------------------------------------


def tree_cpu_s() -> float:
    """User+system CPU of this process and every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def proc_tree_cpu_s(pid: int) -> float:
    """User+system CPU of a live process plus the children *it* reaped
    (``utime + stime + cutime + cstime`` of ``/proc/<pid>/stat``)."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    # the command name may hold spaces; fields resume after the last ')'
    fields = stat[stat.rindex(")") + 2:].split()
    return sum(int(fields[i]) for i in (11, 12, 13, 14)) / _CLOCK_TICK


def peak_rss_mb() -> float:
    """Largest resident set among this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) * _KIB / 1e6


# -- leave-nothing-behind ----------------------------------------------------


def shm_segments() -> set[str]:
    """``rxf*`` entries currently in ``/dev/shm``."""
    return set(orphaned_segments())


def _processes() -> list[tuple[int, int, str, str]]:
    """``(pid, ppid, state, cmdline)`` of every readable process."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
            cmdline = Path(f"/proc/{entry}/cmdline").read_bytes()
        except OSError:
            continue  # exited while we looked
        fields = stat[stat.rindex(")") + 2:].split()
        out.append((
            int(entry), int(fields[1]), fields[0],
            cmdline.replace(b"\0", b" ").decode("utf-8", "replace"),
        ))
    return out


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants.

    A runner or forked worker whose parent died would otherwise be handed
    to init and outlive the run unseen; as a child of this process it is
    found by ``leaks`` and ended by ``end_children``.
    """
    import ctypes

    PR_SET_CHILD_SUBREAPER = 36
    try:
        ctypes.CDLL(None, use_errno=True).prctl(
            PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: orphans go to init as before


def _stop_resource_tracker() -> None:
    """Close the interpreter's shared-memory resource tracker's pipe, so
    it exits now and not some time after this process has."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    fd = getattr(tracker, "_fd", None)
    if fd is None:
        return
    try:
        os.close(fd)
    except OSError:
        pass
    tracker._fd = None


def end_children(grace_s: float = 5.0) -> list[str]:
    """Leave no process behind: wait for every child of this process,
    killing the ones still alive after ``grace_s``.  Returns the command
    lines of the killed ones.  Call last, on every path out."""
    _stop_resource_tracker()
    me = os.getpid()
    killed: dict[int, str] = {}
    deadline = time.monotonic() + grace_s
    give_up = deadline + 10.0  # a killed child that cannot be waited for
    while True:
        children = [p for p in _processes() if p[1] == me]
        if not children or time.monotonic() > give_up:
            return list(killed.values())
        for pid, _, state, cmdline in children:
            if state != "Z" and time.monotonic() > deadline:
                killed.setdefault(pid, cmdline[:80])
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass  # reaped elsewhere between the listing and here
        time.sleep(0.002)


def leaks(workdir: Path, shm_before: set[str]) -> list[str]:
    """Every way the finished workload left something behind, named.

    Checked: live child processes of this process (the interpreter's own
    shared-memory resource tracker is not the program's), any process
    whose command line names ``workdir`` (an orphaned runner or daemon),
    new ``rxf*`` segments in ``/dev/shm``, and ``repro-spill-*`` /
    ``repro-shard-*`` directories in the temp dir.
    """
    found = []
    me = os.getpid()
    for pid, ppid, state, cmdline in _processes():
        if pid == me or state == "Z":
            continue
        if "multiprocessing.resource_tracker" in cmdline:
            continue
        if ppid == me:
            found.append(f"live child process {pid}: {cmdline[:80]}")
        elif str(workdir) in cmdline:
            found.append(f"orphaned process {pid}: {cmdline[:80]}")
    for name in sorted(shm_segments() - shm_before):
        found.append(f"shared-memory segment /dev/shm/{name}")
    tmp = Path(tempfile.gettempdir())
    for pattern in ("repro-spill-*", "repro-shard-*"):
        for path in sorted(tmp.glob(pattern)):
            found.append(f"temp directory {path}")
    return found
