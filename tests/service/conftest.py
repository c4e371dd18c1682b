"""Fixtures for the service tests: live daemons run as subprocesses."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _daemon_env() -> dict[str, str]:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = _SRC + (os.pathsep + extra if extra else "")
    return env


def start_daemon(
    state_dir: Path, *extra: str, timeout_s: float = 30.0,
    env: "dict[str, str] | None" = None,
) -> subprocess.Popen:
    """Launch ``repro serve`` and wait until it advertises its endpoint."""
    state_dir = Path(state_dir)
    state_dir.mkdir(parents=True, exist_ok=True)
    log = open(state_dir / "daemon.log", "ab")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--state-dir", str(state_dir), *extra],
        env=env or _daemon_env(), stdout=log, stderr=subprocess.STDOUT,
    )
    log.close()
    endpoint = state_dir / "endpoint.json"
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if endpoint.exists():
            return proc
        if proc.poll() is not None:
            raise RuntimeError(
                "daemon exited before advertising an endpoint: "
                + (state_dir / "daemon.log").read_text()[-2000:]
            )
        time.sleep(0.02)
    proc.kill()
    raise RuntimeError(f"daemon did not come up within {timeout_s}s")


def stop_daemon(proc: subprocess.Popen, timeout_s: float = 30.0) -> None:
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


@pytest.fixture
def daemon():
    """Factory launching daemons that are always torn down after the test."""
    procs: list[subprocess.Popen] = []

    def launch(state_dir: Path, *extra: str, **kw) -> subprocess.Popen:
        proc = start_daemon(state_dir, *extra, **kw)
        procs.append(proc)
        return proc

    yield launch
    for proc in procs:
        stop_daemon(proc)
