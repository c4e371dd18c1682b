"""Driving ``supmr serve``: one daemon, closed-loop clients.

Callers of this service block on the reply, so the load is a closed
loop: each client submits its next job only after fetching the previous
result.  The client count is the box's worker count and is recorded in
the result's environment block.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.errors import AdmissionError, ReproError
from repro.service.client import ServiceClient
from repro.service.state import STATE_DONE, STATE_RUNNING

from benchlib.workloads import Inputs, service_spec

_START_TIMEOUT_S = 30.0
_STOP_TIMEOUT_S = 30.0


class Daemon:
    """One ``supmr serve`` subprocess over a fresh state dir."""

    def __init__(self, state_dir: Path, src_dir: Path, max_jobs: int) -> None:
        shutil.rmtree(state_dir, ignore_errors=True)
        state_dir.mkdir(parents=True)
        self.state_dir = state_dir
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_dir) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        with open(state_dir / "daemon.log", "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--state-dir", str(state_dir),
                 "--max-jobs", str(max_jobs), "--queue-depth", "64"],
                env=env, stdout=log, stderr=subprocess.STDOUT,
            )
        deadline = time.monotonic() + _START_TIMEOUT_S
        while not (state_dir / "endpoint.json").exists():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.proc.kill()
                self.proc.wait()
                raise RuntimeError(
                    f"daemon did not come up; see {state_dir / 'daemon.log'}"
                )
            time.sleep(0.005)
        self.client().ping()

    @property
    def pid(self) -> int:
        return self.proc.pid

    def client(self) -> ServiceClient:
        """A fresh client bound to this daemon's advertised endpoint."""
        return ServiceClient.from_state_dir(self.state_dir)

    def shutdown(self) -> int:
        """Ask the daemon to drain and exit; returns its exit code."""
        try:
            self.client().shutdown()
        except ReproError:
            self.proc.terminate()
        try:
            return self.proc.wait(timeout=_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return -9


@dataclass
class JobTrip:
    """One submit -> result round trip as the client saw it."""

    client: int
    start: float
    end: float
    ok: bool
    detail: str = ""
    rejected: bool = False
    #: Client-side stage boundaries (traced runs only).
    submitted: float | None = None
    running: float | None = None
    done: float | None = None
    job_total_s: float | None = None

    @property
    def latency_s(self) -> float:
        return self.end - self.start


@dataclass
class LoopResult:
    trips: list[JobTrip] = field(default_factory=list)


def closed_loop(
    daemon: Daemon,
    inputs: Inputs,
    clients: int,
    expected_digest: str,
    tag: str,
    keep_going: Callable[[int], bool],
    staged: bool = False,
) -> LoopResult:
    """``clients`` threads each submit-wait-fetch until ``keep_going``
    (given the client's completed count) says stop.

    ``staged`` splits each trip into submit RPC, queued->running,
    running->done and result RPC with client-side timestamps; the plain
    form calls ``submit_and_wait`` and times only the whole trip.
    """
    out = LoopResult()
    lock = threading.Lock()

    def one_trip(client: ServiceClient, cid: int, index: int) -> JobTrip:
        spec = service_spec(inputs, clients, f"{tag}-c{cid}-{index}")
        trip = JobTrip(client=cid, start=time.perf_counter(), end=0.0,
                       ok=False)
        try:
            if staged:
                submitted = client.submit(spec)
                trip.submitted = time.perf_counter()

                def on_transition(record: Any) -> None:
                    if record.state == STATE_RUNNING:
                        trip.running = time.perf_counter()

                record = client.wait(submitted["job_id"],
                                     on_transition=on_transition)
                trip.done = time.perf_counter()
                reply = client.result(record.job_id)
                report = reply.get("report")
            else:
                record, report = client.submit_and_wait(spec)
            trip.end = time.perf_counter()
        except AdmissionError as exc:
            trip.end = time.perf_counter()
            trip.rejected = True
            trip.detail = f"rejected: {exc}"
            return trip
        except ReproError as exc:
            trip.end = time.perf_counter()
            trip.detail = f"raised {type(exc).__name__}: {exc}"
            return trip
        if record.state != STATE_DONE:
            trip.detail = f"ended {record.state}: {record.error}"
        elif record.digest != expected_digest:
            trip.detail = "digest differs from the reference"
        else:
            trip.ok = True
        if report is not None:
            trip.job_total_s = report["timings"]["total_s"]
        return trip

    crashes: list[BaseException] = []

    def run_client(cid: int) -> None:
        try:
            client = daemon.client()
            index = 0
            while keep_going(index):
                trip = one_trip(client, cid, index)
                index += 1
                with lock:
                    out.trips.append(trip)
        except BaseException as exc:  # noqa: BLE001 - re-raised after join
            crashes.append(exc)

    threads = [
        threading.Thread(target=run_client, args=(cid,), name=f"client-{cid}")
        for cid in range(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if crashes:
        raise crashes[0]
    return out
