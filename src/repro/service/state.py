"""Durable service state: one directory per job, CRC-enveloped records.

The daemon keeps everything it must survive a ``kill -9`` with on disk,
under its **state dir**:

.. code-block:: text

    state_dir/
      endpoint.json            # host, port, pid of the live daemon
      jobs/<job_id>/
        record.json            # JobRecord (state machine position)
        spec.json              # the submitted ServiceJobSpec
        checkpoint/            # the job's JobJournal (crash resume)
        result.json            # one-shot-identical JSON report (done jobs)
        runner.log             # the runners' stdout+stderr, all attempts

Records use the same CRC-inside-JSON envelope and atomic publish as the
job journal (:mod:`repro.util.atomic`), so a record is always either the
old or the new consistent value.

The daemon is the only writer of ``record.json`` / ``spec.json``, so it
never reads them back: a :class:`ServiceState` keeps a **job table**
(``jobs``: ``job_id -> JobEntry(spec, record)``) that
:meth:`~ServiceState.create_job` / :meth:`~ServiceState.save_record`
write *through* — the file first, then the entry, so the table never
holds a transition the disk does not.  :meth:`~ServiceState.load_jobs`
fills it from the directory once, at daemon start; the restarted daemon
re-queues jobs that were ``queued`` or ``running`` when the last one
died, and their checkpoints make the re-run resume instead of restart.
The ``load_*`` readers never consult the table: a fresh
``ServiceState(dir)`` in another process (a test, a tool) always sees
what is on disk.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import shutil
from bisect import insort
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from repro.errors import ServiceError
from repro.service.jobspec import ServiceJobSpec
from repro.util.atomic import publish, write_json_crc
from repro.util.atomic import read_json_crc as read_envelope

#: Job lifecycle states.
STATE_QUEUED = "queued"
STATE_RUNNING = "running"
STATE_DONE = "done"
STATE_FAILED = "failed"
STATE_CANCELLED = "cancelled"

#: States a job cannot leave.
TERMINAL_STATES = (STATE_DONE, STATE_FAILED, STATE_CANCELLED)


def read_json_crc(path: Path) -> dict[str, Any]:
    """Load a CRC-enveloped JSON file; :class:`ServiceError` on damage."""
    payload = read_envelope(path, ServiceError, "state file")
    if not isinstance(payload, dict):
        raise ServiceError(f"{path}: state payload is not an object")
    return payload


@dataclass(frozen=True)
class JobRecord:
    """One job's position in the service state machine."""

    job_id: str
    state: str
    priority: int = 0
    #: Admission order within a priority level (FIFO tiebreak).
    seq: int = 0
    #: Runner launches so far (1 on the first run; crashes increment).
    attempts: int = 0
    #: Runner exit code of the last finished attempt (None while live).
    exit_code: int | None = None
    #: Human-readable failure summary (failed jobs).
    error: str | None = None
    #: Output digest (done jobs) — identical to the one-shot CLI's.
    digest: str | None = None
    #: True when the last attempt resumed journaled work.
    resumed: bool = False
    #: Set after the result has been fetched at least once (GC hint).
    result_fetched: bool = False
    #: User+system CPU seconds and peak resident set of the last attempt
    #: that ended under the zygote — the runner with the workers it
    #: reaped, from the zygote's ``wait4`` (None until one has).
    cpu_s: float | None = None
    max_rss_mb: float | None = None

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dictionary; :meth:`from_dict` inverts it."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "JobRecord":
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})

    def with_(self, **changes: Any) -> "JobRecord":
        """A copy with ``changes`` applied (records are immutable)."""
        return replace(self, **changes)

    @property
    def finished(self) -> bool:
        return self.state in TERMINAL_STATES


@dataclass
class JobEntry:
    """One row of the job table: what was submitted and where it stands."""

    spec: ServiceJobSpec
    record: JobRecord


@dataclass
class ServiceState:
    """One daemon's durable state: the directory and the table over it."""

    state_dir: Path
    #: Every job this object created or recovered, in admission
    #: (``seq``) order, written through by :meth:`create_job` /
    #: :meth:`save_record`.
    jobs: dict[str, JobEntry] = field(default_factory=dict)
    #: ``(seq, job_id)`` of the finished, fetched jobs that still have a
    #: checkpoint dir, ascending: what :meth:`reap_checkpoints` pops.
    _fetched: list[tuple[int, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.state_dir = Path(self.state_dir)
        self.jobs_dir.mkdir(parents=True, exist_ok=True)

    # -- paths --------------------------------------------------------------

    @property
    def jobs_dir(self) -> Path:
        return self.state_dir / "jobs"

    @property
    def endpoint_path(self) -> Path:
        return self.state_dir / "endpoint.json"

    def job_dir(self, job_id: str) -> Path:
        """One job's directory under ``jobs/``."""
        return self.jobs_dir / job_id

    def checkpoint_dir(self, job_id: str) -> Path:
        """The job's JobJournal directory (crash resume)."""
        return self.job_dir(job_id) / "checkpoint"

    def spec_path(self, job_id: str) -> Path:
        """The submitted spec's on-disk path."""
        return self.job_dir(job_id) / "spec.json"

    def record_path(self, job_id: str) -> Path:
        """The durable JobRecord's on-disk path."""
        return self.job_dir(job_id) / "record.json"

    def result_path(self, job_id: str) -> Path:
        """The stored JSON report's on-disk path (done jobs)."""
        return self.job_dir(job_id) / "result.json"

    def runner_log_path(self, job_id: str) -> Path:
        """The runners' log (stdout+stderr, all attempts)."""
        return self.job_dir(job_id) / "runner.log"

    # -- endpoint -----------------------------------------------------------

    def write_endpoint(self, host: str, port: int) -> None:
        """Advertise the live daemon's (host, port, pid)."""
        write_json_crc(
            self.endpoint_path,
            {"host": host, "port": port, "pid": os.getpid()},
        )

    def read_endpoint(self) -> tuple[str, int]:
        """The advertised (host, port); :class:`ServiceError` if absent."""
        if not self.endpoint_path.exists():
            raise ServiceError(
                f"no service endpoint under {self.state_dir} "
                "(is the daemon running?)"
            )
        data = read_json_crc(self.endpoint_path)
        return str(data["host"]), int(data["port"])

    def clear_endpoint(self) -> None:
        """Remove the advertisement (daemon drained or dead)."""
        self.endpoint_path.unlink(missing_ok=True)

    # -- job records --------------------------------------------------------

    def create_job(self, spec: ServiceJobSpec, record: JobRecord) -> None:
        """Lay out a new job dir: spec, record, empty checkpoint."""
        job_dir = self.job_dir(record.job_id)
        job_dir.mkdir(parents=True, exist_ok=True)
        self.checkpoint_dir(record.job_id).mkdir(parents=True, exist_ok=True)
        write_json_crc(self.spec_path(record.job_id), spec.to_dict())
        write_json_crc(self.record_path(record.job_id), record.to_dict())
        self.jobs[record.job_id] = JobEntry(spec, record)
        self._note_fetched(record)

    def save_record(self, record: JobRecord) -> None:
        """Durably persist one state-machine transition of a job in the
        table — the file first, so the table never runs ahead of it."""
        entry = self.jobs[record.job_id]
        write_json_crc(self.record_path(record.job_id), record.to_dict())
        was, entry.record = entry.record, record
        if not (was.finished and was.result_fetched):
            self._note_fetched(record)

    def remove_job(self, job_id: str) -> None:
        """Wipe a job: its directory and its table row (a rerun)."""
        shutil.rmtree(self.job_dir(job_id), ignore_errors=True)
        record = self.jobs.pop(job_id).record
        with contextlib.suppress(ValueError):
            self._fetched.remove((record.seq, job_id))

    def _note_fetched(self, record: JobRecord) -> None:
        if record.finished and record.result_fetched:
            insort(self._fetched, (record.seq, record.job_id))

    def load_jobs(self) -> None:
        """Fill the table from the directory, in admission order — the
        one time the daemon reads its own records and specs."""
        self.jobs.clear()
        self._fetched.clear()
        for record in self.load_all_records():
            self.jobs[record.job_id] = JobEntry(
                self.load_spec(record.job_id), record
            )
            if self.checkpoint_dir(record.job_id).exists():
                self._note_fetched(record)

    def load_record(self, job_id: str) -> JobRecord | None:
        """The job's record as it is on disk, or None when there is none."""
        path = self.record_path(job_id)
        if not path.exists():
            return None
        return JobRecord.from_dict(read_json_crc(path))

    def load_spec(self, job_id: str) -> ServiceJobSpec:
        """The job's submitted spec as it is on disk."""
        return ServiceJobSpec.from_dict(read_json_crc(self.spec_path(job_id)))

    def load_all_records(self) -> list[JobRecord]:
        """Every job record on disk, in admission (``seq``) order."""
        records = []
        if not self.jobs_dir.exists():
            return records
        for entry in sorted(self.jobs_dir.iterdir()):
            record = self.load_record(entry.name)
            if record is not None:
                records.append(record)
        records.sort(key=lambda r: r.seq)
        return records

    def write_result(self, job_id: str, report_json: str) -> None:
        """Atomically store the one-shot-identical JSON report."""
        publish(self.result_path(job_id), report_json)

    def read_result(self, job_id: str) -> str:
        """The stored report; :class:`ServiceError` when absent."""
        path = self.result_path(job_id)
        if not path.exists():
            raise ServiceError(f"job {job_id} has no stored result")
        return path.read_text()

    # -- garbage collection -------------------------------------------------

    def reap_checkpoints(self, retention: int) -> list[str]:
        """Drop checkpoint dirs of the table's finished, fetched jobs
        beyond the ``retention`` most recently admitted; returns reaped
        job ids, oldest first.  Costs what it reaps, not what there is."""
        from repro.resilience.journal import JobJournal

        reaped: list[str] = []
        while len(self._fetched) > max(0, retention):
            _, job_id = self._fetched.pop(0)
            if JobJournal.purge_dir(self.checkpoint_dir(job_id)):
                # the job's shard exchange dir rides along with the
                # checkpoint: both only matter to a resumable job
                shutil.rmtree(self.job_dir(job_id) / "shards",
                              ignore_errors=True)
                reaped.append(job_id)
        return reaped
