"""Crash-safe job journal: checkpoint completed work, resume after kill -9.

A :class:`JobJournal` lives in ``RuntimeOptions.checkpoint_dir`` and
records, with the same atomic-rename + CRC discipline the spill run
files use, everything a restarted job needs to skip work it already
finished:

* **completed ingest rounds** — after each mapper wave the container's
  cumulative contents are snapshotted (``Container.drain`` is
  non-destructive) to a CRC-framed pickle blob, and the round index is
  journaled;
* **sealed spill runs** — the spill manager writes its runs inside the
  checkpoint directory, and the journal tracks the inventory so a
  resume re-adopts them after re-verifying each run's checksum;
* **reduced partitions** — once the reducers finish, their sorted runs
  are persisted so a crash during the merge phase resumes straight into
  the merge.

Every journal update goes through :func:`repro.util.atomic.publish`
(write-to-temp, fsync, rename): a ``kill -9`` at any instant leaves
either the old journal or the new one, never a torn file.  The journal
also stores a **fingerprint** of the job and options; resuming against a
different job, input, or chunking setup raises
:class:`~repro.errors.CheckpointError` instead of silently merging
incompatible state.
"""

from __future__ import annotations

import enum
import hashlib
import os
import pickle
import shutil
import struct
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.containers.base import Container, ContainerDelta
from repro.core.options import FINGERPRINT_FIELDS
from repro.errors import CheckpointError
from repro.faults.plan import FaultPlan
from repro.spill.manager import RunInfo
from repro.util.atomic import publish, read_json_crc, write_json_crc

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.job import JobSpec
    from repro.core.options import RuntimeOptions
    from repro.spill.manager import SpillManager

#: Journal file format version (bumped on incompatible layout changes).
JOURNAL_VERSION = 1

#: Stages a journaled job moves through, in order.
STAGE_MAPPING = "mapping"
STAGE_REDUCED = "reduced"
STAGE_COMPLETE = "complete"

_BLOB_MAGIC = b"JCKP"
_BLOB_HEADER = struct.Struct(">4sIQ")  # magic, crc32, payload length


def _identity(value: Any) -> Any:
    """How one option value enters the fingerprint: an enum by value, a
    fault plan by its seed and sites, anything else as it stands."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, FaultPlan):
        return (value.seed, value.sites())
    return value


def job_fingerprint(job: "JobSpec", options: "RuntimeOptions") -> str:
    """A stable digest of everything that must match to resume a job.

    Covers the job name, the input files (paths and byte sizes), and
    every option that shapes the intermediate state — the fields
    :class:`~repro.core.options.RuntimeOptions` marks ``fingerprint``:
    chunking, reducer count, merge algorithm, memory budget, and the
    fault plan's seed and sites.  Wall-clock knobs (deadline, lease
    length), the executor backend and the mapper count deliberately
    stay out — resuming with a longer deadline, one backend rung down
    or on a halved worker pool (the degradation ladder's half-width
    retry) is legitimate, since the journaled container state is
    independent of how many mappers produced it.
    """
    inputs = [
        (str(path), os.path.getsize(path)) for path in job.inputs
    ]
    material = repr((
        job.name,
        inputs,
        *(_identity(getattr(options, f.name)) for f in FINGERPRINT_FIELDS),
    ))
    return hashlib.sha256(material.encode()).hexdigest()


def _write_blob(path: Path, obj: Any) -> None:
    """Atomically persist ``obj`` as a CRC-framed pickle blob."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    header = _BLOB_HEADER.pack(_BLOB_MAGIC, zlib.crc32(payload), len(payload))
    publish(path, header, payload, fsync=True)


def _read_blob(path: Path) -> Any:
    """Load a CRC-framed blob; :class:`CheckpointError` on any damage."""
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint blob {path}: {exc}") from exc
    if len(raw) < _BLOB_HEADER.size:
        raise CheckpointError(f"{path}: truncated checkpoint blob")
    magic, crc, length = _BLOB_HEADER.unpack_from(raw)
    payload = raw[_BLOB_HEADER.size:]
    if magic != _BLOB_MAGIC or len(payload) != length:
        raise CheckpointError(f"{path}: misframed checkpoint blob")
    if zlib.crc32(payload) != crc:
        raise CheckpointError(f"{path}: checkpoint blob failed its CRC check")
    return pickle.loads(payload)


class JobJournal:
    """One job's durable progress record inside a checkpoint directory.

    Construct with ``resume=False`` to wipe any previous state and start
    fresh, or ``resume=True`` to load it (fingerprint-checked).  All
    mutating methods journal atomically, so the recorded state is always
    a consistent prefix of the job.
    """

    JOURNAL_NAME = "journal.json"

    def __init__(
        self,
        directory: "str | Path",
        fingerprint: str,
        resume: bool = False,
    ) -> None:
        self.directory = Path(directory)
        self.fingerprint = fingerprint
        self.directory.mkdir(parents=True, exist_ok=True)
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        self._state: dict[str, Any] = {
            "version": JOURNAL_VERSION,
            "fingerprint": fingerprint,
            "stage": STAGE_MAPPING,
            "completed_rounds": [],
            "map_tasks": 0,
            "snapshot": None,
            "spill_runs": [],
            "reduced": None,
        }
        self.resumed = False
        existing = self._load_existing() if resume else None
        if existing is not None:
            if existing.get("version") != JOURNAL_VERSION:
                raise CheckpointError(
                    f"journal version {existing.get('version')!r} does not "
                    f"match this runtime (expected {JOURNAL_VERSION})"
                )
            if existing.get("fingerprint") != fingerprint:
                raise CheckpointError(
                    "checkpoint fingerprint mismatch: the journal in "
                    f"{self.directory} was written by a different job, "
                    "input, or option set; refusing to resume"
                )
            if existing.get("stage") == STAGE_COMPLETE:
                # A finished job's journal holds nothing to resume; run
                # fresh rather than replaying a completed run's tail.
                existing = None
        if existing is not None:
            self._state = existing
            self.resumed = bool(
                existing["completed_rounds"] or existing["reduced"]
            )
        else:
            self._wipe()
            self._persist()

    # -- paths -------------------------------------------------------------

    @property
    def spill_dir(self) -> Path:
        """Where the spill manager must write runs to make them durable."""
        return self.directory / "spill"

    @property
    def journal_path(self) -> Path:
        return self.directory / self.JOURNAL_NAME

    # -- state queries ------------------------------------------------------

    @property
    def stage(self) -> str:
        """Current journaled stage (mapping | reduced | complete)."""
        return self._state["stage"]

    @property
    def completed_rounds(self) -> frozenset[int]:
        """Ingest-round indices whose mapper waves are fully journaled."""
        return frozenset(self._state["completed_rounds"])

    @property
    def map_tasks(self) -> int:
        """Map tasks launched across the journaled rounds."""
        return int(self._state["map_tasks"])

    # -- persistence --------------------------------------------------------

    def _load_existing(self) -> dict[str, Any] | None:
        if not self.journal_path.exists():
            return None
        return read_json_crc(self.journal_path, CheckpointError, "journal")

    def _persist(self) -> None:
        write_json_crc(self.journal_path, self._state)

    def _wipe(self) -> None:
        """Remove every prior checkpoint artifact (fresh start)."""
        for entry in self.directory.iterdir():
            if entry == self.spill_dir:
                shutil.rmtree(entry, ignore_errors=True)
                self.spill_dir.mkdir(parents=True, exist_ok=True)
            elif entry.is_file():
                entry.unlink(missing_ok=True)

    # -- recording ----------------------------------------------------------

    def record_round(
        self,
        round_index: int,
        container: Container,
        map_tasks: int,
        spill_mgr: "SpillManager | None" = None,
    ) -> None:
        """Checkpoint one completed mapper wave.

        Snapshots the container's cumulative contents (its in-memory
        part; spilled runs are already durable on disk) and journals the
        round, the task counter, and the current spill-run inventory.
        The snapshot is written before the journal flips, so a crash
        between the two leaves the previous consistent state.
        """
        snapshot_name = f"snapshot-{round_index:05d}.bin"
        previous = self._state["snapshot"]
        _write_blob(self.directory / snapshot_name, container.drain())
        self._state["completed_rounds"] = sorted(
            set(self._state["completed_rounds"]) | {round_index}
        )
        self._state["map_tasks"] = int(map_tasks)
        self._state["snapshot"] = snapshot_name
        if spill_mgr is not None:
            self._state["spill_runs"] = [
                {
                    "index": info.index,
                    "name": info.path.name,
                    "records": info.records,
                    "payload_bytes": info.payload_bytes,
                }
                for info in spill_mgr.runs
            ]
        self._persist()
        if previous and previous != snapshot_name:
            (self.directory / previous).unlink(missing_ok=True)

    def record_reduced(self, runs: list[list[Any]]) -> None:
        """Checkpoint the reducers' sorted output runs (pre-merge)."""
        name = "reduced.bin"
        _write_blob(self.directory / name, runs)
        self._state["reduced"] = name
        self._state["stage"] = STAGE_REDUCED
        self._persist()

    def finalize(self) -> None:
        """Mark the job complete and drop the now-redundant blobs."""
        self._state["stage"] = STAGE_COMPLETE
        self._persist()
        for key in ("snapshot", "reduced"):
            name = self._state[key]
            if name:
                (self.directory / name).unlink(missing_ok=True)

    # -- garbage collection --------------------------------------------------

    def purge(self) -> None:
        """Delete this journal's directory and every artifact in it.

        Used once a job's result has been retrieved (the journal holds
        nothing a finished job needs); the directory itself is removed,
        so a later job may reuse the path from scratch.
        """
        shutil.rmtree(self.directory, ignore_errors=True)

    @classmethod
    def peek_stage(cls, directory: "str | Path") -> str | None:
        """The journaled stage under ``directory``, or None when no
        intact journal exists there.

        Skips the fingerprint check — garbage collection must be able to
        classify journals written by arbitrary jobs.
        """
        path = Path(directory) / cls.JOURNAL_NAME
        if not path.exists():
            return None
        try:
            payload = read_json_crc(path, CheckpointError, "journal")
            return str(payload.get("stage"))
        except CheckpointError:
            return None

    @classmethod
    def purge_dir(
        cls, directory: "str | Path", require_complete: bool = False
    ) -> bool:
        """Remove one checkpoint directory; returns True when removed.

        With ``require_complete=True`` only directories whose journal
        reached the ``complete`` stage are touched (the safe default for
        ``repro gc`` over one-shot checkpoint dirs — an interrupted
        job's resumable state is never collected).
        """
        directory = Path(directory)
        if not directory.exists():
            return False
        if require_complete and cls.peek_stage(directory) != STAGE_COMPLETE:
            return False
        shutil.rmtree(directory, ignore_errors=True)
        return True

    # -- restoring ----------------------------------------------------------

    def restore(
        self,
        container: Container,
        spill_mgr: "SpillManager | None" = None,
    ) -> bool:
        """Rebuild ``container`` (and the spill inventory) from disk.

        Returns True when any journaled mapper state was restored.  Runs
        are re-verified against their checksums before adoption; the
        snapshot blob's CRC guards the in-memory part.
        """
        if not self._state["completed_rounds"]:
            return False
        if spill_mgr is not None and self._state["spill_runs"]:
            infos = [
                RunInfo(
                    index=entry["index"],
                    path=self.spill_dir / entry["name"],
                    records=entry["records"],
                    payload_bytes=entry["payload_bytes"],
                )
                for entry in self._state["spill_runs"]
            ]
            spill_mgr.adopt_runs(infos)
        snapshot = self._state["snapshot"]
        if snapshot:
            delta = _read_blob(self.directory / snapshot)
            if not isinstance(delta, ContainerDelta):
                raise CheckpointError(
                    f"{snapshot}: snapshot does not hold a container delta"
                )
            container.begin_round()
            container.absorb(delta)
        return True

    def load_reduced(self) -> list[list[Any]]:
        """The journaled reduced runs (only valid at stage ``reduced``)."""
        name = self._state["reduced"]
        if not name:
            raise CheckpointError("no reduced partitions are journaled")
        runs = _read_blob(self.directory / name)
        if not isinstance(runs, list):
            raise CheckpointError(f"{name}: reduced blob is not a run list")
        return runs
