"""Publishing a file another process reads, and the CRC-in-JSON envelope.

Every file in this tree that a second process polls or reloads — the
daemon's job records, the journal, a runner's report, pid files, an
agent's ``--addr-file`` — is written through :func:`publish`: the bytes
go to a sibling temp file and ``os.replace`` swaps it in, so a reader
sees the previous content or the new, never an empty or half-written
file.  :func:`write_json_crc` / :func:`read_json_crc` add the
``{"crc32": ..., "payload": ...}`` envelope the durable state files
share; the reader raises the *caller's* error type, so a damaged
journal stays a :class:`~repro.errors.CheckpointError` and a damaged
job record a :class:`~repro.errors.ServiceError`.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import Any


def publish(path: "str | Path", *chunks: "str | bytes", fsync: bool = False) -> None:
    """Atomically replace ``path`` with the concatenated ``chunks``.

    ``chunks`` are all ``str`` or all ``bytes``.  ``fsync=True`` forces
    the data to disk before the swap (durable state that must survive a
    power cut); without it the swap is still atomic to other processes.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb" if isinstance(chunks[0], bytes) else "w") as fh:
        for chunk in chunks:
            fh.write(chunk)
        if fsync:
            fh.flush()
            os.fsync(fh.fileno())
    os.replace(tmp, path)


def _payload_crc(payload: Any) -> int:
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(encoded.encode())


def write_json_crc(path: "str | Path", payload: Any) -> None:
    """Durably :func:`publish` ``payload`` inside a CRC envelope."""
    envelope = {"crc32": _payload_crc(payload), "payload": payload}
    publish(path, json.dumps(envelope, sort_keys=True), fsync=True)


def read_json_crc(path: "str | Path", error: type[Exception], what: str) -> Any:
    """The payload of a CRC-enveloped JSON file.

    Raises ``error`` (naming the file as a ``what``) when it cannot be
    read, is not an envelope, or fails its CRC check.
    """
    try:
        envelope = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise error(f"{path}: unreadable {what}: {exc}") from exc
    payload = envelope.get("payload") if isinstance(envelope, dict) else None
    if payload is None or envelope.get("crc32") != _payload_crc(payload):
        raise error(f"{path}: {what} failed its CRC check")
    return payload
