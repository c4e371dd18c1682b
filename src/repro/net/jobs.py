"""Wire forms for dispatching shard work to a remote agent.

A local shard worker fork inherits the job callables, options, and
chunk block copy-on-write; a remote worker gets none of that, so the
spawn command must carry a JSON-safe description the agent can rebuild
the identical objects from:

* the **job** travels as its app name + input paths (the same registry
  the job service uses — callables never cross the wire);
* the **options** travel as the subset a shard worker actually reads
  (the fields :class:`~repro.core.options.RuntimeOptions` marks
  ``wire``; ``docs/options.md`` lists them) — ``task_id_base`` math and
  fault scopes stay identical, which is what keeps digests
  byte-identical across placements;
* the **chunks** travel as their source descriptors (path, offset,
  length) — inputs are expected on a shared filesystem, exactly like
  every production MapReduce's input contract.
"""

from __future__ import annotations

import dataclasses
import enum
from pathlib import Path
from typing import Any, Sequence

from repro.chunking.chunk import Chunk, ChunkSource
from repro.core.job import JobSpec
from repro.core.options import WIRE_FIELDS, RuntimeOptions
from repro.errors import ConfigError
from repro.service.jobspec import KNOWN_APPS, build_app_job


def job_to_wire(job: JobSpec) -> dict[str, Any]:
    """``{"app", "inputs"}`` for a job built by a known app factory."""
    if job.name not in KNOWN_APPS:
        raise ConfigError(
            f"remote shard execution needs a registered app; job "
            f"{job.name!r} is not one of {', '.join(KNOWN_APPS)}"
        )
    return {"app": job.name, "inputs": [str(p) for p in job.inputs]}


def job_from_wire(data: dict[str, Any]) -> JobSpec:
    """Rebuild the executable job from its wire form."""
    app = data.get("app")
    if app not in KNOWN_APPS:
        raise ConfigError(f"unknown remote app {app!r}")
    return build_app_job(app, data.get("inputs") or ())


def _json_safe(value: Any) -> Any:
    """Enums by value, dataclasses as field dicts, tuples as lists."""
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value):
        return {
            f.name: _json_safe(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, tuple):
        return [_json_safe(item) for item in value]
    return value


def options_to_wire(options: RuntimeOptions) -> dict[str, Any]:
    """The worker-relevant option subset, JSON-safe.

    Carries the fields :class:`RuntimeOptions` marks ``wire``.  The
    marks deliberately leave out placement-side knobs (``peers``, shard
    and checkpoint directories, executor backend — workers run their
    block serially either way) so the same wire form is valid on any
    host.
    """
    wire: dict[str, Any] = {}
    for f in WIRE_FIELDS:
        value = getattr(options, f.name)
        if value is None and f.metadata["wire"] is not True:
            continue  # no fault plan: the key is left out, not sent as null
        wire[f.name] = _json_safe(value)
    return wire


def options_from_wire(data: dict[str, Any]) -> RuntimeOptions:
    """Rebuild worker options from :func:`options_to_wire`'s form."""
    fields: dict[str, Any] = {}
    for f in WIRE_FIELDS:
        value = data.get(f.name)
        if value is not None:
            decode = f.metadata["wire"]
            fields[f.name] = value if decode is True else decode(value)
    return RuntimeOptions(**fields)


def chunks_to_wire(chunks: Sequence[Chunk]) -> list[dict[str, Any]]:
    """Chunk descriptors as JSON-safe source lists."""
    return [
        {
            "index": chunk.index,
            "sources": [
                [str(s.path), s.offset, s.length] for s in chunk.sources
            ],
        }
        for chunk in chunks
    ]


def chunks_from_wire(data: Sequence[dict[str, Any]]) -> list[Chunk]:
    """Rebuild the chunk block (paths must resolve on this host)."""
    return [
        Chunk(
            index=int(entry["index"]),
            sources=tuple(
                ChunkSource(path=Path(p), offset=int(off), length=int(ln))
                for p, off, ln in entry["sources"]
            ),
        )
        for entry in data
    ]
