"""Machine-readable result reports.

``JobResult`` and ``SimJobResult`` carry nested dataclasses and bytes
keys; these helpers flatten them into JSON-safe dictionaries (and JSON
text) so runs can be logged, diffed, and post-processed outside Python —
the CLI's ``--json`` flag uses them.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from repro.core.result import JobResult, PhaseTimings
from repro.faults.log import FaultLog

if TYPE_CHECKING:
    # annotation only: every runner and one-shot ``--json`` imports this
    # module, and none of them needs the simulator loaded
    from repro.simrt.phases import SimJobResult


def _json_safe(value: Any) -> Any:
    if isinstance(value, bytes):
        return value.decode("utf-8", "backslashreplace")
    if isinstance(value, FaultLog):
        return fault_log_dict(value)
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(_json_safe(k)): _json_safe(v) for k, v in value.items()}
    if isinstance(value, BaseException):
        return repr(value)
    return value


def fault_log_dict(log: FaultLog) -> dict[str, Any]:
    """A :class:`~repro.faults.log.FaultLog` as summary plus event list."""
    return {
        "summary": _json_safe(log.summary()),
        "events": [
            {
                "site": e.site,
                "action": e.action,
                "detail": _json_safe(e.detail),
                "scope": e.scope,
                "attempt": e.attempt,
                "time_s": e.time_s,
            }
            for e in log.events
        ],
    }


def timings_dict(timings: PhaseTimings) -> dict[str, Any]:
    """Phase timings as a flat dictionary (rounds included)."""
    return {
        "read_s": timings.read_s,
        "map_s": timings.map_s,
        "read_map_s": timings.read_map_s,
        "reduce_s": timings.reduce_s,
        "merge_s": timings.merge_s,
        "total_s": timings.total_s,
        "read_map_combined": timings.read_map_combined,
        "spill_s": timings.spill_s,
        "rounds": [
            {
                "index": r.index,
                "ingest_s": r.ingest_s,
                "map_s": r.map_s,
                "chunk_bytes": r.chunk_bytes,
            }
            for r in timings.rounds
        ],
    }


def job_result_dict(result: JobResult, include_output: bool = False) -> dict:
    """A ``JobResult`` as a JSON-safe dictionary.

    Output pairs are omitted by default (they can be huge); metadata,
    timings, counters and container stats are always included.
    """
    data: dict[str, Any] = {
        "job": result.job_name,
        "runtime": result.runtime,
        "input_bytes": result.input_bytes,
        "n_chunks": result.n_chunks,
        "n_output_pairs": result.n_output_pairs,
        "digest": result.output_digest(),
        "timings": timings_dict(result.timings),
        "container": {
            "emits": result.container_stats.emits,
            "distinct_keys": result.container_stats.distinct_keys,
            "rounds": result.container_stats.rounds,
        },
        "counters": _json_safe(result.counters),
    }
    if result.spill_stats is not None:
        s = result.spill_stats
        data["spill"] = {
            "budget_bytes": s.budget_bytes,
            "peak_accounted_bytes": s.peak_accounted_bytes,
            "within_budget": s.within_budget,
            "runs": s.runs,
            "spilled_bytes": s.spilled_bytes,
            "spilled_records": s.spilled_records,
            "combine_pairs_in": s.combine_pairs_in,
            "combine_pairs_out": s.combine_pairs_out,
            "combine_reduction": s.combine_reduction,
            "merge_fan_in": s.merge_fan_in,
            "merge_passes": s.merge_passes,
            "merge_rewritten_bytes": s.merge_rewritten_bytes,
            "spill_write_s": s.spill_write_s,
        }
    if result.fault_log is not None:
        data["faults"] = fault_log_dict(result.fault_log)
    if include_output:
        data["output"] = [
            [_json_safe(k), _json_safe(v)] for k, v in result.output
        ]
    return data


def sim_result_dict(result: SimJobResult) -> dict:
    """A simulated run as a JSON-safe dictionary (trace included)."""
    return {
        "app": result.app,
        "runtime": result.runtime,
        "input_bytes": result.input_bytes,
        "chunk_bytes": result.chunk_bytes,
        "timings": timings_dict(result.timings),
        "spans": [
            {"name": s.name, "start": s.start, "end": s.end}
            for s in result.spans
        ],
        "samples": [
            {
                "time": s.time,
                "user_pct": s.user_pct,
                "sys_pct": s.sys_pct,
                "iowait_pct": s.iowait_pct,
            }
            for s in result.samples
        ],
        "extras": _json_safe(result.extras),
    }


def to_json(result: JobResult | SimJobResult, indent: int = 2,
            include_output: bool = False) -> str:
    """Render either result kind as JSON text."""
    if isinstance(result, JobResult):
        data = job_result_dict(result, include_output=include_output)
    else:
        data = sim_result_dict(result)
    return json.dumps(data, indent=indent, sort_keys=True)
