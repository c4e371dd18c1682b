"""One structure for what is printed and what is written.

A *run record* is what one ``--workload`` invocation produces: the
declared metrics with their units (from ``BENCHMARK.json``), sample
summaries where a metric was sampled, and the named failures.  The
printed table, ``latest.json`` and the contract's last output line are
all rendered from it, so they cannot disagree.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from benchlib import SCHEMA_VERSION, stats


def run_record(measured: dict, declared: list[dict], header: dict) -> dict:
    """Attach units to ``measured["values"]``; refuse a metric set that
    differs from the declared one."""
    values = measured["values"]
    names = [m["name"] for m in declared]
    if set(values) != set(names):
        missing = sorted(set(names) - set(values))
        extra = sorted(set(values) - set(names))
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: missing {missing}, "
            f"undeclared {extra}"
        )
    metrics = {}
    for spec in declared:
        name = spec["name"]
        entry: dict[str, Any] = {
            "value": float(values[name]), "unit": spec["unit"],
        }
        if name in measured["sampled"]:
            entry.update(stats.summary(measured["sampled"][name]))
        metrics[name] = entry
    record = dict(header)
    record["schema_version"] = SCHEMA_VERSION
    record["metrics"] = metrics
    attempted = measured["attempted"]
    record["attempted"] = attempted
    record["failed"] = measured["failed"]
    record["failed_frac"] = measured["failed"] / attempted
    record["correct"] = measured["failed"] == 0
    for key in ("failures", "input_bytes", "timed_jobs",
                "supported_percentile", "layer_self_s", "driver_walls_s"):
        if key in measured:
            record[key] = measured[key]
    return record


def contract_line(record: dict) -> str:
    """The last line of standard output the driver parses."""
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in record["metrics"].items()
        },
    })


def _number(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def table(record: dict) -> list[str]:
    """Every metric by name with its unit; quartiles where sampled."""
    title = (
        f"{record['workload']}  seed={record['seed']} "
        f"input={record['input_bytes']}B  "
        f"attempted={record['attempted']} failed={record['failed']}"
    )
    lines = [title]
    width = max(len(name) for name in record["metrics"])
    for name, m in record["metrics"].items():
        line = f"  {name:<{width}}  {_number(m['value']):>12} {m['unit']}"
        if "n" in m:
            line += (
                f"   (n={m['n']} q1={_number(m['q1'])} "
                f"q3={_number(m['q3'])})"
            )
        lines.append(line)
    for failure in record.get("failures", []):
        lines.append(f"  FAILED: {failure}")
    if "layer_self_s" in record:
        top = list(record["layer_self_s"].items())[:3]
        lines.append(
            "  top layers by self time: "
            + ", ".join(f"{layer} {seconds:.3f}s" for layer, seconds in top)
        )
    return lines


def write_json(path: Path, payload: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1))


def compare_sets(first: dict, second: dict, end_to_end: list[dict]) -> list:
    """Per workload x end-to-end metric: how far two sets of runs of the
    same code disagree, against the metric's bound."""
    rows = []
    for workload, a in first.items():
        b = second[workload]
        for spec in end_to_end:
            name = spec["name"]
            va = a["metrics"][name]["value"]
            vb = b["metrics"][name]["value"]
            diff = abs(vb - va) / abs(va) if va else float("inf")
            rows.append({
                "workload": workload, "metric": name, "unit": spec["unit"],
                "first": va, "second": vb, "relative_difference": diff,
                "bound": spec["bound"], "within_bound": diff <= spec["bound"],
            })
    return rows
